"""Singular-integral operators for the radial curvature parametrization.

The fractional curvature of the deformed surface {rho(x)*x} is assembled
from integrals over the reference (hemi)sphere against the kernel family

    K_xi(y, x) = |Phi_xi(y) - Phi_xi(x)|^(-(n+1+s)),
    Phi_xi(x) = x + xi*(rho(x) - 1)*x,

interpolating between the round sphere (xi = 0) and the actual surface
(xi = 1).  KernelParams carries only s; the surface dimension n is read
from the grid (or, for the point-cloud oracle, the point dimension), so
the exponent always matches the surface.  The module provides the
principal-value fractional Laplacian, the two homotopy remainder terms
(from one shared kernel pass), the derivative of curvature
along the homotopy (at a sequence of t', in one blocked pass), the
injectivity guard, and an independent curvature oracle based
on the divergence theorem.  The squared image distance has one form, the
expansion in xi D2 = A0 + xi (A1 + xi A2) (`_dist2_coeffs`), with A0 the
squared chord `SphereGrid.chord2` forms per block.  The guard has one
route, `injectivity_ratio`, which reads the xi = 1 value over A0 in closed
form: the row of the least rho bounds the minimum, and only the pairs that
bound leaves open are walked, each once.  The kernel family has one
walk, `_homotopy_blocks`, shared by the remainder pass and
`homotopy_derivative`: the one homotopy walk calls the guard before any
fractional power, sets up each block, punctures the rows' own columns and
takes the power D2(xi)^(-(n+1+s)/2), as exp of a multiple of log D2, for
a sequence of xi in one call.  Every pass
over node pairs walks the target rows in near-equal blocks of at most
ROW_BLOCK rows (`_blocks`), so temporaries stay small and rows are
bitwise independent of the block size; the one larger array is the
matrix `frac_laplacian_matrix` returns.  The reference curvature has one
route, `hs_reference`: the unit sphere's chord mass over s, summed on a
full-sphere grid on each call at the rows asked for (a capillary run
reads its hemisphere rows of the doubled grid).  The remainder pass
(`_remainder_pair`) integrates the kernel's xi-derivative by parts, so it
needs no mass (the mass term cancels); per block it takes the kernels at
xi = 0 and at every rule node in one walk call, and their n + 1 moments
in one per-column reduction over the planes.

Principal values are handled by puncturing the singular node and adding a
lattice correction: a uniform punctured trapezoid sum of an integrand with
an even |phi|^(-s) singularity misses 2*zeta(s)*h^(1-s) times the singular
amplitude (zeta the Riemann zeta function, negative on (0,1)), which is
several percent at practical resolutions.  Sampling the integrand at the
two parameter neighbors of the singular node estimates that amplitude and
cancels the defect, leaving an O(h^2)-class error.  `_lattice_stencil`
alone decides which rows get the correction: interior rows of n = 1 grids;
n = 2 grids fall back to the plain punctured rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import RadialField, SphereGrid, gradient_values

__all__ = [
    "KernelParams",
    "HomotopyRule",
    "InjectivityError",
    "riemann_zeta",
    "frac_laplacian",
    "frac_laplacian_matrix",
    "remainder_R1",
    "remainder_R2",
    "homotopy_derivative",
    "parametrized_Hs",
    "divergence_oracle_Hs",
    "hs_reference",
    "injectivity_ratio",
]

INJECTIVITY_RATIO_MIN = 0.1


class InjectivityError(RuntimeError):
    """The radial map brings grid nodes too close together."""


@dataclass(frozen=True)
class KernelParams:
    """Fractional order s in (0,1).

    The surface dimension n is read from the grid each operator is given,
    so the kernel decay exponent is always grid.n + 1 + s.
    """

    s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0,1), got {self.s}")


@dataclass(frozen=True)
class HomotopyRule:
    """Gauss-Legendre rule on [0, 1] for the homotopy variable.

    The remainders integrate over the triangle 0 <= xi <= t' <= 1 the
    xi-derivative F' of a kernel term F, so the t'-integral is done in
    closed form, int_0^1 int_0^t' F'(xi) dxi dt' = int_0^1 (1 - xi) F'(xi)
    dxi, and that is int_0^1 F dxi - F(0) by parts.  One `order`-point rule
    on [0, 1] (a run takes `FlowConfig.homotopy_order`) serves the
    xi-integrals of F and plain t'-integrals.  Doubling the order changes
    the remainder terms far below their quadrature error.
    """

    order: int
    # derived from `order`, so equality and hashing read the order alone
    _base: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("rule order must be positive")
        x, w = np.polynomial.legendre.leggauss(self.order)
        object.__setattr__(self, "_base", (x, w))

    def tprime(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the rule mapped to [0, 1]."""
        x, w = self._base
        return 0.5 * (x + 1.0), 0.5 * w


# ----------------------------------------------------------------------
# zeta constant and the corrected punctured rule
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def riemann_zeta(s: float) -> float:
    """Riemann zeta at real s != 1 (s > 0), by Borwein's eta algorithm."""
    if s == 1.0:
        raise ValueError("zeta has a pole at s = 1")
    n = 32
    # d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), built by term ratios
    term = 1.0 / n
    total = term
    d = np.empty(n + 1)
    d[0] = n * total
    for i in range(1, n + 1):
        term *= 4.0 * (n + i - 1) * (n - i + 1) / (2.0 * i * (2.0 * i - 1.0))
        total += term
        d[i] = n * total
    k = np.arange(n)
    eta = -np.sum((-1.0) ** k * (d[k] - d[n]) / (k + 1.0) ** s) / d[n]
    return float(eta / (1.0 - 2.0 ** (1.0 - s)))


def _lattice_stencil(grid: SphereGrid, targets: np.ndarray) -> list:
    """Per side, the row positions of the interior targets and their
    neighbor nodes: the one place that decides where the lattice correction
    applies.  n = 2 grids get [], and hemisphere endpoints, with one
    neighbor, no row; a capillary run evaluates its hemisphere rows on the
    doubled grid, where every row is interior."""
    if grid.n != 1:
        return []
    nbrs = grid.stencils().meridian[targets]
    # an endpoint stands in for its own missing neighbour
    rows = np.flatnonzero(np.all(nbrs != targets[:, None], axis=1))
    return [(rows, nbrs[rows, side]) for side in (0, 1)]


def _corrected_sum(
    F: np.ndarray, grid: SphereGrid, stencil: list, params: KernelParams
) -> np.ndarray:
    """Punctured quadrature of integrand rows with the lattice correction.

    F[t, j] holds the integrand at node j for the target of row t; the
    entry at the target's own column must already be zero.  `stencil` is
    the rows' `_lattice_stencil`, built once by a caller that sums several
    integrands over the same targets; [] leaves the plain punctured sums.
    """
    # a row-by-row reduction: a matrix-vector product may round a row
    # differently depending on how many rows it is given
    base = np.einsum("tj,j->t", F, grid.weights)
    if not stencil:
        return base
    corr = np.zeros(F.shape[0])
    for rows, cols in stencil:
        corr[rows] += F[rows, cols]
    return base - riemann_zeta(params.s) * grid.h * corr


# target rows per block of every pass over node pairs; row results do not
# depend on it, only the size of the temporaries does
ROW_BLOCK = 64
# the planes of ROW_BLOCK rows a homotopy walk's work buffer may hold: a
# walk that needs more planes (a longer stack of kernels) takes fewer rows
WALK_PLANES = 6


def _blocks(targets: np.ndarray, size: int | None = None):
    """Per block of target rows: the rows' slice, their targets, and the
    index of each row's own (target) column.  The targets are split into
    ceil(N / size) blocks (size ROW_BLOCK by default) whose sizes differ by
    at most one, so no block is a short tail; no targets give no block."""
    count = -(-targets.size // (ROW_BLOCK if size is None else size))
    for k in range(count):
        sl = slice(k * targets.size // count, (k + 1) * targets.size // count)
        tb = targets[sl]
        yield sl, tb, (np.arange(tb.size), tb)


# ----------------------------------------------------------------------
# kernel family
# ----------------------------------------------------------------------


def _dist2_coeffs(
    u_x: np.ndarray,
    u_y: np.ndarray,
    A0: np.ndarray,
    A1: np.ndarray,
    A2: np.ndarray,
    T: np.ndarray,
) -> None:
    """A1, A2 of |Phi_xi(y) - Phi_xi(x)|^2 = A0 + xi (A1 + xi A2), unit x, y:
    A1 = (u(x) + u(y)) A0, A2 = (u(x) - u(y))^2 + u(x) u(y) A0, u = rho - 1.
    Broadcasts u(x) over target rows; writes A1 and A2, with T as scratch
    (each has the shape of A0)."""
    np.add(u_x, u_y, out=A1)
    A1 *= A0
    np.subtract(u_x, u_y, out=A2)
    np.square(A2, out=A2)
    np.multiply(u_x, u_y, out=T)
    T *= A0
    A2 += T


def _x_dot_grad(
    xt: np.ndarray, g: np.ndarray, out: np.ndarray, T: np.ndarray
) -> None:
    """x . grad rho(y) per entry, summed over the coordinates in order into
    `out`, with T as scratch (a matrix product rounds by row count)."""
    np.multiply(xt[:, 0, None], g[:, 0], out=out)
    for d in range(1, xt.shape[1]):
        np.multiply(xt[:, d, None], g[:, d], out=T)
        out += T


# ----------------------------------------------------------------------
# fractional Laplacian
# ----------------------------------------------------------------------


def _chord_kernel(grid: SphereGrid, exponent: float, targets: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        K = np.sqrt(grid.chord2(targets)) ** (-exponent)
    K[np.arange(targets.size), targets] = 0.0
    return K


def frac_laplacian(
    u: np.ndarray, grid: SphereGrid, params: KernelParams
) -> np.ndarray:
    """Principal-value fractional Laplacian 2 PV int (u(y)-u(x)) |y-x|^(-p)
    at every node, as the product with `frac_laplacian_matrix`.

    The matrix annihilates constants, so shifting u by u[0] changes
    nothing but the rounding, and makes constant samples map to exact
    zeros.
    """
    u = np.asarray(u, dtype=float)
    return frac_laplacian_matrix(grid, params) @ (u - u[0])


def frac_laplacian_matrix(
    grid: SphereGrid, params: KernelParams, targets: np.ndarray | None = None
) -> np.ndarray:
    """Rows of the dense matrix of the discrete fractional Laplacian.

    Off-diagonal entries 2 w_j K0(i,j) plus the lattice correction at the
    rows' `_lattice_stencil`; the diagonal is set for exact zero row sums,
    so constants are annihilated.  `targets` selects rows (default: all
    nodes), built one block of rows at a time.
    """
    targets = np.arange(grid.size) if targets is None else np.asarray(targets)
    M = np.empty((targets.size, grid.size))
    for sl, tb, col in _blocks(targets):
        K = _chord_kernel(grid, grid.n + 1 + params.s, tb)
        Mb = M[sl]
        np.multiply(2.0 * K, grid.weights, out=Mb)
        for rows, cols in _lattice_stencil(grid, tb):
            Mb[rows, cols] += -2.0 * riemann_zeta(params.s) * grid.h * K[rows, cols]
        Mb[col] = 0.0
        Mb[col] = -Mb.sum(axis=1)
    return M


# ----------------------------------------------------------------------
# homotopy remainder terms and curvature derivative
# ----------------------------------------------------------------------


def _ratio2(r: np.ndarray, grid: SphereGrid, rows, cols) -> np.ndarray:
    """Squared ratio rho(x) rho(y) + (rho(x) - rho(y))^2 / |y - x|^2 of the
    pairs of nodes x in `rows` and y in `cols`; an entry does not depend on
    which others are asked for, and swapping the ends changes no bit."""
    rt, ry = r[rows, None], r[cols]
    with np.errstate(invalid="ignore", divide="ignore"):
        return rt * ry + (rt - ry) ** 2 / grid.chord2(rows, cols)


def injectivity_ratio(rho: RadialField) -> float:
    """min over node pairs of |Phi(y)-Phi(x)| / |y-x| for the full map.

    The one injectivity guard: every guarded operator calls it before any
    fractional power.  The squared ratio D2(1) / A0 (`_dist2_coeffs`),
    rho(x) rho(y) + (rho(x) - rho(y))^2 / |y - x|^2, is symmetric in the
    pair and at least rho(x) rho(y).  The row of the least rho bounds the
    minimum by some B, so a pair below B has both ends among the
    candidates x with rho(x) min rho < B; the exact minimum walks only
    their pairs, each once (every pair in the worst case).  As
    |y - x|^2 <= 4 the squared ratio is also at least
    ((rho(x) + rho(y)) / 2)^2, so the ratio is at least min rho.
    """
    r, grid = rho.values, rho.grid
    k = int(np.argmin(r))
    row = _ratio2(r, grid, [k], slice(None))
    row[0, k] = np.inf
    least = np.nanmin(row)
    # rounding is monotone: a pair's computed ratio^2 is at least the
    # computed rho(x) rho(y), and that at least the computed rho(x) min rho
    cand = np.flatnonzero(r * r[k] < least)
    for sl, tb, _ in _blocks(cand):
        ratio2 = _ratio2(r, grid, tb, cand[sl.start :])
        # row i's own column is the block's column i
        np.fill_diagonal(ratio2, np.inf)
        least = min(least, np.nanmin(ratio2))
    return float(np.sqrt(least))


def _raise_if_pinched(ratio: float) -> None:
    if ratio < INJECTIVITY_RATIO_MIN:
        raise InjectivityError(
            f"radial map contracts node pairs by {ratio:.3g} "
            f"(limit {INJECTIVITY_RATIO_MIN}); surface may self-intersect"
        )


def _homotopy_blocks(
    rho: RadialField, params: KernelParams, targets: np.ndarray, buffers: int
):
    """The one walk of the kernel family K_xi over blocks of target rows.

    Calls the guard, `injectivity_ratio`, on every pair of the field and
    raises InjectivityError below INJECTIVITY_RATIO_MIN, then returns
    u = rho - 1 and an iterator that yields per `_blocks` block: the slice,
    the targets, u(x) as a column, A0 and x . grad rho(y), the stencil,
    `kernel(xis, out)` and `bufs`, 2 + `buffers` work planes (`buffers` at
    least one), all allocated once per call; the blocks take as many rows
    as keep the 4 + `buffers` planes within WALK_PLANES planes of ROW_BLOCK
    rows.  `kernel` takes a 1-D sequence of xi and writes into the stack
    `out` one plane per xi, D2(xi)^(-(n+1+s)/2) taken as
    exp(-(n+1+s)/2 log D2(xi)), with the own columns zero; a plane does
    not depend on the other xi of its call.  bufs[0] and bufs[1] hold A1
    and A2, which every kernel call reads, so a caller writes them only
    after its block's last kernel call.  The own columns are punctured once
    per block: A1 = 0 there, and A0 = A2 = 1 keep D2 = 1 + xi^2 finite for
    every xi.
    """
    _raise_if_pinched(injectivity_ratio(rho))
    grid = rho.grid
    power = -0.5 * (grid.n + 1 + params.s)
    u = rho.values - 1.0
    g = gradient_values(grid, rho.values)
    size = max(1, WALK_PLANES * ROW_BLOCK // (4 + buffers))
    blocks = list(_blocks(targets, size))
    rows = max((tb.size for _, tb, _ in blocks), default=0)
    work = np.empty((4 + buffers, rows, grid.size))

    def walk():
        for sl, tb, col in blocks:
            planes = work[:, : tb.size]
            A0, X, A1, A2 = planes[:4]
            ut = u[tb, None]
            grid.chord2(tb, out=A0)
            _dist2_coeffs(ut, u, A0, A1, A2, X)
            _x_dot_grad(grid.nodes[tb], g, X, planes[4])
            A0[col] = A2[col] = 1.0

            def kernel(xis, out: np.ndarray) -> np.ndarray:
                xi = np.asarray(xis, dtype=float)[:, None, None]
                np.multiply(A2, xi, out=out)
                out += A1
                out *= xi
                out += A0
                np.log(out, out=out)
                out *= power
                np.exp(out, out=out)
                out[:, col[0], col[1]] = 0.0
                return out

            yield sl, tb, ut, A0, X, _lattice_stencil(grid, tb), kernel, planes[2:]

    return u, walk()


def _remainder_pair(
    rho: RadialField, params: KernelParams, rule: HomotopyRule, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """R1 and R2 at the target rows, from one kernel call per block.

    With u = rho - 1, the squared image distance is D2(xi) = A0 + xi (A1 +
    xi A2) (`_dist2_coeffs`).  Both remainders weight the xi-derivative of
    F = B^n K_xi, B = 1 + xi u(y), by 1 - xi; integrated by parts,
    int_0^1 (1 - xi) F' dxi = int_0^1 F dxi - K0 with K0 = |y - x|^(-p).
    Expanding B^n in powers of xi u(y), the pass needs only the moments
    P_k = sum w xi^k K_xi, k = 0..n, and applies the column factors once
    per block: int F = sum_k C(n, k) u^k P_k, S3 = sum w xi B^(n-1) K =
    sum_k C(n - 1, k) u^k P_(k+1), and with corrected row sums
    R1 = 2 sum (rho(y) - rho(x)) (int F - K0) and
    R2 = sum (A0 int F - 2 ((y - x) . grad rho(y)) S3).
    The chord mass of R2 cancels against A0 K0, its integrand.

    Per block, the one homotopy walk (`_homotopy_blocks`, which calls the
    guard) writes the kernels at xi = 0 and at the rule nodes as one
    stack, K0 its first plane, and the moments are one einsum of the
    weights w xi^k with the rule-node planes, which sums each column over
    the planes in order; they take the planes of A1 and A2, which the
    stack has consumed.
    """
    n = rho.grid.n
    xs, ws = rule.tprime()
    xis = np.concatenate(([0.0], xs))
    u, blocks = _homotopy_blocks(rho, params, targets, n - 1 + xis.size)
    # row k: the weights w xi^k of P_k per rule-node plane of the stack
    weights = np.array([[wv * xv**k for xv, wv in zip(xs, ws)] for k in range(n + 1)])
    # the column factors of P_1..P_n in int F, and of P_2..P_n in S3
    f_cols = [math.comb(n, k) * u**k for k in range(1, n + 1)]
    s3_cols = [math.comb(n - 1, k) * u**k for k in range(1, n)]
    r1 = np.empty(targets.size)
    r2 = np.empty(targets.size)
    for sl, _, ut, A0, X, stencil, kernel, bufs in blocks:
        stack = kernel(xis, bufs[n + 1 :])
        P = bufs[: n + 1]
        # planes of one row stride: both reshapes are views.  A per-column
        # reduction over the rule-node planes: a BLAS product may round a
        # column differently depending on how many columns it is given
        nodes = stack[1:].reshape(xs.size, -1)
        np.einsum("kl,lj->kj", weights, nodes, out=P.reshape(n + 1, -1))
        K0, T = stack[0], stack[1]
        # int F into P_0, then S3 into P_1
        F, S3 = P[0], P[1]
        for Pk, c in zip(P[1:], f_cols):
            np.multiply(Pk, c, out=T)
            F += T
        for Pk, c in zip(P[2:], s3_cols):
            np.multiply(Pk, c, out=T)
            S3 += T
        # R2 integrand A0 int F + 2 X S3, as (y - x) . grad rho(y) = -X by
        # tangency of the gradient
        S3 *= X
        S3 *= 2.0
        np.multiply(A0, F, out=T)
        T += S3
        r2[sl] = _corrected_sum(T, rho.grid, stencil, params)
        F -= K0
        np.subtract(u, ut, out=T)
        T *= F
        r1[sl] = 2.0 * _corrected_sum(T, rho.grid, stencil, params)
    return r1, r2


def _remainders_of(
    rho: RadialField,
    params: KernelParams,
    rule: HomotopyRule,
    targets: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The remainder pair at the target rows (all rows for None), through a
    one-entry memo on the field.

    The field's values are read-only, so the memo cannot go stale; the
    cached arrays are read-only too, so no caller can change the other's.
    A pinched field raises InjectivityError from the pass and leaves the
    memo as it was.
    """
    if targets is None:
        targets = np.arange(rho.grid.size)
    targets = np.asarray(targets, dtype=np.intp)
    key = (params, rule.order, targets.tobytes())
    if rho._remainders is None or rho._remainders[0] != key:
        pair = _remainder_pair(rho, params, rule, targets)
        for arr in pair:
            arr.setflags(write=False)
        rho._remainders = (key, pair)
    return rho._remainders[1]


def remainder_R1(
    rho: RadialField,
    params: KernelParams,
    rule: HomotopyRule,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """First homotopy remainder: the (rho(y)-rho(x)) moment of the kernel
    xi-derivative, integrated over 0 <= xi <= t' <= 1.

    The t'-integral is done in closed form and the xi-integral by parts,
    leaving the moment of int_0^1 B^n K_xi dxi - K_0, taken with `rule`
    (B = 1 + xi (rho(y) - 1), K_0 the round kernel).  R1 and R2 come from one
    shared blocked kernel pass (`_remainder_pair`), kept on the field for
    the matching `remainder_R2` call.  `targets` selects rows (default:
    all nodes); the returned array is read-only.  The pass first calls the
    one guard, `injectivity_ratio`, and raises InjectivityError when any
    node pair, with or without an end among the targets, contracts below
    INJECTIVITY_RATIO_MIN.
    """
    return _remainders_of(rho, params, rule, targets)[0]


def remainder_R2(
    rho: RadialField,
    params: KernelParams,
    rule: HomotopyRule,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Second homotopy remainder (coefficient of rho(x) - 1).

    Two pieces: the |y-x|^2 moment of int_0^1 B^n K_xi dxi, and the
    gradient coupling -2 int_0^1 int (y-x).t' grad rho(y) B^(n-1) K_t' dt'.
    They are what is left of the chord integral int |y-x|^(-(n-1+s)) plus
    the |y-x|^2 moment of the kernel xi-derivative over
    0 <= xi <= t' <= 1, once the t'-integral is done in closed form and the
    xi-integral by parts: the boundary term -|y-x|^2 K_0 cancels the chord
    integral.  Both integrals share the nodes of `rule`, and R1 and R2
    share one blocked kernel pass (`_remainder_pair`).  `targets` selects
    rows (default: all nodes); the returned array is read-only.
    """
    return _remainders_of(rho, params, rule, targets)[1]


def homotopy_derivative(
    tprimes: np.ndarray, rho: RadialField, params: KernelParams
) -> np.ndarray:
    """Minus the t'-derivative of curvature along the homotopy.

    Evaluates 2 int ((rho(y)-1)y - (rho(x)-1)x) . nu(Phi(y)) K J dH_y with
    the closed forms nu J = B^n y - B^(n-1) t' grad rho(y), written out in
    dot products of unit nodes, at every node.

    `tprimes` is a 1-D sequence of T values, giving a (T, N) array, from
    one pass of the homotopy walk (`_homotopy_blocks`), which calls the
    guard: the factors of each t' are formed once per call, and the
    t'-independent part of the integrand, (rho(y) - rho(x)) + u(x) A0 / 2,
    once per block; each t' then costs one kernel, so one fractional
    power, per block.  A pinched field raises InjectivityError before any
    power is taken.
    """
    tps = np.asarray(tprimes)
    if tps.ndim != 1:
        raise ValueError("tprimes must be a 1-D sequence")
    grid, r = rho.grid, rho.values
    u, blocks = _homotopy_blocks(rho, params, np.arange(grid.size), 3)
    # per t': B = 1 + t' u, B^(n-1) and B^(n-1) B
    factors = []
    for tp in tps:
        B = 1.0 + tp * u
        Bn1 = B ** (grid.n - 1)
        factors.append((tp, Bn1, Bn1 * B))
    out = np.empty((tps.size, grid.size))
    for sl, tb, ut, A0, X, stencil, kernel, bufs in blocks:
        P, K, F = bufs[2:]
        # P = (rho(y) - rho(x)) + u(x) A0 / 2
        np.multiply(A0, 0.5, out=F)
        F *= ut
        np.subtract(r, r[tb, None], out=P)
        P += F
        for k, (tp, Bn1, BnB) in enumerate(factors):
            # F = B^(n-1) B P + ((t' u(x)) X) B^(n-1), with K as scratch
            np.multiply(X, tp * ut, out=F)
            F *= Bn1
            np.multiply(P, BnB, out=K)
            F += K
            kernel((tp,), K[None])
            K *= 2.0
            K *= F
            out[k, sl] = _corrected_sum(K, grid, stencil, params)
    return out


def parametrized_Hs(
    rho: RadialField, params: KernelParams, rule: HomotopyRule, hs_ref: np.ndarray
) -> np.ndarray:
    """Minus the fractional curvature at every rho(x)x, assembled from the
    fractional Laplacian, the reference curvature (per node or one
    constant), and the remainders."""
    lap = frac_laplacian(rho.values, rho.grid, params)
    r1 = remainder_R1(rho, params, rule)
    r2 = remainder_R2(rho, params, rule)
    return lap - hs_ref + r1 + r2 * (rho.values - 1.0)


# ----------------------------------------------------------------------
# curvature oracles
# ----------------------------------------------------------------------


def divergence_oracle_Hs(
    nodes: np.ndarray,
    normals: np.ndarray,
    weights: np.ndarray,
    x: int,
    params: KernelParams,
) -> float:
    """Fractional curvature of a closed surface by the divergence identity.

    H^s(x) = (2/s) int_{boundary} ((y-x) . nu(y)) |y-x|^(-(n+1+s)) dH_y;
    the integrand extends by 0 at y = x, and (y-x).nu = O(|y-x|^2) keeps
    it absolutely convergent on C^{1,1} surfaces.  The surface dimension n
    is one less than the dimension of the points.  Planar points (n = 1)
    must be a curve sampled in order around the loop: the two neighbors of
    x then supply the lattice correction for the even |y-x|^(-s)-type
    singularity.  Surfaces (n = 2) take the plain punctured sum.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[1] - 1
    diff = nodes - nodes[x]
    dist = np.linalg.norm(diff, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (2.0 / params.s) * np.sum(diff * normals, axis=1) * dist ** (-(n + 1 + params.s))
    f[x] = 0.0
    total = float(weights @ f)
    if n == 1:
        M = nodes.shape[0]
        lo, hi = (x - 1) % M, (x + 1) % M
        # neighbor weights stand in for the local lattice spacing
        total -= riemann_zeta(params.s) * float(
            weights[lo] * f[lo] + weights[hi] * f[hi]
        )
    return total


def hs_reference(
    grid: SphereGrid, params: KernelParams, targets: np.ndarray | None = None
) -> np.ndarray:
    """Reference curvature H^s of the unit sphere at nodes of a full-sphere
    grid.

    On the unit sphere (y-x).y = |y-x|^2/2, so the divergence identity
    reduces to the chord mass int |y - x|^(-(n-1+s)) over s: the corrected
    row sums of the chord kernel, one block of rows at a time.  `targets`
    selects rows (default: all nodes); a row does not depend on which
    others are asked for.  Capillary runs read their hemisphere rows of
    the doubled grid.
    """
    if grid.topology != "full-sphere":
        raise ValueError("the reference curvature needs a full-sphere grid")
    targets = np.arange(grid.size) if targets is None else np.asarray(targets)
    mass = np.empty(targets.size)
    for sl, tb, _ in _blocks(targets):
        K = _chord_kernel(grid, grid.n - 1 + params.s, tb)
        mass[sl] = _corrected_sum(K, grid, _lattice_stencil(grid, tb), params)
    return mass / params.s
