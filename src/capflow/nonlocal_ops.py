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
(from one shared kernel pass per rule node), the derivative of curvature
along the homotopy (at one t' or, in one blocked pass, at a sequence of
them), the injectivity guard, and an independent curvature oracle based
on the divergence theorem.  The squared image distance has two forms:
`_image_dist2`, and in the remainder pass the expansion in xi,
D2 = A0 + xi (A1 + xi A2), whose guard reads A0 + A1 + A2.  Every pass
over node pairs walks the target rows in near-equal blocks of at most
ROW_BLOCK rows (`_blocks`), so temporaries stay small and rows are bitwise
independent of the block size; the one larger array is the matrix
`frac_laplacian_matrix` returns.  The chord mass is summed once per grid
and s (`_mass_rows`), for both reference modes.  The remainder pass
(`_remainder_pair`) integrates the kernel's xi-derivative by parts, so it
needs no mass (the mass term cancels) and per rule node only one power
and n + 1 moment sums; it checks injectivity inside its own kernel pass
and forms what does not change with the block once per call.
`injectivity_ratio` is the standalone guard for other callers.

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
    "kernel_K",
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
    (default 8) on [0, 1] serves the xi-integrals of F and plain
    t'-integrals.  Doubling the order changes the remainder terms far below
    their quadrature error.
    """

    order: int = 8
    _base: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

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
    applies.  n = 2 grids get [], hemisphere endpoints no row; the half-ball
    reference adds its own one-sided endpoint term (`hs_reference`)."""
    if grid.n != 1:
        return []
    adj = grid.adjacent[targets]
    rows = np.flatnonzero(np.all(adj >= 0, axis=1))
    return [(rows, adj[rows, side]) for side in (0, 1)]


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


def _blocks(targets: np.ndarray):
    """Per block of target rows: the rows' slice, their targets, and the
    index of each row's own (target) column.  The targets are split into
    ceil(N / ROW_BLOCK) blocks whose sizes differ by at most one, so no
    block is a short tail; no targets give no block."""
    count = -(-targets.size // ROW_BLOCK)
    for k in range(count):
        sl = slice(k * targets.size // count, (k + 1) * targets.size // count)
        tb = targets[sl]
        yield sl, tb, (np.arange(tb.size), tb)


# ----------------------------------------------------------------------
# kernel family
# ----------------------------------------------------------------------


def _image_dist2(
    xi: float,
    r_x: np.ndarray,
    r_y: np.ndarray,
    A0: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Squared image distance |Phi_xi(y) - Phi_xi(x)|^2 of unit nodes x, y:
    with a = 1 + xi (rho - 1) and A0 = |y - x|^2 = 2 - 2 x.y, it is
    (a_x - a_y)^2 + a_x a_y A0.  Broadcasts over pairs or target rows;
    written into `out` when given (it must have the broadcast shape)."""
    a_x = 1.0 + xi * (r_x - 1.0)
    a_y = 1.0 + xi * (r_y - 1.0)
    # the product term first, so `out` holds it; a sum's bits do not
    # depend on the order of its two terms
    d2 = np.multiply(a_x, a_y, out=out)
    d2 *= A0
    d2 += (a_x - a_y) ** 2
    return d2


def _x_dot_grad(xt: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x . grad rho(y) per entry (a matrix product rounds by row count)."""
    return sum(xt[:, d, None] * g[:, d] for d in range(xt.shape[1]))


def kernel_K(
    xi: float,
    rho: RadialField,
    y: int | np.ndarray,
    x: int | np.ndarray,
    params: KernelParams,
) -> float | np.ndarray:
    """Kernel |Phi_xi(y) - Phi_xi(x)|^(-(n+1+s)) for node pairs.

    `y` and `x` are node indices or equal-shape index arrays; every pair
    must be off the diagonal.  A single pair rounds as it would in an array.
    """
    single = np.ndim(y) == 0 and np.ndim(x) == 0
    y, x = np.atleast_1d(y, x)
    r, grid = rho.values, rho.grid
    if np.any((np.minimum(y, x) < 0) | (np.maximum(y, x) >= grid.size)):
        raise ValueError(f"node indices must lie in [0, {grid.size})")
    if np.any(y == x):
        raise ValueError("kernel is singular at y = x")
    d2 = _image_dist2(xi, r[x], r[y], grid.chord2[y, x])
    out = d2 ** (-0.5 * (grid.n + 1 + params.s))
    return float(out[0]) if single else out


# ----------------------------------------------------------------------
# fractional Laplacian
# ----------------------------------------------------------------------


def _chord_kernel(grid: SphereGrid, exponent: float, targets: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        K = np.sqrt(grid.chord2[targets]) ** (-exponent)
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


def _least_ratio2(rho: RadialField, pick: np.ndarray) -> float:
    """Least |Phi(y) - Phi(x)|^2 / |y - x|^2 over the pairs of distinct
    nodes x, y that the boolean mask `pick` selects, walked in row blocks."""
    r, chord2 = rho.values, rho.grid.chord2
    nodes = np.flatnonzero(pick)
    every = nodes.size == pick.size
    r_nodes = r[nodes]
    least = np.inf
    for sl, tb, _ in _blocks(nodes):
        # take keeps the rows contiguous, where [:, nodes] would not
        A0 = chord2[tb] if every else chord2[tb].take(nodes, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio2 = _image_dist2(1.0, r[tb, None], r_nodes, A0) / A0
        ratio2[np.arange(tb.size), np.arange(sl.start, sl.stop)] = np.inf
        least = min(least, np.nanmin(ratio2))
    return float(least)


def injectivity_ratio(rho: RadialField) -> float:
    """min over node pairs of |Phi(y)-Phi(x)| / |y-x| for the full map.

    The standalone guard; the remainder pass checks the same pairs inside
    its own kernel pass (`_remainder_pair`).
    """
    every = np.ones(rho.grid.size, dtype=bool)
    return float(np.sqrt(_least_ratio2(rho, every)))


def _raise_if_pinched(ratio: float) -> None:
    if ratio < INJECTIVITY_RATIO_MIN:
        raise InjectivityError(
            f"radial map contracts node pairs by {ratio:.3g} "
            f"(limit {INJECTIVITY_RATIO_MIN}); surface may self-intersect"
        )


def _mass_rows(grid: SphereGrid, params: KernelParams) -> np.ndarray:
    """Corrected row sums of |y - x|^(-(n-1+s)) at every node, computed once
    per grid and s and kept on the grid, read-only.

    No one-sided endpoint term: the full-sphere reference has no endpoints,
    and the half-ball reference adds it to a copy.
    """
    mass = grid._mass.get(params.s)
    if mass is None:
        mass = np.empty(grid.size)
        for sl, tb, _ in _blocks(np.arange(grid.size)):
            K = _chord_kernel(grid, grid.n - 1 + params.s, tb)
            mass[sl] = _corrected_sum(K, grid, _lattice_stencil(grid, tb), params)
        mass.setflags(write=False)
        grid._mass[params.s] = mass
    return mass


def _remainder_pair(
    rho: RadialField, params: KernelParams, rule: HomotopyRule, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """R1 and R2 at the target rows, from one kernel pass per rule node,
    with the injectivity guard folded in.

    With u = rho - 1 and A0 = |y - x|^2 = 2 - 2 x.y, the squared image
    distance (`_image_dist2`), expanded in xi, is D2(xi) = A0 + xi (A1 +
    xi A2) with A1 = (u(x) + u(y)) A0 and A2 = (u(x) - u(y))^2 +
    u(x) u(y) A0.  Both remainders weight the xi-derivative of
    F = B^n K_xi, B = 1 + xi u(y), by 1 - xi; integrated by parts,
    int_0^1 (1 - xi) F' dxi = int_0^1 F dxi - K0 with K0 = |y - x|^(-p).
    Expanding B^n in powers of xi u(y), the pass accumulates only the
    moments P_k = sum w xi^k K_xi, k = 0..n, each with a scalar weight, and
    applies the column factors once per block:
    int F = sum_k C(n, k) u^k P_k, S3 = sum w xi B^(n-1) K =
    sum_k C(n - 1, k) u^k P_(k+1), and with corrected row sums
    R1 = 2 sum (rho(y) - rho(x)) (int F - K0) and
    R2 = sum (A0 int F - 2 ((y - x) . grad rho(y)) S3).
    The chord mass of R2 cancels against A0 K0, its integrand.

    The column factors are formed once per call, the work buffers (n + 5
    of them) once per call at the largest block's size.  Before its xi
    loop each block checks the ratio D2(1) / A0 of its pairs; the pairs
    with neither end among the targets are checked first by
    `_least_ratio2`.  Both raise InjectivityError below
    INJECTIVITY_RATIO_MIN, so a pinched field never reaches a fractional
    power.
    """
    grid, r = rho.grid, rho.values
    n = grid.n
    power = -0.5 * (n + 1 + params.s)
    # the ratio is symmetric in the pair, so the target rows cover every
    # pair with one end among the targets; the rest needs its own pass
    rest = np.ones(grid.size, dtype=bool)
    rest[targets] = False
    _raise_if_pinched(math.sqrt(max(_least_ratio2(rho, rest), 0.0)))
    u = r - 1.0
    # 2 (y - x) . grad rho(y) = x . (-2 grad rho(y)) by tangency of the
    # gradient
    neg2_g = -2.0 * gradient_values(grid, r)
    # per rule node: xi and the weights w xi^k of the moments P_0..P_n
    nodes = [(xv, [wv * xv**k for k in range(n + 1)]) for xv, wv in zip(*rule.tprime())]
    # the column factors of P_1..P_n in int F, and of P_2..P_n in S3
    f_cols = [math.comb(n, k) * u**k for k in range(1, n + 1)]
    s3_cols = [math.comb(n - 1, k) * u**k for k in range(1, n)]
    blocks = list(_blocks(targets))
    rows = max((tb.size for _, tb, _ in blocks), default=0)
    work = np.empty((n + 5, rows, grid.size))
    r1 = np.empty(targets.size)
    r2 = np.empty(targets.size)
    for sl, tb, col in blocks:
        D2, T, A1, A2, *P = work[:, : tb.size]
        ut = u[tb][:, None]
        A0 = grid.chord2[tb]
        # A1 = (u(x) + u(y)) A0, A2 = (u(x) - u(y))^2 + u(x) u(y) A0
        np.add(ut, u, out=A1)
        A1 *= A0
        np.subtract(ut, u, out=A2)
        np.square(A2, out=A2)
        np.multiply(ut, u, out=T)
        T *= A0
        A2 += T
        # the guard: D2(1) / A0 = |Phi(y) - Phi(x)|^2 / |y - x|^2
        np.add(A1, A0, out=D2)
        D2 += A2
        with np.errstate(invalid="ignore", divide="ignore"):
            D2 /= A0
        D2[col] = np.inf
        _raise_if_pinched(math.sqrt(max(np.nanmin(D2), 0.0)))
        # the target column is punctured once per block: A2 = 1 there keeps
        # D2 = xi^2 and its power finite, and the moments are zeroed there
        A2[col] = 1.0
        for Pk in P:
            Pk.fill(0.0)
        for xv, wk in nodes:
            np.multiply(A2, xv, out=D2)
            D2 += A1
            D2 *= xv
            D2 += A0
            K = np.power(D2, power, out=D2)
            for Pk, w in zip(P, wk):
                np.multiply(K, w, out=T)
                Pk += T
        for Pk in P:
            Pk[col] = 0.0
        # int F into P_0, then S3 into P_1
        F, S3 = P[0], P[1]
        for Pk, c in zip(P[1:], f_cols):
            np.multiply(Pk, c, out=T)
            F += T
        for Pk, c in zip(P[2:], s3_cols):
            np.multiply(Pk, c, out=T)
            S3 += T
        stencil = _lattice_stencil(grid, tb)
        # R2 integrand A0 int F - 2 ((y - x) . grad rho(y)) S3
        S3 *= _x_dot_grad(grid.nodes[tb], neg2_g)
        np.multiply(A0, F, out=T)
        T -= S3
        r2[sl] = _corrected_sum(T, grid, stencil, params)
        # K0 = |y - x|^(-p), in place where `_chord_kernel` would allocate;
        # 1 keeps the target column's power finite
        np.copyto(D2, A0)
        D2[col] = 1.0
        K0 = np.power(D2, power, out=D2)
        K0[col] = 0.0
        F -= K0
        np.subtract(u, ut, out=T)
        T *= F
        r1[sl] = 2.0 * _corrected_sum(T, grid, stencil, params)
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
    all nodes); the returned array is read-only.  The pass raises
    InjectivityError when any node pair, with or without an end among the
    targets, contracts below INJECTIVITY_RATIO_MIN.
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
    tprime: float | np.ndarray, rho: RadialField, params: KernelParams
) -> np.ndarray:
    """Minus the t'-derivative of curvature along the homotopy.

    Evaluates 2 int ((rho(y)-1)y - (rho(x)-1)x) . nu(Phi(y)) K J dH_y with
    the closed forms nu J = B^n y - B^(n-1) t' grad rho(y), written out in
    dot products of unit nodes, at every node.

    `tprime` is one value, giving an (N,) array, or a 1-D sequence of T
    values, giving a (T, N) array whose row k is bitwise equal to the call
    at tprime[k].  A sequence takes one blocked pass: the guard, the
    gradient and the factors of each t' are formed once per call, and the
    t'-independent parts of the integrand, (rho(y) - rho(x)) + u(x) A0 / 2
    and x . grad rho(y), once per block, in work buffers sized to the
    largest block; each t' then costs one fractional power per block.
    A pinched field raises InjectivityError before any power is taken.
    """
    single = np.ndim(tprime) == 0
    tps = np.atleast_1d(tprime)
    if tps.ndim != 1:
        raise ValueError("tprime must be a number or a 1-D sequence")
    _raise_if_pinched(injectivity_ratio(rho))
    grid, r = rho.grid, rho.values
    n = grid.n
    power = -0.5 * (n + 1 + params.s)
    g = gradient_values(grid, r)
    u = r - 1.0
    # per t': B = 1 + t' u, B^(n-1) and B^(n-1) B
    factors = []
    for tp in tps:
        B = 1.0 + tp * u
        Bn1 = B ** (n - 1)
        factors.append((tp, Bn1, Bn1 * B))
    blocks = list(_blocks(np.arange(grid.size)))
    rows = max((tb.size for _, tb, _ in blocks), default=0)
    work = np.empty((4, rows, grid.size))
    out = np.empty((tps.size, grid.size))
    for sl, tb, col in blocks:
        P, D2, K, F = work[:, : tb.size]
        r_x = r[tb, None]
        ut = u[tb, None]
        A0 = grid.chord2[tb]
        # P = (rho(y) - rho(x)) + u(x) A0 / 2
        np.multiply(A0, 0.5, out=F)
        F *= ut
        np.subtract(r, r_x, out=P)
        P += F
        X = _x_dot_grad(grid.nodes[tb], g)
        stencil = _lattice_stencil(grid, tb)
        for k, (tp, Bn1, BnB) in enumerate(factors):
            _image_dist2(tp, r_x, r, A0, out=D2)
            D2[col] = 1.0  # the punctured target column
            np.power(D2, power, out=K)
            K[col] = 0.0
            # F = B^(n-1) B P + ((t' u(x)) X) B^(n-1)
            np.multiply(X, tp * ut, out=F)
            F *= Bn1
            np.multiply(P, BnB, out=D2)
            F += D2
            K *= 2.0
            K *= F
            out[k, sl] = _corrected_sum(K, grid, stencil, params)
    return out[0] if single else out


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
    ordered_ring: bool = True,
) -> float:
    """Fractional curvature of a closed surface by the divergence identity.

    H^s(x) = (2/s) int_{boundary} ((y-x) . nu(y)) |y-x|^(-(n+1+s)) dH_y;
    the integrand extends by 0 at y = x, and (y-x).nu = O(|y-x|^2) keeps
    it absolutely convergent on C^{1,1} surfaces.  The surface dimension n
    is one less than the dimension of the points.  For curves sampled in
    order around the loop (`ordered_ring`), the two neighbors of x supply
    the lattice correction for the even |y-x|^(-s)-type singularity.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[1] - 1
    diff = nodes - nodes[x]
    dist = np.linalg.norm(diff, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (2.0 / params.s) * np.sum(diff * normals, axis=1) * dist ** (-(n + 1 + params.s))
    f[x] = 0.0
    total = float(weights @ f)
    if ordered_ring:
        M = nodes.shape[0]
        lo, hi = (x - 1) % M, (x + 1) % M
        # neighbor weights stand in for the local lattice spacing
        total -= riemann_zeta(params.s) * float(
            weights[lo] * f[lo] + weights[hi] * f[hi]
        )
    return total


def _wetted_disk_samples(n: int, count: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes and weights on the flat wetted patch of the unit
    half-ball."""
    if n == 1:
        t = -1.0 + (np.arange(count) + 0.5) * (2.0 / count)
        nodes = np.column_stack([t, np.zeros_like(t)])
        weights = np.full(count, 2.0 / count)
        return nodes, weights
    nr = max(8, int(math.isqrt(count)) // 2)
    ntheta = 4 * nr
    radii = (np.arange(nr) + 0.5) / nr
    thetas = (np.arange(ntheta) + 0.5) * (2.0 * math.pi / ntheta)
    rr, tt = np.meshgrid(radii, thetas, indexing="ij")
    nodes = np.column_stack(
        [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel(), np.zeros(rr.size)]
    )
    cell = (1.0 / nr) * (2.0 * math.pi / ntheta)
    weights = (rr * cell).ravel()
    return nodes, weights


def hs_reference(grid: SphereGrid, params: KernelParams, mode: str) -> np.ndarray:
    """Reference curvature H^s of the unit configuration, per node.

    On the unit sphere (y-x).y = |y-x|^2/2, so the divergence identity
    reduces to the chord mass int |y - x|^(-(n-1+s)) over s.

    mode "full-sphere": the constant curvature of the unit sphere, the
    full-sphere grid's cached mass (`_mass_rows`) over s.

    mode "half-ball": curvature of the unit half-ball boundary (free
    hemisphere plus wetted equatorial patch) at each free-surface node of
    a hemisphere grid.  The free part is the grid's cached mass, where the
    n = 1 endpoints also take the one-sided correction from their inward
    neighbor, as the integrand is even; the patch is summed per block of
    rows.
    """
    needs = {"full-sphere": "full-sphere", "half-ball": "hemisphere"}
    if mode not in needs:
        raise ValueError(f"unknown reference mode {mode!r}")
    if grid.topology != needs[mode]:
        raise ValueError(f"{mode} reference needs a {needs[mode]} grid")
    if mode == "full-sphere":
        return _mass_rows(grid, params) / params.s
    out = _mass_rows(grid, params).copy()
    if grid.n == 1:
        st = grid.stencils()
        b = st.boundary
        K = np.sqrt(grid.chord2[b, st.inward[:, 0]]) ** (-(grid.n - 1 + params.s))
        out[b] -= riemann_zeta(params.s) * grid.h * K
    out /= params.s
    dn, dw = _wetted_disk_samples(grid.n)
    for sl, tb, _ in _blocks(np.arange(grid.size)):
        diff = dn - grid.nodes[tb, None, :]
        dist2 = np.einsum("tkd,tkd->tk", diff, diff)
        flat = np.einsum("tk,k->t", dist2 ** (-0.5 * (grid.n + 1 + params.s)), dw)
        # (y - x) . nu on the flat patch equals the height of x
        out[sl] += (2.0 / params.s) * grid.nodes[tb, -1] * flat
    return out
