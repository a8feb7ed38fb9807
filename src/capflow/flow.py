"""Time stepping for the fractional curvature flow of radial graphs.

The surface is the radial graph {rho(x) x} over the reference
(hemi)sphere and moves with normal speed equal to minus its fractional
curvature.  In the radial variable this reads

    d rho / dt = A(rho) * [ D^s rho - Hs_ref + R1 + R2 (rho - 1) ],

with A = sqrt(rho^2 + |grad rho|^2) / rho the conversion from normal
speed to radial speed.  With M the matrix of D^s, a backward Euler step
from rho_n at dt takes the Picard iterates rho^0 = rho_n and

    (I - dt M) u = rho_n + dt (P(rho^k) - Hs_ref),   rho^(k+1) = B(u),
    P(rho) = (A - 1)(M rho - Hs_ref) + A (R1 + R2 (rho - 1)),

M implicit and P explicit (`_explicit_part`, which `assemble_rhs` also
reads).  R1 and R2 are formed at each iterate (refresh_remainders =
per-iterate) or once per step, at rho_n (per-step).  B is the
contact-angle projection `apply_bc`, the identity on a full sphere.  The
loop stops when max |rho^(k+1) - rho^k| <= picard_tol * max(1, max
|rho^(k+1)|); a try that misses this in max_picard iterates, or whose
u is not finite and positive, is retried at dt / 2.  M has zero row sums and
nonnegative off-diagonal entries, so (I - dt M)^(-1) is nonnegative with
unit row sums: the solve obeys a discrete maximum principle.

Capillary runs on a hemisphere grid use the reflected operators, the one
capillary operator: fields are evenly extended across the contact plane
onto the doubled full-sphere grid, operator rows are restricted to the
hemisphere, and the contact-angle condition is imposed on the boundary
nodes after every inner iterate.  The even extension is exact for the
ninety-degree angle; away from it the extension has a gradient kink at
the contact nodes, where the speed grows like h^(-s) under refinement.

`surface_samples` and `normal_velocity` have no caller in the package:
with `assemble_rhs` they are the surface that the speed oracles (the
divergence form, on the sampled or the reflected set) compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import (
    MIN_RESOLUTION,
    RadialField,
    SphereGrid,
    Stencils,
    _read_only,
    build_grid,
    double_grid,
    gradient_values,
    quad_integrate,
)
from .diagnostics import volume
from .nonlocal_ops import (
    HomotopyRule,
    InjectivityError,
    KernelParams,
    _blocks,
    _raise_if_pinched,
    frac_laplacian_matrix,
    hs_reference,
    injectivity_ratio,
    remainder_R1,
    remainder_R2,
)

__all__ = [
    "ExtinctionError",
    "NonconvergenceError",
    "FlowConfig",
    "FlowState",
    "Trajectory",
    "prefactor_A",
    "surface_samples",
    "assemble_rhs",
    "normal_velocity",
    "bc_residual",
    "apply_bc",
    "initial_field",
    "step",
    "run_flow",
]

EXTINCTION_THRESHOLD = 0.05
MAX_DT_HALVINGS = 5
# Newton iterations allowed per boundary node in apply_bc
MAX_BC_ITERATIONS = 50
# Factorisations (inverses of I - dt M) kept per context: the step dt, a
# shortened last step and a halving or two
LU_CACHE = 4


class ExtinctionError(RuntimeError):
    """The surface shrank below the resolvable radius."""


class ConfigError(ValueError):
    """A config file is missing, malformed, or out of range, or names a
    snapshot on another grid."""


class NonconvergenceError(RuntimeError):
    """A step was rejected at its dt and at each of MAX_DT_HALVINGS halvings:
    the Picard loop did not settle, the implicit solve left the star-shaped
    regime, or the boundary projection missed its tolerance.  `apply_bc`
    raises it once, with no halving, where it is called outside a step."""


@dataclass(frozen=True)
class FlowConfig:
    s: float
    theta: float
    dt: float
    resolution: int
    topology: str
    n: int = 1
    t_end: float | None = None
    # one legal value; the key stays because every run manifest echoes it
    hs_ref_mode: str = "full-sphere"
    initial: str = "constant:1.0"
    save_every: int = 1
    homotopy_order: int = 8
    refresh_remainders: str = "per-iterate"
    picard_tol: float = 1e-9
    max_picard: int = 20
    bc_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if not 0.0 < self.theta < np.pi:
            raise ValueError(f"theta must lie in (0,pi), got {self.theta}")
        for key in ("dt", "t_end", "picard_tol", "bc_tol"):
            value = getattr(self, key)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be finite and positive, got {value}")
        if self.max_picard < 1:
            raise ValueError(f"max_picard must be at least 1, got {self.max_picard}")
        if self.resolution < MIN_RESOLUTION:
            raise ValueError(
                f"resolution must be at least {MIN_RESOLUTION}, got {self.resolution}"
            )
        if self.topology not in ("hemisphere", "full-sphere"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if self.homotopy_order < 1:
            raise ValueError("homotopy_order must be a positive integer")
        if self.hs_ref_mode == "half-ball":
            raise ValueError(
                "hs_ref_mode 'half-ball' was removed: it missed the curvature "
                "of the set it names (ROADMAP item 13); use 'full-sphere'"
            )
        if self.hs_ref_mode != "full-sphere":
            raise ValueError(f"unknown hs_ref_mode {self.hs_ref_mode!r}")
        if self.refresh_remainders not in ("per-iterate", "per-step"):
            raise ValueError(
                f"unknown refresh_remainders {self.refresh_remainders!r}"
            )
        if self.save_every < 1:
            raise ValueError("save_every must be at least 1")
        _parse_initial(self.initial, self.n, self.topology)

    @property
    def horizon(self) -> float:
        return self.t_end if self.t_end is not None else 10.0 * self.dt


@dataclass
class FlowState:
    t: float
    rho: RadialField
    dt: float
    step: int = 0
    picard_iters: int = 0
    bc_residual_max: float = 0.0


@dataclass
class Trajectory:
    grid: SphereGrid
    saved: list = field(default_factory=list)  # (t, values) pairs
    diagnostics: list = field(default_factory=list)  # per-step dicts
    status: str = "completed"
    message: str = ""


# ----------------------------------------------------------------------
# pointwise surface quantities
# ----------------------------------------------------------------------


def _speed_factor(values: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sqrt(rho^2 + |grad rho|^2) from the values and their gradient g."""
    return np.sqrt(values**2 + np.sum(g * g, axis=1))


def prefactor_A(rho: RadialField) -> np.ndarray:
    """Radial-to-normal speed factor sqrt(rho^2 + |grad rho|^2) / rho."""
    g = gradient_values(rho.grid, rho.values)
    return _speed_factor(rho.values, g) / rho.values


def surface_samples(rho: RadialField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mapped nodes, outward unit normals, and surface weights of the graph.

    The weights are the area element rho^(n-1) W of the graph relative to
    the reference sphere times the quadrature weights, W = sqrt(rho^2 +
    |grad rho|^2).
    """
    grid = rho.grid
    g = gradient_values(grid, rho.values)
    W = _speed_factor(rho.values, g)
    nodes = rho.values[:, None] * grid.nodes
    normals = (nodes - g) / W[:, None]
    return nodes, normals, rho.values ** (grid.n - 1) * W * grid.weights


# ----------------------------------------------------------------------
# contact-angle boundary condition
# ----------------------------------------------------------------------


def _node_residual(
    st: Stencils, u: np.ndarray, cos_theta: float, k: int
) -> Callable[[float], float]:
    """Contact-angle residual at boundary position k as a function of its
    value v; the other inputs (4 u and u at the inward nodes and, on n = 2,
    the in-ring gradient term) are read now, as Python floats.  It works
    in the order `gradient_values` does, and math.pow is libm pow, as
    numpy's float_power, so the residual is bitwise the one read off the
    full gradient.
    """
    b, (i1, i2) = st.boundary[k], st.inward[k]
    u1, u2, two_step = 4.0 * float(u[i1]), float(u[i2]), 2.0 * st.step
    eta, ring = st.eta[k].tolist(), [0.0] * st.eta.shape[1]
    if st.ring is not None:
        ug = (u[st.ring[b, 1]] - u[st.ring[b, 0]]) / (2.0 * st.dgamma)
        ring = ((ug / st.sin_beta[b]) * st.e_gamma[b]).tolist()

    def residual(v: float) -> float:
        dn = ((3.0 * v - u1) + u2) / two_step
        gg = 0.0
        for e, q in zip(eta, ring):
            g = dn * e + q
            gg += g * g
        return cos_theta - dn / math.sqrt(math.pow(v, 2) + gg)

    return residual


def bc_residual(rho: RadialField, theta: float) -> np.ndarray:
    """cos(theta) minus the achieved contact angle cosine, per boundary node.

    At a contact node the ambient wall normal coincides with the spherical
    conormal, so the angle condition <nu, wall normal> = -cos(theta)
    becomes cos(theta) - (d rho / d eta) / sqrt(rho^2 + |grad rho|^2) = 0.
    Each node's residual is `apply_bc`'s per-node one, at its own value.
    """
    st, u, cos_theta = rho.grid.stencils(), rho.values, float(np.cos(theta))
    nodes = enumerate(st.boundary)
    return np.array([_node_residual(st, u, cos_theta, k)(u[b]) for k, b in nodes])


def _max_bc_residual(rho: RadialField, theta: float) -> float:
    bres = bc_residual(rho, theta)
    return float(np.abs(bres).max()) if bres.size else 0.0


def apply_bc(rho: RadialField, theta: float, tol: float) -> RadialField:
    """Adjust boundary values until the contact-angle residual is below tol.

    One Gauss-Seidel sweep in boundary order: node k solves its scalar
    residual by damped Newton (finite-difference slope, halving line
    search) with the interior values fixed and, on n = 2, its ring
    neighbours as they stand at its turn, k - 1 updated and k + 1 not yet.
    A grid without boundary nodes returns rho unchanged.
    """
    grid, st = rho.grid, rho.grid.stencils()
    if st.boundary.size == 0:
        return rho
    vals, cos_theta = rho.values.copy(), float(np.cos(theta))
    for k, b in enumerate(st.boundary):
        residual = _node_residual(st, vals, cos_theta, k)
        v = float(vals[b])
        r = residual(v)
        for _ in range(MAX_BC_ITERATIONS):
            if abs(r) <= tol:
                break
            dv = 1e-7 * max(1.0, abs(v))
            slope = (residual(v + dv) - r) / dv
            if slope == 0.0:
                raise NonconvergenceError(
                    f"flat contact-angle residual at boundary node {b}"
                )
            stepv = -r / slope
            lam = 1.0
            while lam > 1e-4:
                cand = v + lam * stepv
                if cand > 0.0:
                    rc = residual(cand)
                    if abs(rc) < abs(r):
                        v, r = cand, rc
                        break
                lam *= 0.5
            else:
                raise NonconvergenceError(
                    f"contact-angle update stalled at boundary node {b}"
                )
        else:
            raise NonconvergenceError(
                f"contact angle not met at node {b} after {MAX_BC_ITERATIONS} "
                "iterations"
            )
        vals[b] = v
    return RadialField(grid, vals)


# ----------------------------------------------------------------------
# assembled right-hand side
# ----------------------------------------------------------------------


def lu_factor(a: np.ndarray) -> np.ndarray:
    """Inverse of I - dt M: strictly diagonally dominant, so well conditioned."""
    return np.linalg.inv(a)


def lu_solve(fac: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve with a `lu_factor` result."""
    return fac @ v


class _Context:
    """The one owner of what a step runs with: the grid and its working
    (doubled, on a hemisphere) grid with the even-extension `index_map`,
    the reference curvature, the matrix M, and the inverses of I - dt M.

    Built from the config fields that fix them; per-run settings (theta,
    tolerances, refresh mode) travel with the caller.  Every array it
    holds, each cached inverse included, is read-only, so the oracles read
    them as they are and no cache derived from one can go stale.
    """

    def __init__(
        self,
        n: int,
        s: float,
        resolution: int,
        topology: str,
        homotopy_order: int,
    ):
        self.grid = build_grid(n, resolution, topology)
        self.params = KernelParams(s)
        self.rule = HomotopyRule(order=homotopy_order)
        if topology == "hemisphere":
            self.work, self.index_map = double_grid(self.grid)
        else:
            self.work, self.index_map = self.grid, np.arange(self.grid.size)
        self.rows = np.arange(self.grid.size)
        self.hs_ref = hs_reference(self.work, self.params, self.rows)
        # each row block of the work-grid matrix is folded as it is built:
        # the first m work nodes are the grid's own, and on a hemisphere
        # their mirrors are distinct, so one indexed add folds a block (on a
        # full sphere there are no mirrors and the add is empty)
        m = self.grid.size
        M = np.empty((m, m))
        for sl, tb, _ in _blocks(self.rows):
            Mb = frac_laplacian_matrix(self.work, self.params, targets=tb)
            M[sl] = Mb[:, :m]
            M[sl, self.index_map[m:]] += Mb[:, m:]
        self.M = M
        _read_only(self)

        # the inverse of I - dt M, kept for the LU_CACHE most recently used
        # dt; closing over M, not self, keeps the context out of a cycle
        @lru_cache(maxsize=LU_CACHE)
        def factor(dt: float) -> np.ndarray:
            inverse = lu_factor(np.eye(M.shape[0]) - dt * M)
            inverse.setflags(write=False)
            return inverse

        self.factor = factor

    def to_work(self, values: np.ndarray) -> RadialField:
        return RadialField(self.work, values[self.index_map])


# A context holds dense N x N matrices and up to LU_CACHE factorisations,
# so only the most recently used few contexts are kept.
_cached_context = lru_cache(maxsize=4)(_Context)


def _get_context(cfg: FlowConfig) -> _Context:
    return _cached_context(
        cfg.n,
        cfg.s,
        cfg.resolution,
        cfg.topology,
        cfg.homotopy_order,
    )


def _explicit_part(
    ctx: _Context, values: np.ndarray, remainders: tuple | None = None
) -> tuple[np.ndarray, tuple]:
    """P = (A - 1)(M rho - Hs_ref) + A (R1 + R2 (rho - 1)) at the grid rows,
    and the pair (R1, R2) it used: the one given, or else formed here."""
    wf = ctx.to_work(values)
    A = prefactor_A(wf)[: ctx.grid.size]
    if remainders is None:
        r1 = remainder_R1(wf, ctx.params, ctx.rule, targets=ctx.rows)
        r2 = remainder_R2(wf, ctx.params, ctx.rule, targets=ctx.rows)
        remainders = r1, r2
    r1, r2 = remainders
    lin = ctx.M @ values - ctx.hs_ref
    return (A - 1.0) * lin + A * (r1 + r2 * (values - 1.0)), remainders


def assemble_rhs(rho: RadialField, cfg: FlowConfig) -> np.ndarray:
    """Full radial speed d rho / dt at the current field, summed as
    (M rho - Hs_ref) + P with P from the step's route, `_explicit_part`."""
    ctx = _get_context(cfg)
    P, _ = _explicit_part(ctx, rho.values)
    return ctx.M @ rho.values - ctx.hs_ref + P


def normal_velocity(rho: RadialField, cfg: FlowConfig) -> np.ndarray:
    """Normal speed of the surface: the radial speed divided by A."""
    ctx = _get_context(cfg)
    A = prefactor_A(ctx.to_work(rho.values))[: ctx.grid.size]
    return assemble_rhs(rho, cfg) / A


# ----------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------


# argument types of each analytic initial-data form
_INITIAL_FORMS = {"constant": (float,), "cosine": (int, float), "height": (float,)}


def _parse_initial(spec: str, n: int, topology: str) -> tuple[str, tuple]:
    """Kind and arguments of an initial-data form.

    Raises a ValueError naming `initial` unless the form is known and the
    field it describes is finite and positive on the whole (hemi)sphere.
    A snapshot path is checked when it is loaded.
    """
    kind, _, rest = spec.partition(":")
    if kind == "snapshot":
        return kind, (rest,)
    try:
        types = _INITIAL_FORMS[kind]
        args = tuple(cast(v) for cast, v in zip(types, rest.split(":"), strict=True))
    except (KeyError, ValueError):
        raise ValueError(
            f"initial: unknown initial data form {spec!r}; expected "
            "constant:c, cosine:k:a, height:a or snapshot:path"
        ) from None
    if kind == "cosine" and n != 1:
        raise ValueError("initial: cosine initial data needs a curve grid")
    # least value of the field: c; 1 + min(a, 0) for a height over the
    # hemisphere (x_(n+1) >= 0 there) or a cosine with k = 0; else 1 - |a|
    a = args[-1]
    one_signed = kind == "height" and topology == "hemisphere"
    if kind == "constant":
        least = a
    elif one_signed or kind == "cosine" and args[0] == 0:
        least = 1.0 + min(a, 0.0)
    else:
        least = 1.0 - abs(a)
    if not (math.isfinite(a) and least > 0.0):
        raise ValueError(f"initial: {spec!r} is not finite and positive everywhere")
    return kind, args


def initial_field(grid: SphereGrid, spec: str) -> RadialField:
    """Build the starting field from a short textual form.

    Supported: "constant:c", "cosine:k:a" for 1 + a cos(k phi),
    "height:a" for 1 + a * x_(n+1), and "snapshot:path" to restart from a
    stored snapshot on a matching grid.
    """
    kind, args = _parse_initial(spec, grid.n, grid.topology)
    if kind == "constant":
        return RadialField(grid, np.full(grid.size, args[0]))
    if kind == "cosine":
        k, a = args
        return RadialField(grid, 1.0 + a * np.cos(k * grid.phi))
    if kind == "height":
        return RadialField(grid, 1.0 + args[0] * grid.nodes[:, -1])
    from .snapshots import load_snapshot

    values = load_snapshot(args[0], grid)
    if values.min() <= 0.0:
        raise ConfigError(
            f"initial: snapshot {args[0]} ends in a field that is not strictly "
            f"positive (min {values.min():.6g})"
        )
    return RadialField(grid, values)


# ----------------------------------------------------------------------
# time stepping
# ----------------------------------------------------------------------


def _picard(
    ctx: _Context, cfg: FlowConfig, rho_old: np.ndarray, dt: float
) -> tuple[np.ndarray, int]:
    """Fixed-point iterates of one backward Euler step at dt.

    A try that fails raises NonconvergenceError (a solve that leaves the
    star-shaped regime, a loop that does not settle, or a failed boundary
    projection) or InjectivityError (a pinched homotopy walk).
    """
    hat, fac = rho_old, ctx.factor(dt)
    per_step, frozen = cfg.refresh_remainders == "per-step", None
    for k in range(cfg.max_picard):
        P, frozen = _explicit_part(ctx, hat, frozen if per_step else None)
        rhs = rho_old + dt * (P - ctx.hs_ref)
        u = lu_solve(fac, rhs)
        if not np.all(np.isfinite(u)) or u.min() <= 0.0:
            raise NonconvergenceError("implicit solve left the star-shaped regime")
        u = apply_bc(RadialField(ctx.grid, u), cfg.theta, tol=cfg.bc_tol).values
        delta = np.abs(u - hat).max()
        hat = u
        if delta <= cfg.picard_tol * max(1.0, np.abs(u).max()):
            return hat, k + 1
    raise NonconvergenceError(
        f"picard loop did not settle in {cfg.max_picard} iterations"
    )


def step(state: FlowState, cfg: FlowConfig) -> FlowState:
    """One backward Euler step; a rejected try is retried at half the dt, at
    most MAX_DT_HALVINGS times, and the last rejection is then raised."""
    ctx = _get_context(cfg)
    dt = state.dt
    for halvings in range(MAX_DT_HALVINGS + 1):
        try:
            new_vals, iters = _picard(ctx, cfg, state.rho.values, dt)
            break
        except (InjectivityError, NonconvergenceError) as exc:
            if halvings == MAX_DT_HALVINGS:
                raise type(exc)(
                    f"step rejected after {MAX_DT_HALVINGS} dt halvings: {exc}"
                ) from exc
            dt *= 0.5
    if new_vals.min() < EXTINCTION_THRESHOLD:
        raise ExtinctionError(
            f"surface radius fell to {new_vals.min():.3g} at t = {state.t + dt:.6g}"
        )
    rho_new = RadialField(ctx.grid, new_vals)
    _raise_if_pinched(injectivity_ratio(rho_new))
    return FlowState(
        t=state.t + dt,
        rho=rho_new,
        dt=dt,
        step=state.step + 1,
        picard_iters=iters,
        bc_residual_max=_max_bc_residual(rho_new, cfg.theta),
    )


# run status of each error that ends a run early
_STOP_STATUS = {
    ExtinctionError: "extinct",
    InjectivityError: "injectivity",
    NonconvergenceError: "nonconvergence",
}


def run_flow(cfg: FlowConfig) -> Trajectory:
    """Run the flow to its horizon, collecting diagnostics per step.

    Returns a trajectory whose status is "completed", "extinct",
    "nonconvergence", or "injectivity"; partial output is kept on early
    termination.  If the contact-angle projection of the initial field
    fails, the unprojected field is frame 0, with its measured residual.
    """
    ctx = _get_context(cfg)
    grid = ctx.grid
    traj = Trajectory(grid=grid)
    rho = initial_field(grid, cfg.initial)
    try:
        rho = apply_bc(rho, cfg.theta, tol=cfg.bc_tol)
    except NonconvergenceError as exc:
        # frame 0 keeps the unprojected field as the restart point
        traj.status, traj.message = "nonconvergence", str(exc)
    state = FlowState(
        t=0.0, rho=rho, dt=cfg.dt, bc_residual_max=_max_bc_residual(rho, cfg.theta)
    )
    _record(traj, state, grid, cfg)
    horizon = cfg.horizon
    slack = 1e-12 * max(1.0, horizon)
    while traj.status == "completed" and state.t < horizon - slack:
        # t is a running sum, so a remainder within the slack of dt is a
        # full step: it keeps the cached factorisation of I - dt M
        left = horizon - state.t
        dt = cfg.dt if left > cfg.dt - slack else left
        state = replace(state, dt=dt)
        try:
            state = step(state, cfg)
        except tuple(_STOP_STATUS) as exc:
            traj.status, traj.message = _STOP_STATUS[type(exc)], str(exc)
            break
        _record(traj, state, grid, cfg)
    # Also on early termination: the last accepted state is the restart point.
    if traj.saved[-1][0] != state.t:
        traj.saved.append((state.t, state.rho.values))
    return traj


def _record(traj: Trajectory, state: FlowState, grid: SphereGrid, cfg: FlowConfig):
    vals = state.rho.values
    vol = volume(state.rho)
    mean = quad_integrate(grid, vals) / grid.weights.sum()
    traj.diagnostics.append(
        {
            "t": state.t,
            "volume": vol,
            "sup_dev": float(np.abs(vals - mean).max()),
            "max_bc_residual": state.bc_residual_max,
            "picard_iters": state.picard_iters,
            "dt": state.dt,
        }
    )
    if state.step % cfg.save_every == 0:
        traj.saved.append((state.t, vals))
