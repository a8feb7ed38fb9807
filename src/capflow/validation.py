"""Named oracle suites behind `capflow validate` and the acceptance tests.

Every check sets a computation against a second route or a bound
(quadrature identity vs. closed form, hemisphere solver vs. reflected
closed curve, the step's inverse vs. the maximum principle) and reports
the measured discrepancy next to its tolerance.  The CLI prints the rows; the
acceptance tests assert them.  `check_max_principle` and `check_smoothing`
are acceptance-only: no `capflow validate` suite runs them.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    divergence_identity_residual,
    holder_norm,
    interpolation_check,
    lemma521_bound,
)
from .flow import FlowConfig, FlowState, _get_context, run_flow, step
from .geometry import (
    MIN_RESOLUTION,
    RadialField,
    build_grid,
    double_grid,
    quad_integrate,
)
from .nonlocal_ops import (
    HomotopyRule,
    KernelParams,
    _homotopy_blocks,
    divergence_oracle_Hs,
    homotopy_derivative,
    hs_reference,
    parametrized_Hs,
)

HALF_PI = math.pi / 2
# s of every oracle check but the dilation law, which sweeps s
ORACLE_S = 0.5


def _oracle_config(**fields):
    """The FlowConfig of an oracle run: s = ORACLE_S, the order-4 rule
    with remainders refreshed once per step, and theta = pi/2 unless
    `fields` give it."""
    shared = dict(
        s=ORACLE_S, theta=HALF_PI, homotopy_order=4, refresh_remainders="per-step"
    )
    return FlowConfig(**(shared | fields))


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    basis: str


def _le(name, measured, tol, basis):
    return CheckResult(name, float(measured), tol, bool(measured <= tol), basis)


def _lt_zero(name, measured, basis):
    return CheckResult(name, float(measured), 0.0, bool(measured < 0.0), basis)


def _run_failed(name, traj):
    """The failing row for a flow run that ended before its horizon."""
    return CheckResult(
        f"{name} ({traj.status}: {traj.message})", math.inf, 0.0, False, "run status"
    )


# ----------------------------------------------------------------------
# homotopy identity
# ----------------------------------------------------------------------

M1_SHAPES = (
    ("height", lambda grid: grid.nodes[:, -1]),
    ("x1-squared", lambda grid: grid.nodes[:, 0] ** 2),
    ("cos-2phi", lambda grid: np.cos(2 * grid.phi)),
)

M1_AMPLITUDES = (0.01, 0.05, 0.1)


def m1_relative_residual(resolution):
    """Relative residual of the homotopy identity per perturbation field.

    The parametrized curvature of rho minus its reconstruction by
    transporting the reference curvature along the family Phi_xi must
    telescope to zero; the residual is scaled by the size of the
    transported part.  Returns {(shape, amplitude): relative residual}
    at s = ORACLE_S and homotopy order 8.
    """
    grid = build_grid(1, resolution, "hemisphere")
    params = KernelParams(ORACLE_S)
    rule = HomotopyRule(order=8)
    ref = np.full(grid.size, hs_reference(double_grid(grid)[0], params)[0])
    tp, tw = rule.tprime()
    out = {}
    for shape_name, shape in M1_SHAPES:
        g = shape(grid)
        for a in M1_AMPLITUDES:
            rho = RadialField(grid, 1.0 + a * g)
            transported = np.zeros(grid.size)
            for w, d in zip(tw, homotopy_derivative(tp, rho, params)):
                transported += w * d
            # ph holds -ref, so ref cancels up to rounding (ROADMAP item 7b)
            ph = parametrized_Hs(rho, params, rule, ref)
            residual = np.abs(ph + ref - transported).max()
            out[(shape_name, a)] = residual / np.abs(transported).max()
    return out


def suite_m1_identity(resolution=512):
    rows = []
    for (shape, a), rel in m1_relative_residual(resolution).items():
        rows.append(
            _le(
                f"homotopy identity, {shape}, amplitude {a}",
                rel,
                1e-3,
                "curvature transport telescopes against the direct value",
            )
        )
    return rows


# ----------------------------------------------------------------------
# dilation law
# ----------------------------------------------------------------------


def suite_scaling(resolution=512):
    rows = []
    grid = build_grid(1, resolution, "full-sphere")
    x = resolution // 3
    for s in (0.3, 0.5, 0.7):
        params = KernelParams(s)
        base = divergence_oracle_Hs(grid.nodes, grid.nodes, grid.weights, x, params)
        for R in (0.8, 1.25):
            value = divergence_oracle_Hs(
                R * grid.nodes, grid.nodes, R * grid.weights, x, params
            )
            rel = abs(value - R**-s * base) / abs(R**-s * base)
            rows.append(
                _le(
                    f"dilation law, s={s}, R={R}",
                    rel,
                    1e-3,
                    "curvature of a scaled circle against the power law",
                )
            )
    return rows


# ----------------------------------------------------------------------
# shrinking circle
# ----------------------------------------------------------------------


def suite_shrinking_circle(resolution=256):
    s, dt = ORACLE_S, 5e-4
    # Curvature of the unit circle in closed form: the divergence identity
    # with (y - x).y = |y - x|^2 / 2 gives H^s(S^1) = 2 pi Gamma(1 - s) /
    # (s Gamma(1 - s/2)^2)
    c = 2 * math.pi * math.gamma(1 - s) / (s * math.gamma(1 - s / 2) ** 2)
    t_star = (1.0 - 0.5 ** (1 + s)) / ((1 + s) * c)
    cfg = _oracle_config(
        dt=dt, resolution=resolution, topology="full-sphere", t_end=t_star
    )
    traj = run_flow(cfg)
    if traj.status != "completed":
        return [_run_failed("shrinking run completed", traj)]
    rows = []
    worst = 0.0
    for t, vals in traj.saved:
        R = (1.0 - (1 + s) * c * t) ** (1.0 / (1 + s))
        worst = max(worst, np.abs(vals - R).max() / R)
    rows.append(
        _le(
            f"radius law down to R=0.5 ({len(traj.diagnostics) - 1} steps)",
            worst,
            1e-2,
            "radius power law with the closed-form rate",
        )
    )
    # volume balance: (V1-V0)/dt against the quadrature of the rate,
    # with the midpoint density of the two frames.  At n = 1 both sides
    # are sum w (v1^2 - v0^2) / (2 h), so the row checks rounding only and
    # any sequence of frames passes it (1.5e-12 on the default run); the
    # s-perimeter energy of ROADMAP item 16 is the meaningful balance.
    worst_balance = 0.0
    vols = [d["volume"] for d in traj.diagnostics]
    n = cfg.n
    for (t0, v0), (t1, v1), V0, V1 in zip(
        traj.saved, traj.saved[1:], vols, vols[1:]
    ):
        h = t1 - t0
        rate = quad_integrate(
            traj.grid, (v1 - v0) / h * ((v1 + v0) / 2.0) ** n
        )
        worst_balance = max(worst_balance, abs((V1 - V0) / h - rate))
    rows.append(
        _le(
            "volume balance each step",
            worst_balance,
            1e-8,
            "finite difference of volume against the flux quadrature",
        )
    )
    rows.append(
        _lt_zero(
            "volume strictly decreasing",
            max(b - a for a, b in zip(vols, vols[1:])),
            "largest volume increment over the run",
        )
    )
    return rows


# ----------------------------------------------------------------------
# capillary boundary law
# ----------------------------------------------------------------------


def suite_bc(resolution=129):
    steps, dt = 50, 2e-4
    rows = []
    for theta in (math.pi / 3, HALF_PI, 2 * math.pi / 3):
        cfg = _oracle_config(
            theta=theta,
            dt=dt,
            resolution=resolution,
            topology="hemisphere",
            t_end=steps * dt,
            initial="height:0.05",
        )
        traj = run_flow(cfg)
        if traj.status != "completed":
            rows.append(_run_failed(f"capillary run completed, theta={theta:.6f}", traj))
            continue
        worst = max(d["max_bc_residual"] for d in traj.diagnostics[1:])
        rows.append(
            _le(
                f"boundary residual, theta={theta:.6f}",
                worst,
                cfg.bc_tol,
                "contact-angle equation at the wall after every step",
            )
        )
        if theta == HALF_PI:
            # frame 0, the projected initial field, evenly extended onto
            # the run's doubled grid
            full = _get_context(cfg).to_work(traj.saved[0][1])
            cfg_f = _oracle_config(
                dt=dt, resolution=full.grid.resolution, topology="full-sphere"
            )
            state = FlowState(t=0.0, rho=full, dt=dt)
            saved = {round(t / dt): v for t, v in traj.saved}
            worst_match = 0.0
            for k in range(steps):
                state = step(state, cfg_f)
                half = saved[k + 1]
                worst_match = max(
                    worst_match,
                    np.abs(state.rho.values[:resolution] - half).max()
                    / np.abs(half).max(),
                )
            rows.append(
                _le(
                    "hemisphere matches reflected full circle",
                    worst_match,
                    5e-3,
                    "capillary solver against the free even-symmetric flow",
                )
            )
    return rows


# ----------------------------------------------------------------------
# identity suites
# ----------------------------------------------------------------------


def _interpolation_family(grid):
    for k in (1, 2, 3, 4):
        for a in (0.5, 1.0, 2.0):
            yield f"a={a}, degree {k}", a * np.cos(k * grid.phi)


def kernel_bound_excess(resolution=512):
    """Worst excess of the flow's kernel over the distance-ratio bound.

    For the deformed surface Phi_xi the kernel times chord^(n+1+s) equals
    (chord/image distance)^(n+1+s), which the minimal image separation
    ratio bounds from above.  Reads the kernel of every node pair from the
    homotopy walk (`_homotopy_blocks`) at three interpolation stages and
    returns max(kernel * chord^p / kappa), which must stay at or below 1.
    """
    grid = build_grid(1, resolution, "full-sphere")
    rho = RadialField(grid, 1.0 + 0.3 * np.cos(2 * grid.phi))
    p = grid.n + 1 + ORACLE_S
    stages = []
    for xi in (0.0, 0.37, 1.0):
        r = 1.0 + xi * (rho.values - 1.0)
        pts = r[:, None] * grid.nodes
        D2 = np.maximum(
            np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2), 0.0
        )
        ratio2 = D2 / np.maximum(grid.chord2(), 1e-300)
        np.fill_diagonal(ratio2, np.inf)
        stages.append((xi, float(np.sqrt(ratio2.min())) ** -p))
    worst = 0.0
    _, blocks = _homotopy_blocks(rho, KernelParams(ORACLE_S), np.arange(grid.size), 1)
    for _, tb, *_, kernel, (K,) in blocks:
        # the walk's own columns are zero, as is their chord
        chord_p = np.sqrt(grid.chord2(tb)) ** p
        for xi, kappa in stages:
            worst = max(worst, float(np.max(kernel(xi, K) * chord_p / kappa)))
    return worst


def suite_identities(resolution=512):
    rows = []
    params = KernelParams(ORACLE_S)

    res_lo, res_hi = resolution // 2, resolution
    residuals = {}
    for label, field in (
        ("round circle", lambda g: np.ones(g.size)),
        ("wavy", lambda g: 1 + 0.05 * np.cos(2 * g.phi)),
    ):
        vals = []
        for N in (res_lo, res_hi):
            g = build_grid(1, N, "full-sphere")
            vals.append(
                divergence_identity_residual(RadialField(g, field(g)), N // 5, params)
            )
        residuals[label] = vals
        rows.append(
            _le(
                f"divergence identity residual halves, {label}",
                vals[1] / vals[0],
                0.5,
                "refinement ratio of the three-term surface identity",
            )
        )
    rows.append(
        _le(
            "divergence identity residual, round circle",
            residuals["round circle"][1],
            1e-3,
            "three-term surface identity at the working resolution",
        )
    )

    report = lemma521_bound([128, 256, 512, 1024], ORACLE_S)
    rows.append(
        _le(
            "tail integral increments contract",
            max(report["ratios"]),
            0.75,
            "successive increments of the punctured tail integral",
        )
    )

    grid = build_grid(1, resolution, "full-sphere")
    worst_ratio = max(
        interpolation_check(u, grid, 0.25, 0.75, 0.5)
        for _, u in _interpolation_family(grid)
    )
    rows.append(
        _le(
            "interpolation inequality on trig family",
            worst_ratio,
            10.0,
            "mixed-exponent norm against the norm product, 12 fields",
        )
    )

    rows.append(
        _le(
            "kernel bound on every node pair",
            kernel_bound_excess(resolution),
            1.0 + 1e-12,
            "homotopy-walk kernel against the separation-ratio bound at 3 stages",
        )
    )
    return rows


# ----------------------------------------------------------------------
# checks outside the named suites
# ----------------------------------------------------------------------


def check_max_principle():
    """Worst sup-norm growth of the zero-source implicit step at resolution
    256, as a list of one row: the infinity norm of the inverse of
    I - dt M that the step applies, read from its context, minus 1."""
    resolution, dt = 256, 1e-3
    # the matrix does not depend on the rule or the refresh mode
    cfg = _oracle_config(dt=dt, resolution=resolution, topology="full-sphere")
    inverse = _get_context(cfg).factor(dt)
    return [
        _le(
            "implicit step sup-norm growth",
            np.abs(inverse).sum(axis=1).max() - 1.0,
            1e-12,
            "infinity norm of the step's inverse of I - dt M, minus 1",
        )
    ]


def check_smoothing():
    """Monotone decay of oscillation measures from a cosine perturbation,
    20 steps at resolution 256."""
    steps, dt = 20, 1e-4
    cfg = _oracle_config(
        dt=dt,
        resolution=256,
        topology="full-sphere",
        t_end=steps * dt,
        initial="cosine:2:0.1",
    )
    traj = run_flow(cfg)
    if traj.status != "completed":
        return [_run_failed("smoothing run completed", traj)]
    sup_dev = [d["sup_dev"] for d in traj.diagnostics]
    semis = [
        holder_norm(vals, traj.grid, 0.5).seminorm for _, vals in traj.saved
    ]
    return [
        _lt_zero(
            f"sup deviation decays over {steps} steps",
            max(b - a for a, b in zip(sup_dev, sup_dev[1:])),
            "largest increment of sup |rho - mean|",
        ),
        _lt_zero(
            f"Hoelder seminorm decays over {steps} steps",
            max(b - a for a, b in zip(semis, semis[1:])),
            "largest increment of the C^0.5 seminorm",
        ),
    ]


@dataclass(frozen=True)
class Suite:
    """A named suite's rows and the least resolution it can be run at."""

    rows: Callable[..., list[CheckResult]]
    min_resolution: int = MIN_RESOLUTION


SUITES = {
    "m1-identity": Suite(suite_m1_identity),
    "scaling": Suite(suite_scaling),
    "shrinking-circle": Suite(suite_shrinking_circle),
    "bc": Suite(suite_bc),
    # the refinement rows also build a grid at half the resolution
    "identities": Suite(suite_identities, 2 * MIN_RESOLUTION),
}


def run_suite(name, resolution=None):
    """Run one named suite at its own default resolution unless one is
    given (at least the suite's `min_resolution`); returns its
    CheckResult rows."""
    if resolution is None:
        return SUITES[name].rows()
    return SUITES[name].rows(resolution)
