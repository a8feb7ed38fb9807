import math

import numpy as np
import pytest

from capflow import flow, nonlocal_ops, validation
from capflow import (
    ExtinctionError,
    FlowConfig,
    FlowState,
    InjectivityError,
    KernelParams,
    NonconvergenceError,
    RadialField,
    apply_bc,
    assemble_rhs,
    bc_residual,
    build_grid,
    double_grid,
    gradient_values,
    initial_field,
    normal_velocity,
    prefactor_A,
    run_flow,
    step,
    surface_samples,
)
from capflow.nonlocal_ops import (
    HomotopyRule,
    divergence_oracle_Hs,
    frac_laplacian_matrix,
    hs_reference,
    remainder_R1,
    remainder_R2,
)
from capflow.snapshots import CSV_COLUMNS
from test_geometry import (
    reference_conormal_derivative,
    reference_gradient_circle,
    reference_gradient_sphere2,
    sample_fields,
)
from test_operators import reference_frac_laplacian

S = 0.5
HALF_PI = np.pi / 2
# the contact-angle tolerance of a run that does not set one
BC_TOL = FlowConfig.bc_tol


def _mass(s):
    """Kernel mass of the unit circle, in closed form."""
    return (
        2 ** (1 - s)
        * math.gamma((1 - s) / 2)
        * math.gamma(0.5)
        / math.gamma(1 - s / 2)
    )


def _wavy(grid, a=0.05, b=0.02):
    return RadialField(grid, 1 + a * np.cos(2 * grid.phi) + b * np.sin(3 * grid.phi))


def _cfg(**kw):
    base = dict(s=S, theta=HALF_PI, dt=1e-3, resolution=64, topology="full-sphere")
    base.update(kw)
    return FlowConfig(**base)


# ----------------------------------------------------------------------
# surface quantities
# ----------------------------------------------------------------------


def test_prefactor_constant_field():
    grid = build_grid(1, 64, "full-sphere")
    rho = RadialField(grid, np.full(64, 0.7))
    assert np.abs(prefactor_A(rho) - 1.0).max() < 1e-14


def test_prefactor_scale_invariant():
    grid = build_grid(1, 128, "full-sphere")
    rho = _wavy(grid)
    doubled = RadialField(grid, 2.0 * rho.values)
    assert np.abs(prefactor_A(doubled) - prefactor_A(rho)).max() < 1e-13


def test_unit_normal_round_circle():
    grid = build_grid(1, 64, "full-sphere")
    for c in (1.0, 1.7):
        _, nu, _ = surface_samples(RadialField(grid, np.full(64, c)))
        assert np.abs(nu - grid.nodes).max() < 1e-14


def test_unit_normal_orthogonal_to_surface_tangent():
    grid = build_grid(1, 512, "full-sphere")
    rho = _wavy(grid, 0.1, 0.05)
    pts, nrm, _ = surface_samples(rho)
    tang = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    tang /= np.linalg.norm(tang, axis=1)[:, None]
    assert np.linalg.norm(nrm, axis=1).max() == pytest.approx(1.0, abs=1e-13)
    assert np.abs(np.sum(nrm * tang, axis=1)).max() < 1e-4


@pytest.mark.parametrize("n,c", [(1, 1.3), (2, 0.9)])
def test_jacobian_constant(n, c):
    # the area element of a sphere of radius c is c^n
    grid = build_grid(n, 33 if n == 1 else 12, "hemisphere")
    _, _, wq = surface_samples(RadialField(grid, np.full(grid.size, c)))
    assert np.abs(wq / grid.weights - c**n).max() < 1e-14


def test_surface_measure_matches_polyline_length():
    grid = build_grid(1, 512, "full-sphere")
    rho = RadialField(grid, 1 + 0.1 * np.cos(3 * grid.phi))
    pts, _, wq = surface_samples(rho)
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum()
    assert wq.sum() == pytest.approx(seg, rel=1e-5)


def test_surface_samples_take_one_gradient(monkeypatch):
    calls = []

    def counting(grid, values):
        calls.append(values)
        return gradient_values(grid, values)

    monkeypatch.setattr(flow, "gradient_values", counting)
    grid = build_grid(2, 13, "hemisphere")
    surface_samples(RadialField(grid, 1 + 0.1 * grid.nodes[:, -1]))
    assert len(calls) == 1


# ----------------------------------------------------------------------
# contact-angle condition
# ----------------------------------------------------------------------


@pytest.mark.parametrize("theta", [np.pi / 3, HALF_PI, 2 * np.pi / 3])
def test_bc_residual_flat_slope_field(theta):
    # d rho / d phi vanishes at both contact points, so the conormal part
    # drops out and the residual is just cos(theta).
    grid = build_grid(1, 65, "hemisphere")
    rho = RadialField(grid, 1 + 0.2 * np.cos(grid.phi))
    res = bc_residual(rho, theta)
    assert res.shape == (2,)
    assert np.abs(res - np.cos(theta)).max() < 1e-4


@pytest.mark.parametrize("theta", [np.pi / 3, HALF_PI, 2 * np.pi / 3])
def test_apply_bc_closed_form(theta):
    # With the one-sided second order stencil the zero-residual boundary
    # value solves a linear equation: rho_b = (4 rho_1 - rho_2) / (3 - 2 h cot).
    grid = build_grid(1, 65, "hemisphere")
    start = RadialField(grid, 1 + 0.05 * np.cos(2 * grid.phi))
    out = apply_bc(start, theta, tol=1e-10)
    cot = np.cos(theta) / np.sin(theta)
    denom = 3.0 - 2.0 * grid.h * cot
    v = out.values
    assert v[0] == pytest.approx((4 * v[1] - v[2]) / denom, rel=1e-8)
    assert v[-1] == pytest.approx((4 * v[-2] - v[-3]) / denom, rel=1e-8)
    assert np.array_equal(v[1:-1], start.values[1:-1])


@pytest.mark.parametrize("theta", [np.pi / 3, HALF_PI, 2 * np.pi / 3])
def test_apply_bc_reaches_tolerance_and_is_idempotent(theta):
    grid = build_grid(1, 65, "hemisphere")
    rho = RadialField(grid, 1 + 0.08 * np.cos(grid.phi) + 0.03 * np.cos(3 * grid.phi))
    out = apply_bc(rho, theta, BC_TOL)
    assert np.abs(bc_residual(out, theta)).max() <= 1e-6
    again = apply_bc(out, theta, BC_TOL)
    assert np.abs(again.values - out.values).max() < 1e-9


def test_apply_bc_full_circle_is_noop():
    grid = build_grid(1, 64, "full-sphere")
    rho = _wavy(grid)
    assert np.array_equal(apply_bc(rho, np.pi / 3, BC_TOL).values, rho.values)


def _reference_residual(grid, u, g, b, theta):
    W = np.sqrt(u[b] ** 2 + np.sum(g[b] * g[b]))
    return np.cos(theta) - reference_conormal_derivative(grid, u, b) / W


def _reference_gradient(grid, u):
    if grid.n == 1:
        return reference_gradient_circle(grid, u)
    return reference_gradient_sphere2(grid, u)


def reference_bc_residual(rho, theta):
    """Contact residual read off the full gradient, one node at a time."""
    grid, u = rho.grid, rho.values
    g = _reference_gradient(grid, u)
    return np.array(
        [_reference_residual(grid, u, g, b, theta) for b in np.flatnonzero(grid.boundary_mask)]
    )


def reference_apply_bc(rho, theta, tol=1e-6, max_iter=50, lams=None):
    """apply_bc with every trial value rebuilding the full gradient; the
    line-search factor of each accepted step is appended to lams."""
    grid = rho.grid
    bidx = np.flatnonzero(grid.boundary_mask)
    if bidx.size == 0:
        return rho
    vals = rho.values.copy()

    def residual_at(b, v):
        old = vals[b]
        vals[b] = v
        r = _reference_residual(grid, vals, _reference_gradient(grid, vals), b, theta)
        vals[b] = old
        return r

    for b in bidx:
        v = float(vals[b])
        r = residual_at(b, v)
        for _ in range(max_iter):
            if abs(r) <= tol:
                break
            dv = 1e-7 * max(1.0, abs(v))
            slope = (residual_at(b, v + dv) - r) / dv
            if slope == 0.0:
                raise NonconvergenceError(
                    f"flat contact-angle residual at boundary node {b}"
                )
            stepv = -r / slope
            lam = 1.0
            while lam > 1e-4:
                cand = v + lam * stepv
                if cand > 0.0:
                    rc = residual_at(b, cand)
                    if abs(rc) < abs(r):
                        v, r = cand, rc
                        if lams is not None:
                            lams.append(lam)
                        break
                lam *= 0.5
            else:
                raise NonconvergenceError(
                    f"contact-angle update stalled at boundary node {b}"
                )
        else:
            raise NonconvergenceError(
                f"contact angle not met at node {b} after {max_iter} iterations"
            )
        vals[b] = v
    return RadialField(grid, vals)


def _assert_matches_reference(rho, theta, lams=None):
    """apply_bc and bc_residual against the full-gradient references, bit for
    bit; returns the message of the NonconvergenceError both raise, if any."""
    assert np.array_equal(bc_residual(rho, theta), reference_bc_residual(rho, theta))
    try:
        expect = reference_apply_bc(rho, theta, lams=lams)
    except NonconvergenceError as exc:
        # The same failure, at the same node.
        with pytest.raises(NonconvergenceError) as raised:
            apply_bc(rho, theta, BC_TOL)
        assert str(raised.value) == str(exc)
        return str(exc)
    out = apply_bc(rho, theta, BC_TOL)
    assert np.array_equal(out.values, expect.values)
    assert np.array_equal(bc_residual(out, theta), reference_bc_residual(out, theta))
    return None


@pytest.mark.parametrize("n,resolution", [(1, 65), (1, 129), (2, 13), (2, 25)])
@pytest.mark.parametrize("field", ["height", "random"])
@pytest.mark.parametrize("theta", [np.pi / 3, HALF_PI, 2 * np.pi / 3])
def test_contact_residual_matches_full_gradient_reference(n, resolution, field, theta):
    grid = build_grid(n, resolution, "hemisphere")
    _assert_matches_reference(RadialField(grid, sample_fields(grid)[field]), theta)


def _hard_fields(grid):
    return {
        # the rim three times as high as the rest
        "rim": np.where(grid.boundary_mask, 3.0, 1.0),
        "rough": 1.0 + 0.3 * np.random.default_rng(3).uniform(-1.0, 1.0, grid.size),
        "height": sample_fields(grid)["height"],
    }


# Inputs off the easy path: None marks a projection whose line search
# accepts some lambda below 1, a string the error both raise.
@pytest.mark.parametrize(
    "n,resolution,field,theta,outcome",
    [
        (1, 129, "rim", HALF_PI, None),
        (1, 65, "rough", 2 * np.pi / 3, None),
        (1, 129, "rough", 3.0, None),
        (2, 13, "rim", 2 * np.pi / 3, None),
        (2, 25, "rough", 0.3, None),
        (2, 13, "rough", np.pi / 3, None),
        (2, 13, "height", 0.1, "flat contact-angle residual at boundary node 325"),
        (2, 13, "rim", 2.8, "contact-angle update stalled at boundary node 310"),
        (2, 25, "rough", np.pi / 3, "contact-angle update stalled at boundary node 1202"),
    ],
)
def test_contact_residual_matches_reference_off_the_easy_path(
    n, resolution, field, theta, outcome
):
    grid = build_grid(n, resolution, "hemisphere")
    lams = []
    raised = _assert_matches_reference(
        RadialField(grid, _hard_fields(grid)[field]), theta, lams
    )
    assert raised == outcome
    if outcome is None:
        assert min(lams) < 1.0


def test_apply_bc_sphere2_keeps_interior_values():
    grid = build_grid(2, 13, "hemisphere")
    rho = initial_field(grid, "height:0.05")
    out = apply_bc(rho, np.pi / 3, BC_TOL)
    interior = ~grid.boundary_mask
    assert np.array_equal(out.values[interior], rho.values[interior])
    assert not np.array_equal(out.values, rho.values)


def test_apply_bc_full_sphere2_is_noop():
    grid = build_grid(2, 13, "full-sphere")
    rho = RadialField(grid, sample_fields(grid)["random"])
    assert bc_residual(rho, np.pi / 3).shape == (0,)
    assert np.array_equal(apply_bc(rho, np.pi / 3, BC_TOL).values, rho.values)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: Gauss–Seidel leaves 2.8e-3")
def test_apply_bc_sphere2_reaches_tolerance():
    grid = build_grid(2, 13, "hemisphere")
    tol = 1e-6
    out = apply_bc(initial_field(grid, "height:0.05"), np.pi / 3, tol=tol)
    assert np.abs(bc_residual(out, np.pi / 3)).max() <= tol


# ----------------------------------------------------------------------
# assembled operator and speed
# ----------------------------------------------------------------------


def test_operator_matrix_full_circle_matches_pointwise_operator():
    cfg = _cfg(resolution=128)
    grid = build_grid(1, 128, "full-sphere")
    M = flow._get_context(cfg).M
    u = np.cos(2 * grid.phi) + 0.3 * np.sin(5 * grid.phi)
    direct = reference_frac_laplacian(u, grid, KernelParams(cfg.s))
    assert np.abs(M @ u - direct).max() < 1e-9 * np.abs(direct).max()


def test_context_cache_keeps_at_most_four_configs():
    from capflow.flow import _cached_context

    _cached_context.cache_clear()
    for res in (16, 17, 18, 19, 20):
        flow._get_context(_cfg(resolution=res))
    assert _cached_context.cache_info().currsize == 4
    # theta is not part of the key: a second angle reuses the context
    flow._get_context(_cfg(resolution=20, theta=1.0))
    assert _cached_context.cache_info().currsize == 4
    assert _cached_context.cache_info().hits >= 1


def test_context_keeps_at_most_lu_cache_factorisations(monkeypatch):
    from capflow.flow import LU_CACHE, _Context

    factored = []
    real = flow.lu_factor
    monkeypatch.setattr(flow, "lu_factor", lambda a: factored.append(a) or real(a))
    ctx = _Context(1, 0.5, 32, "full-sphere", 4)
    v = np.cos(3 * ctx.grid.phi)
    dts = [0.01 * 0.5**k for k in range(LU_CACHE + 3)]
    first = {dt: flow.lu_solve(ctx.factor(dt), v) for dt in dts}
    assert len(factored) == len(dts)
    # the cache holds the last LU_CACHE dt; a kept dt is not factorised
    # again and becomes the most recent, so the next new dt evicts the one
    # after it, which is then factorised again
    oldest, second = dts[-LU_CACHE], dts[-LU_CACHE + 1]
    for dt, again in ((oldest, 0), (dts[0], 1), (oldest, 0), (second, 1)):
        count = len(factored)
        assert np.array_equal(flow.lu_solve(ctx.factor(dt), v), first[dt])
        assert len(factored) == count + again


def test_context_arrays_are_read_only():
    # a write into a cached inverse would move every later step that reads it
    ctx = flow._get_context(
        _cfg(resolution=33, topology="hemisphere", theta=1.0, homotopy_order=4)
    )
    inverse = ctx.factor(1e-3)
    for arr in (ctx.M, ctx.hs_ref, ctx.index_map, ctx.rows, inverse):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1
        # nor through the array a view reads from (hs_ref is a view)
        assert arr.base is None or not arr.base.flags.writeable
    # the cache hands out the inverse itself, not a copy
    assert ctx.factor(1e-3) is inverse


@pytest.mark.parametrize(
    "n, resolution, topology",
    [(1, 129, "hemisphere"), (1, 256, "full-sphere"), (2, 13, "hemisphere")],
)
def test_context_inverse_is_bitwise_the_plain_inverse(n, resolution, topology):
    # the in-place I - dt M must round exactly as np.eye(m) - dt * M
    ctx = flow._Context(n, 0.5, resolution, topology, 4)
    eye = np.eye(ctx.M.shape[0])
    for dt in (2e-4, 1e-3, 0.19999999999999966e-3):
        expect = np.linalg.inv(eye - dt * ctx.M)
        assert ctx.factor(dt).tobytes() == expect.tobytes()


def test_operator_matrix_capillary_fold_matches_reflection():
    # A hemisphere row of the folded matrix must act like the full-circle
    # operator applied to the evenly reflected field.
    cfg = _cfg(resolution=33, topology="hemisphere")
    grid = build_grid(1, 33, "hemisphere")
    work, index_map = double_grid(grid)
    M_fold = flow._get_context(cfg).M
    M_full = frac_laplacian_matrix(work, KernelParams(cfg.s))
    rng = np.random.default_rng(7)
    for _ in range(3):
        u = 1 + 0.1 * rng.standard_normal(33)
        lhs = M_fold @ u
        rhs = (M_full @ u[index_map])[:33]
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_remainder_decomposition_reassembles_full_speed():
    cfg = _cfg(resolution=129)
    grid = build_grid(1, 129, "full-sphere")
    rho = _wavy(grid)
    rule = HomotopyRule(order=cfg.homotopy_order)
    A = prefactor_A(rho)
    ref = hs_reference(grid, KernelParams(cfg.s))
    r1 = remainder_R1(rho, KernelParams(cfg.s), rule)
    r2 = remainder_R2(rho, KernelParams(cfg.s), rule)
    expected = A * (
        flow._get_context(cfg).M @ rho.values - ref + r1 + r2 * (rho.values - 1.0)
    )
    got = assemble_rhs(rho, cfg)
    assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()


def test_assemble_rhs_constant_field_telescopes():
    cfg = _cfg(resolution=128)
    grid = build_grid(1, 128, "full-sphere")
    rhs1 = assemble_rhs(RadialField(grid, np.ones(128)), cfg)
    assert np.ptp(rhs1) < 1e-12 * np.abs(rhs1).max()
    # speed of the unit circle is -m/s, with m the kernel mass
    assert rhs1[0] == pytest.approx(-_mass(S) / S, rel=1e-3)
    for c in (0.8, 1.25):
        rhsc = assemble_rhs(RadialField(grid, np.full(128, c)), cfg)
        assert rhsc[0] / rhs1[0] == pytest.approx(c**-S, rel=1e-10)


def test_normal_velocity_sign_and_uniformity_on_circle():
    cfg = _cfg(resolution=128)
    grid = build_grid(1, 128, "full-sphere")
    nv = normal_velocity(RadialField(grid, np.ones(128)), cfg)
    assert np.all(nv < 0)
    assert np.ptp(nv) < 1e-12 * np.abs(nv).max()


def test_normal_velocity_against_divergence_oracle():
    # Independent route: the curvature from the closed-surface divergence
    # formula, sampled on the deformed surface, must match the assembled
    # radial speed divided by the metric prefactor.
    cfg = _cfg(resolution=257)
    grid = build_grid(1, 257, "full-sphere")
    rho = _wavy(grid)
    nv = normal_velocity(rho, cfg)
    pts, nrm, wq = surface_samples(rho)
    oracle = np.array(
        [
            divergence_oracle_Hs(pts, nrm, wq, i, KernelParams(S))
            for i in range(grid.size)
        ]
    )
    assert np.abs(nv + oracle).max() < 1e-3 * np.abs(oracle).max()


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------


def test_step_constant_field_matches_scalar_fixed_point():
    cfg = _cfg(resolution=129, picard_tol=1e-12)
    grid = build_grid(1, 129, "full-sphere")
    a = -assemble_rhs(RadialField(grid, np.ones(129)), cfg)[0]
    u = 1.0
    for _ in range(80):
        u = 1.0 - cfg.dt * a * u**-S
    state = step(FlowState(t=0.0, rho=RadialField(grid, np.ones(129)), dt=cfg.dt), cfg)
    assert np.ptp(state.rho.values) < 1e-10
    assert state.rho.values[0] == pytest.approx(u, rel=1e-7)
    assert state.t == cfg.dt and state.dt == cfg.dt
    assert state.picard_iters >= 2


def test_step_reports_boundary_residual():
    cfg = _cfg(resolution=65, topology="hemisphere", dt=2e-4)
    grid = build_grid(1, 65, "hemisphere")
    rho = apply_bc(initial_field(grid, "height:0.05"), cfg.theta, cfg.bc_tol)
    state = step(FlowState(t=0.0, rho=rho, dt=cfg.dt), cfg)
    assert state.bc_residual_max <= 1e-6


def test_step_nonconvergence_after_halvings():
    cfg = _cfg(dt=4.0)
    grid = build_grid(1, 64, "full-sphere")
    state = FlowState(t=0.0, rho=RadialField(grid, np.ones(64)), dt=4.0)
    with pytest.raises(NonconvergenceError, match="halvings"):
        step(state, cfg)


def test_step_retries_a_failed_boundary_projection_at_half_dt(monkeypatch):
    # the projection is part of every iterate, so its failure rejects the
    # try like any other and the step is retried at half the dt
    calls = []

    def failing_once(rho, theta, tol):
        calls.append(rho)
        if len(calls) == 1:
            raise NonconvergenceError("contact angle not met")
        return apply_bc(rho, theta, tol=tol)

    cfg = _cfg(resolution=65, topology="hemisphere", dt=2e-4, homotopy_order=4)
    grid = build_grid(1, 65, "hemisphere")
    rho = apply_bc(initial_field(grid, "height:0.05"), cfg.theta, cfg.bc_tol)
    monkeypatch.setattr(flow, "apply_bc", failing_once)
    state = step(FlowState(t=0.0, rho=rho, dt=cfg.dt), cfg)
    assert state.dt == cfg.dt / 2 and state.t == cfg.dt / 2
    assert len(calls) == 1 + state.picard_iters


def test_step_reports_pinched_tries_after_halvings(monkeypatch):
    monkeypatch.setattr(nonlocal_ops, "injectivity_ratio", lambda rho: 0.05)
    cfg = _cfg(homotopy_order=4)
    grid = build_grid(1, 64, "full-sphere")
    state = FlowState(t=0.0, rho=RadialField(grid, np.ones(64)), dt=cfg.dt)
    with pytest.raises(InjectivityError, match="after 5 dt halvings") as info:
        step(state, cfg)
    assert "0.05" in str(info.value)
    assert isinstance(info.value.__cause__, InjectivityError)


def test_step_extinction_on_deep_dive():
    cfg = _cfg(dt=2.5e-3, homotopy_order=4, refresh_remainders="per-step")
    grid = build_grid(1, 64, "full-sphere")
    state = FlowState(t=0.0, rho=RadialField(grid, np.full(64, 0.12)), dt=cfg.dt)
    with pytest.raises(ExtinctionError):
        step(state, cfg)


def test_step_injectivity_floor():
    cfg = _cfg(dt=1e-3, homotopy_order=4, refresh_remainders="per-step")
    grid = build_grid(1, 64, "full-sphere")
    state = FlowState(t=0.0, rho=RadialField(grid, np.full(64, 0.12)), dt=cfg.dt)
    with pytest.raises(InjectivityError):
        step(state, cfg)


@pytest.mark.parametrize("factor, error", [(0.999, ExtinctionError), (1.001, InjectivityError)])
def test_step_ends_a_run_at_the_extinction_threshold(monkeypatch, factor, error):
    # just above the threshold a constant field passes the extinction check
    # and meets the injectivity floor, as its ratio is its value
    level = factor * flow.EXTINCTION_THRESHOLD
    monkeypatch.setattr(
        flow, "_picard", lambda ctx, cfg, rho_old, dt: (np.full(rho_old.size, level), 1)
    )
    cfg = _cfg(homotopy_order=4)
    grid = build_grid(1, 64, "full-sphere")
    state = FlowState(t=0.0, rho=RadialField(grid, np.ones(64)), dt=cfg.dt)
    with pytest.raises(error) as info:
        step(state, cfg)
    assert type(info.value) is error


def test_full_circle_steps_meet_picard_tol():
    # with no boundary, each accepted step solves backward Euler to
    # picard_tol: G = u - rho_old - dt assemble_rhs(u) is bounded by it
    cfg = _cfg(resolution=128, dt=2e-3, initial="cosine:4:0.2", homotopy_order=8)
    grid = build_grid(1, 128, "full-sphere")
    state = FlowState(t=0.0, rho=initial_field(grid, cfg.initial), dt=cfg.dt)
    for _ in range(4):
        new = step(state, cfg)
        u = new.rho.values
        G = u - state.rho.values - new.dt * assemble_rhs(new.rho, cfg)
        assert new.dt == cfg.dt
        assert np.abs(G).max() <= cfg.picard_tol * max(1.0, np.abs(u).max())
        state = new


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 18: the last solve uses the boundary values from "
    "before the projection, so G reads ~1e-3 next to the contact nodes",
)
def test_hemisphere_steps_meet_picard_tol():
    # the interior rows of backward Euler on a theta = pi/3 hemisphere
    cfg = _cfg(
        theta=np.pi / 3,
        resolution=129,
        topology="hemisphere",
        dt=2e-4,
        initial="height:0.05",
        homotopy_order=8,
    )
    grid = build_grid(1, 129, "hemisphere")
    rho = apply_bc(initial_field(grid, cfg.initial), cfg.theta, cfg.bc_tol)
    state = FlowState(t=0.0, rho=rho, dt=cfg.dt)
    for _ in range(4):
        new = step(state, cfg)
        u = new.rho.values
        G = u - state.rho.values - new.dt * assemble_rhs(new.rho, cfg)
        assert new.dt == cfg.dt
        interior = np.abs(G[~grid.boundary_mask]).max()
        assert interior <= cfg.picard_tol * max(1.0, np.abs(u).max())
        state = new


def test_solver_satisfies_discrete_max_principle():
    from capflow.flow import _get_context

    fac = _get_context(_cfg(resolution=64)).factor(0.01)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(64)
        u = flow.lu_solve(fac, v)
        assert np.abs(u).max() <= np.abs(v).max() + 1e-12


def test_max_principle_check_reads_the_step_inverse(monkeypatch):
    [row] = validation.check_max_principle()
    assert row.passed and 0.0 <= row.measured <= row.tolerance == 1e-12
    # a step inverse scaled by 1.5 grows the sup norm by 1/2
    calls = []
    real = flow.lu_factor

    def scaled(a):
        calls.append(a.shape)
        return 1.5 * real(a)

    monkeypatch.setattr(flow, "lu_factor", scaled)
    # a new context factorises through the patch; the scaled inverse it
    # caches must not outlive this test
    flow._cached_context.cache_clear()
    try:
        [row] = validation.check_max_principle()
    finally:
        flow._cached_context.cache_clear()
    assert calls == [(256, 256)]
    assert not row.passed
    assert row.measured == pytest.approx(0.5, rel=1e-12)


def test_max_principle_check_reads_the_cached_inverse(monkeypatch):
    calls = []
    real = flow.lu_factor
    monkeypatch.setattr(flow, "lu_factor", lambda a: calls.append(a.shape) or real(a))
    flow._cached_context.cache_clear()
    [row] = validation.check_max_principle()
    assert calls == [(256, 256)]
    # the inverse is cached on the step's context now, so no new one is formed
    assert validation.check_max_principle() == [row]
    assert calls == [(256, 256)]


@pytest.mark.parametrize(
    "topology, resolution", [("full-sphere", 64), ("hemisphere", 33)]
)
def test_explicit_part_keeps_a_given_remainder_pair(topology, resolution, monkeypatch):
    cfg = _cfg(topology=topology, resolution=resolution, homotopy_order=4)
    ctx = flow._get_context(cfg)
    values = 1.0 + 0.05 * ctx.grid.nodes[:, -1]
    P, pair = flow._explicit_part(ctx, values)
    wf = ctx.to_work(values)
    r1 = remainder_R1(wf, ctx.params, ctx.rule, targets=ctx.rows)
    r2 = remainder_R2(wf, ctx.params, ctx.rule, targets=ctx.rows)
    assert np.array_equal(pair[0], r1) and np.array_equal(pair[1], r2)
    assert np.array_equal(
        assemble_rhs(RadialField(ctx.grid, values), cfg),
        ctx.M @ values - ctx.hs_ref + P,
    )
    # a frozen pair is used as given, and no remainder is formed
    monkeypatch.setattr(flow, "remainder_R1", None)
    monkeypatch.setattr(flow, "remainder_R2", None)
    P2, same = flow._explicit_part(ctx, values, pair)
    assert same is pair and np.array_equal(P2, P)


@pytest.mark.parametrize("refresh", ["per-iterate", "per-step"])
def test_picard_forms_remainders_at_its_refresh(refresh, monkeypatch):
    cfg = _cfg(homotopy_order=4, refresh_remainders=refresh, picard_tol=1e-12)
    formed = []
    r1 = flow.remainder_R1

    def counting(*args, **kw):
        formed.append(1)
        return r1(*args, **kw)

    monkeypatch.setattr(flow, "remainder_R1", counting)
    grid = build_grid(1, 64, "full-sphere")
    state = step(FlowState(t=0.0, rho=_wavy(grid), dt=cfg.dt), cfg)
    assert state.picard_iters >= 2
    assert len(formed) == (state.picard_iters if refresh == "per-iterate" else 1)


@pytest.mark.parametrize(
    "n, resolution, topology",
    [(1, 65, "hemisphere"), (1, 64, "full-sphere"), (2, 13, "hemisphere"), (2, 9, "full-sphere")],
)
def test_solver_residual_is_small(n, resolution, topology):
    from capflow.flow import _Context

    ctx = _Context(n, 0.5, resolution, topology, 4)
    # a hemisphere context folds its doubled grid, a full sphere none
    assert (ctx.work is not ctx.grid) == (topology == "hemisphere")
    rng = np.random.default_rng(11)
    b = rng.standard_normal(ctx.grid.size)
    for dt in (2e-4, 1e-2, 1.0):
        x = flow.lu_solve(ctx.factor(dt), b)
        res = x - dt * (ctx.M @ x) - b
        assert np.abs(res).max() <= 1e-12 * np.abs(b).max()


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------


def test_run_flow_shrinking_circle_tracks_closed_form():
    cfg = _cfg(
        resolution=128,
        dt=5e-4,
        t_end=20 * 5e-4,
        homotopy_order=4,
        refresh_remainders="per-step",
    )
    traj = run_flow(cfg)
    assert traj.status == "completed"
    rate = (1 + S) * _mass(S) / S
    for t, vals in traj.saved:
        R = (1.0 - rate * t) ** (1.0 / (1 + S))
        assert abs(vals.mean() - R) / R < 2e-3
    vols = [d["volume"] for d in traj.diagnostics]
    assert all(b < a for a, b in zip(vols, vols[1:]))


@pytest.mark.parametrize("theta", [np.pi / 3, 2 * np.pi / 3])
def test_run_flow_capillary_keeps_contact_angle(theta):
    cfg = FlowConfig(
        s=S,
        theta=theta,
        dt=2e-4,
        resolution=65,
        topology="hemisphere",
        t_end=10 * 2e-4,
        initial="height:0.05",
        homotopy_order=4,
        refresh_remainders="per-step",
    )
    traj = run_flow(cfg)
    assert traj.status == "completed"
    assert max(d["max_bc_residual"] for d in traj.diagnostics) <= 1e-6
    assert traj.saved[-1][1].min() > 0.5


def test_run_flow_hemisphere_matches_reflected_circle():
    # The capillary run at a right angle is the even reflection of a free
    # closed-curve run; advancing both must give the same surface.
    dt = 2e-4
    cfg_h = FlowConfig(
        s=S,
        theta=HALF_PI,
        dt=dt,
        resolution=65,
        topology="hemisphere",
        t_end=20 * dt,
        initial="height:0.05",
        homotopy_order=4,
        refresh_remainders="per-step",
    )
    traj_h = run_flow(cfg_h)
    assert traj_h.status == "completed"
    rho0 = apply_bc(initial_field(traj_h.grid, "height:0.05"), HALF_PI, cfg_h.bc_tol)
    cfg_f = _cfg(
        resolution=128, dt=dt, homotopy_order=4, refresh_remainders="per-step"
    )
    grid_f = build_grid(1, 128, "full-sphere")
    _, index_map = double_grid(traj_h.grid)
    state = FlowState(t=0.0, rho=RadialField(grid_f, rho0.values[index_map]), dt=dt)
    saved = dict((round(t / dt), v) for t, v in traj_h.saved)
    for k in range(20):
        state = step(state, cfg_f)
        half = saved[k + 1]
        err = np.abs(state.rho.values[:65] - half).max() / np.abs(half).max()
        assert err < 1e-3


def test_run_flow_right_angle_keeps_uniform_field():
    cfg = FlowConfig(
        s=S,
        theta=HALF_PI,
        dt=2e-4,
        resolution=65,
        topology="hemisphere",
        t_end=5 * 2e-4,
        homotopy_order=4,
    )
    traj = run_flow(cfg)
    assert traj.status == "completed"
    assert max(d["sup_dev"] for d in traj.diagnostics) < 1e-10


def test_run_flow_stops_at_injectivity_floor():
    cfg = _cfg(
        dt=5e-4,
        t_end=0.06,
        homotopy_order=4,
        refresh_remainders="per-step",
    )
    traj = run_flow(cfg)
    assert traj.status == "injectivity"
    assert traj.message != ""
    final_min = traj.saved[-1][1].min()
    assert 0.09 < final_min < 0.12


def test_run_flow_names_the_measured_ratio_of_a_pinched_step(monkeypatch):
    # the check of an accepted step raises through the one injectivity
    # guard, so the message names the ratio it measured
    monkeypatch.setattr(flow, "injectivity_ratio", lambda rho: 0.05)
    cfg = _cfg(t_end=2e-3, homotopy_order=4, refresh_remainders="per-step")
    traj = run_flow(cfg)
    assert traj.status == "injectivity"
    assert "0.05" in traj.message
    assert len(traj.diagnostics) == 1


def test_run_flow_saves_last_accepted_state_on_failure():
    cfg = _cfg(
        dt=5e-4,
        t_end=0.06,
        homotopy_order=4,
        refresh_remainders="per-step",
        save_every=7,
    )
    traj = run_flow(cfg)
    assert traj.status == "injectivity"
    assert traj.saved[-1][0] == traj.diagnostics[-1]["t"]


def test_run_flow_measures_frame_zero_bc_residual():
    cfg = FlowConfig(
        s=S,
        theta=np.pi / 3,
        dt=2e-4,
        resolution=33,
        topology="hemisphere",
        t_end=2e-4,
        initial="height:0.05",
        homotopy_order=2,
    )
    traj = run_flow(cfg)
    start = apply_bc(
        initial_field(build_grid(1, 33, "hemisphere"), cfg.initial),
        cfg.theta,
        tol=cfg.bc_tol,
    )
    expect = np.abs(bc_residual(start, cfg.theta)).max()
    assert expect > 0.0
    assert traj.diagnostics[0]["max_bc_residual"] == expect


def test_run_flow_save_every_still_records_last_frame():
    cfg = _cfg(resolution=64, dt=1e-3, t_end=7e-3, save_every=3, homotopy_order=4)
    traj = run_flow(cfg)
    assert traj.status == "completed"
    assert len(traj.diagnostics) == 8  # the starting state plus seven steps
    assert traj.saved[-1][0] == pytest.approx(traj.diagnostics[-1]["t"])
    assert len(traj.saved) < len(traj.diagnostics)


def test_trajectory_diagnostics_fields():
    cfg = _cfg(resolution=64, dt=1e-3, t_end=3e-3, homotopy_order=4)
    traj = run_flow(cfg)
    # the CSV writes exactly these keys, in this order
    for d in traj.diagnostics:
        assert tuple(d) == CSV_COLUMNS
    assert [d["t"] for d in traj.diagnostics] == pytest.approx(
        [0.0, 1e-3, 2e-3, 3e-3]
    )


# ----------------------------------------------------------------------
# configuration and initial data
# ----------------------------------------------------------------------


def test_initial_field_forms():
    grid = build_grid(1, 65, "hemisphere")
    assert np.all(initial_field(grid, "constant:0.9").values == 0.9)
    cos = initial_field(grid, "cosine:2:0.1")
    assert cos.values == pytest.approx(1 + 0.1 * np.cos(2 * grid.phi))
    ht = initial_field(grid, "height:0.05")
    assert ht.values == pytest.approx(1 + 0.05 * grid.nodes[:, -1])


def test_initial_field_rejects_unknown_form():
    grid = build_grid(1, 65, "hemisphere")
    with pytest.raises(ValueError, match="unknown initial data form"):
        initial_field(grid, "sawtooth:3")


def test_initial_field_cosine_needs_curve():
    grid = build_grid(2, 12, "hemisphere")
    with pytest.raises(ValueError, match="curve"):
        initial_field(grid, "cosine:2:0.1")


@pytest.mark.parametrize(
    "kw,key",
    [
        (dict(s=1.2), "s"),
        (dict(s=0.0), "s"),
        (dict(theta=0.0), "theta"),
        (dict(theta=np.pi), "theta"),
        (dict(dt=0.0), "dt"),
        (dict(resolution=4), "resolution"),
        (dict(topology="moebius"), "topology"),
        (dict(hs_ref_mode="auto"), "hs_ref_mode"),
        (dict(refresh_remainders="sometimes"), "refresh_remainders"),
        (dict(homotopy_order=0), "homotopy_order"),
        (dict(hs_ref_mode="half-ball"), "hs_ref_mode 'half-ball' was removed.*item 13"),
        (dict(homotopy_order=2.5), "homotopy_order must be an integer"),
        (dict(resolution=16.5), "resolution must be an integer"),
        (dict(n=True), "n must be an integer"),
        (dict(save_every=1.5), "save_every must be an integer"),
        (dict(max_picard=2.5), "max_picard must be an integer"),
    ],
)
def test_flow_config_rejects_bad_values(kw, key):
    with pytest.raises(ValueError, match=key):
        _cfg(**kw)


def test_flow_config_accepts_numpy_integers():
    cfg = _cfg(resolution=np.int64(64), n=np.int32(1), homotopy_order=np.int64(4))
    assert cfg == _cfg(resolution=64, n=1, homotopy_order=4)


def test_flow_config_default_horizon():
    cfg = _cfg(dt=2e-3)
    assert cfg.horizon == pytest.approx(2e-2)
    assert _cfg(dt=2e-3, t_end=0.5).horizon == 0.5
