import math

import numpy as np
import pytest
from scipy.integrate import quad

from capflow import (
    HomotopyRule,
    InjectivityError,
    KernelParams,
    RadialField,
    build_grid,
    divergence_oracle_Hs,
    double_grid,
    frac_laplacian,
    frac_laplacian_matrix,
    gradient_values,
    homotopy_derivative,
    hs_reference,
    injectivity_ratio,
    parametrized_Hs,
    remainder_R1,
    remainder_R2,
    riemann_zeta,
)
from capflow.flow import FlowConfig, normal_velocity

S = 0.5
PARAMS = KernelParams(s=S)


def circle_mass(s):
    return (
        2.0 ** (1.0 - s)
        * math.gamma(0.5 * (1.0 - s))
        * math.gamma(0.5)
        / math.gamma(1.0 - 0.5 * s)
    )


def fourier_symbol(k, s):
    """Eigenvalue of the curve operator on cos(k phi), by 1d quadrature."""
    f = lambda t: (1.0 - math.cos(k * t)) * (2.0 * math.sin(0.5 * t)) ** (-(2.0 + s))
    val, _ = quad(f, 0.0, math.pi, limit=200)
    return 4.0 * val


# ----------------------------------------------------------------------
# brute-force homotopy remainders, written from the defining integrals
# with explicit image points and norms (no shared kernel code)
# ----------------------------------------------------------------------


def _gl(order, lo, hi):
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _dphi(vals, h):
    d = np.empty_like(vals)
    d[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    d[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    d[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return d


def _corrected(f, weights, h, t, s):
    f = f.copy()
    f[t] = 0.0
    out = float(weights @ f)
    if 0 < t < f.size - 1:
        out -= riemann_zeta(s) * h * (f[t - 1] + f[t + 1])
    return out


def _dk_row(vals, nodes, t, xi, p):
    a = 1.0 + xi * (vals - 1.0)
    phi_pts = a[:, None] * nodes
    diff = phi_pts - phi_pts[t]
    dist = np.linalg.norm(diff, axis=1)
    dist[t] = 1.0
    moment = diff @ ((vals[t] - 1.0) * nodes[t])
    moment = np.sum(diff * ((vals - 1.0)[:, None] * nodes), axis=1) - moment
    row = (vals - 1.0) * dist ** (-p) - p * a * moment * dist ** (-(p + 2.0))
    row[t] = 0.0
    return row


def oracle_R1(grid, vals, t, s, order=12):
    p = 2.0 + s
    tn, tw = _gl(order, 0.0, 1.0)
    total = 0.0
    for tp, wt in zip(tn, tw):
        xn, xw = _gl(order, 0.0, tp)
        for xv, wx in zip(xn, xw):
            f = (vals - vals[t]) * _dk_row(vals, grid.nodes, t, xv, p)
            total += 2.0 * wt * wx * _corrected(f, grid.weights, grid.h, t, s)
    return total


def oracle_R2(grid, vals, t, s, order=12):
    p = 2.0 + s
    chord = np.linalg.norm(grid.nodes - grid.nodes[t], axis=1)
    chord[t] = 1.0
    mass = chord ** (-s)
    total = _corrected(mass, grid.weights, grid.h, t, s)
    grad = _dphi(vals, grid.h)
    tau = np.column_stack([-np.sin(grid.phi), np.cos(grid.phi)])
    ydotg = np.sum((grid.nodes - grid.nodes[t]) * tau, axis=1) * grad
    tn, tw = _gl(order, 0.0, 1.0)
    for tp, wt in zip(tn, tw):
        xn, xw = _gl(order, 0.0, tp)
        for xv, wx in zip(xn, xw):
            f = chord**2 * _dk_row(vals, grid.nodes, t, xv, p)
            total += wt * wx * _corrected(f, grid.weights, grid.h, t, s)
        a = 1.0 + tp * (vals - 1.0)
        phi_pts = a[:, None] * grid.nodes
        dist = np.linalg.norm(phi_pts - phi_pts[t], axis=1)
        dist[t] = 1.0
        f = ydotg * dist ** (-p)
        total += -2.0 * wt * tp * _corrected(f, grid.weights, grid.h, t, s)
    return total


# ----------------------------------------------------------------------
# fractional Laplacian by Taylor subtraction, an independent route to the
# matrix: the gradient moment is added back through a pair-summed first
# moment instead of cancelling inside the zero-row-sum diagonal
# ----------------------------------------------------------------------


def _first_moment(grid, wK):
    """PV first moment psi(x_i) = sum_j (y_j - x_i) wK[i, j], per node.

    On n = 1 grids the nodes equidistant in parameter from x_i are summed
    in pairs, so their diverging parts cancel before accumulation; the
    leftover nodes near a hemisphere end are added plainly.  n = 2 grids
    are summed plainly.
    """
    N = grid.size
    out = np.zeros((N, grid.nodes.shape[1]))
    for i in range(N):
        diff = grid.nodes - grid.nodes[i]
        if grid.n != 1:
            out[i] = (wK[i, :, None] * diff).sum(axis=0)
            continue
        if grid.topology == "full-sphere":
            kmax = (N - 1) // 2
            plus = (i + np.arange(1, kmax + 1)) % N
            minus = (i - np.arange(1, kmax + 1)) % N
            rest = np.asarray([(i + N // 2) % N]) if N % 2 == 0 else np.empty(0, int)
        else:
            kmax = min(i, N - 1 - i)
            plus = i + np.arange(1, kmax + 1)
            minus = i - np.arange(1, kmax + 1)
            rest = np.concatenate([np.arange(0, i - kmax), np.arange(i + kmax + 1, N)])
        paired = wK[i, plus, None] * diff[plus] + wK[i, minus, None] * diff[minus]
        out[i] = paired.sum(axis=0) + (wK[i, rest, None] * diff[rest]).sum(axis=0)
    return out


def reference_frac_laplacian(u, grid, params):
    """2 PV int (u(y) - u(x)) |y - x|^(-p) dH_y at every node.

    First-order Taylor subtraction makes the integrand absolutely
    convergent; the gradient moment is added back through `_first_moment`,
    and the lattice correction acts on the plain second difference at the
    two parameter neighbors of interior n = 1 nodes.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        K = np.sqrt(grid.chord2()) ** (-(grid.n + 1 + params.s))
    np.fill_diagonal(K, 0.0)
    g = gradient_values(grid, u)
    # g(x) . (y - x) = g(x) . y, since the gradient is tangent at x
    S = 2.0 * (u[None, :] - u[:, None] - g @ grid.nodes.T) * K
    np.fill_diagonal(S, 0.0)
    psi = _first_moment(grid, K * grid.weights[None, :])
    out = S @ grid.weights + 2.0 * np.sum(g * psi, axis=1)
    if grid.n == 1:
        # parameter neighbours: periodic on the full circle, and none at
        # the two hemisphere endpoints
        N = grid.size
        rows = np.arange(N) if grid.topology == "full-sphere" else np.arange(1, N - 1)
        corr = np.zeros(N)
        for idx in ((rows - 1) % N, (rows + 1) % N):
            corr[rows] += 2.0 * (u[idx] - u[rows]) * K[rows, idx]
        out -= riemann_zeta(params.s) * grid.h * corr
    return out


def hemisphere_field(grid, eps):
    return RadialField(grid, 1.0 + eps * np.cos(2.0 * grid.phi))


# ----------------------------------------------------------------------
# fractional Laplacian
# ----------------------------------------------------------------------


def test_frac_laplacian_kills_constants():
    grid = build_grid(1, 129, "hemisphere")
    out = frac_laplacian(np.full(grid.size, 2.3), grid, PARAMS)
    assert np.abs(out).max() == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_frac_laplacian_fourier_eigenfunctions(k):
    grid = build_grid(1, 512, "full-sphere")
    u = np.cos(k * grid.phi)
    out = frac_laplacian(u, grid, PARAMS)
    lam = fourier_symbol(k, S)
    assert np.abs(out + lam * u).max() < 1e-3 * lam


def test_frac_laplacian_stabilizes_under_refinement():
    vals = []
    for res, idx in [(129, 32), (257, 64), (513, 128)]:
        grid = build_grid(1, res, "hemisphere")
        u = np.cos(2.0 * grid.phi)
        vals.append(frac_laplacian(u, grid, PARAMS)[idx])
    assert abs(vals[2] - vals[1]) < 0.6 * abs(vals[1] - vals[0])
    assert abs(vals[1] - vals[0]) < 5e-3 * abs(vals[2])


def test_frac_laplacian_matrix_reproduces_operator():
    grid = build_grid(1, 129, "hemisphere")
    M = frac_laplacian_matrix(grid, PARAMS)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.size)
    ref = reference_frac_laplacian(u, grid, PARAMS)
    scale = np.abs(ref).max()
    assert np.abs(M @ u - ref).max() < 1e-9 * scale
    assert np.abs(frac_laplacian(u, grid, PARAMS) - ref).max() < 1e-9 * scale


@pytest.mark.parametrize(
    "n,resolution,topology",
    [(1, 128, "full-sphere"), (2, 13, "hemisphere"), (2, 13, "full-sphere")],
)
def test_frac_laplacian_matches_taylor_reference(n, resolution, topology):
    grid = build_grid(n, resolution, topology)
    params = KernelParams(s=S)
    rng = np.random.default_rng(5)
    for u in (1.0 + 0.05 * grid.nodes[:, -1], rng.standard_normal(grid.size)):
        ref = reference_frac_laplacian(u, grid, params)
        out = frac_laplacian(u, grid, params)
        assert np.abs(out - ref).max() < 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("topology", ["hemisphere", "full-sphere"])
def test_operators_read_surface_dimension_from_grid(topology):
    # KernelParams holds only s, so on an n = 2 grid every operator must
    # use the kernel exponent n + 1 + s = 3 + s and the mass exponent 1 + s
    grid = build_grid(2, 9, topology)
    params = KernelParams(S)
    u = 1.0 + 0.05 * grid.nodes[:, -1] + 0.1 * grid.nodes[:, 0] ** 2
    ref = reference_frac_laplacian(u, grid, params)
    out = frac_laplacian_matrix(grid, params) @ u
    assert np.abs(out - ref).max() < 1e-9 * np.abs(ref).max()
    with np.errstate(divide="ignore"):
        mass = np.sqrt(grid.chord2()) ** -(1.0 + S)
    np.fill_diagonal(mass, 0.0)
    free = mass @ grid.weights / S
    if topology == "full-sphere":
        assert hs_reference(grid, params) == pytest.approx(free, rel=1e-12)
        x = grid.size // 3
        oracle = divergence_oracle_Hs(grid.nodes, grid.nodes, grid.weights, x, params)
        assert oracle == pytest.approx(free[x], rel=1e-12)


def test_frac_laplacian_matrix_row_sums_and_signs():
    grid = build_grid(1, 65, "hemisphere")
    M = frac_laplacian_matrix(grid, PARAMS)
    assert np.abs(M.sum(axis=1)).max() < 1e-12 * np.abs(M).max()
    off = M - np.diag(np.diag(M))
    assert off.min() >= 0.0
    assert np.all(np.diag(M) < 0.0)


# ----------------------------------------------------------------------
# homotopy remainders
# ----------------------------------------------------------------------


def test_remainder_R1_vanishes_on_constants():
    grid = build_grid(1, 65, "hemisphere")
    rho = RadialField(grid, np.full(grid.size, 1.2))
    rule = HomotopyRule(order=6)
    out = remainder_R1(rho, PARAMS, rule)
    assert np.abs(out).max() == 0.0


def test_remainder_R1_matches_brute_force_refined():
    rule = HomotopyRule(order=8)
    grid = build_grid(1, 65, "hemisphere")
    rho = hemisphere_field(grid, 0.1)
    mine = remainder_R1(rho, PARAMS, rule)[16]

    fine = build_grid(1, 257, "hemisphere")
    vals = 1.0 + 0.1 * np.cos(2.0 * fine.phi)
    ref = oracle_R1(fine, vals, 64, S)
    assert mine == pytest.approx(ref, rel=2e-2)


def test_remainder_R1_quadratic_amplitude_scaling():
    grid = build_grid(1, 65, "hemisphere")
    rule = HomotopyRule(order=6)
    small = remainder_R1(hemisphere_field(grid, 0.01), PARAMS, rule)[16]
    double = remainder_R1(hemisphere_field(grid, 0.02), PARAMS, rule)[16]
    assert double / small == pytest.approx(4.0, rel=0.15)


def test_remainder_R2_on_round_circle_is_mass():
    grid = build_grid(1, 256, "full-sphere")
    rho = RadialField(grid, np.ones(grid.size))
    rule = HomotopyRule(order=4)
    out = remainder_R2(rho, PARAMS, rule)
    assert np.abs(out - circle_mass(S)).max() < 1e-4 * circle_mass(S)


def test_remainder_R2_hemisphere_apex_chord_integral():
    grid = build_grid(1, 257, "hemisphere")
    rho = RadialField(grid, np.ones(grid.size))
    rule = HomotopyRule(order=4)
    apex = (grid.size - 1) // 2
    out = remainder_R2(rho, PARAMS, rule)[apex]
    f = lambda t: (2.0 * math.sin(0.5 * abs(t - 0.5 * math.pi))) ** (-S)
    ref = quad(f, 0.0, math.pi, points=[0.5 * math.pi], limit=200)[0]
    assert out == pytest.approx(ref, rel=1e-4)


def test_remainder_R2_matches_brute_force_refined():
    rule = HomotopyRule(order=8)
    grid = build_grid(1, 65, "hemisphere")
    rho = hemisphere_field(grid, 0.1)
    mine = remainder_R2(rho, PARAMS, rule)[16]

    fine = build_grid(1, 257, "hemisphere")
    vals = 1.0 + 0.1 * np.cos(2.0 * fine.phi)
    ref = oracle_R2(fine, vals, 64, S)
    assert mine == pytest.approx(ref, rel=2e-2)


# ----------------------------------------------------------------------
# homotopy derivative and the reassembly identity
# ----------------------------------------------------------------------


def test_homotopy_derivative_vanishes_on_unit_sphere():
    grid = build_grid(1, 128, "full-sphere")
    rho = RadialField(grid, np.ones(grid.size))
    out = homotopy_derivative([0.6], rho, PARAMS)
    assert np.abs(out).max() == 0.0


@pytest.mark.parametrize("tp", [0.0, 0.4, 1.0])
def test_homotopy_derivative_dilation_closed_form(tp):
    # for rho = c the homotopy surface is a sphere of radius 1 + tp*(c-1),
    # whose curvature is known, so the t'-derivative has a closed form
    grid = build_grid(1, 512, "full-sphere")
    c = 1.3
    rho = RadialField(grid, np.full(grid.size, c))
    out = homotopy_derivative([tp], rho, PARAMS)[0]
    radius = 1.0 + tp * (c - 1.0)
    expect = circle_mass(S) * (c - 1.0) * radius ** (-(1.0 + S))
    assert np.abs(out - expect).max() < 2e-4 * abs(expect)


@pytest.mark.parametrize("topology,res", [("hemisphere", 129), ("full-sphere", 128)])
def test_curvature_reassembles_from_homotopy_derivative(topology, res):
    # parametrized curvature + reference must equal the t'-integral of the
    # homotopy derivative; the discrete sums collapse term by term, so the
    # residual sits at the quadrature-rule floor
    grid = build_grid(1, res, topology)
    rho = RadialField(grid, 1.0 + 0.05 * np.cos(2.0 * grid.phi))
    rule = HomotopyRule(order=8)
    ref = np.zeros(grid.size)
    lhs = parametrized_Hs(rho, PARAMS, rule, ref)
    tn, tw = rule.tprime()
    rhs = np.zeros(grid.size)
    for wt, d in zip(tw, homotopy_derivative(tn, rho, PARAMS)):
        rhs += wt * d
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() < 1e-8 * scale


def test_parametrized_Hs_reference_shifts_linearly():
    grid = build_grid(1, 64, "full-sphere")
    rho = RadialField(grid, 1.0 + 0.05 * np.cos(2.0 * grid.phi))
    rule = HomotopyRule(order=4)
    a = parametrized_Hs(rho, PARAMS, rule, np.zeros(grid.size))
    b = parametrized_Hs(rho, PARAMS, rule, np.full(grid.size, 3.0))
    assert np.allclose(a - b, 3.0, rtol=0, atol=1e-12)


def test_parametrized_Hs_round_sphere_dilation():
    # assembled curvature of the dilated sphere rho = c is -(m/s) c^(-s)
    grid = build_grid(1, 256, "full-sphere")
    c = 1.25
    rho = RadialField(grid, np.full(grid.size, c))
    rule = HomotopyRule(order=8)
    ref = hs_reference(grid, PARAMS)
    out = parametrized_Hs(rho, PARAMS, rule, ref)
    expect = -circle_mass(S) / S * c ** (-S)
    assert np.abs(out - expect).max() < 2e-4 * abs(expect)


# ----------------------------------------------------------------------
# divergence-theorem oracle and references
# ----------------------------------------------------------------------


def test_divergence_oracle_unit_circle():
    grid = build_grid(1, 512, "full-sphere")
    val = divergence_oracle_Hs(
        grid.nodes, grid.nodes, grid.weights, 17, PARAMS
    )
    assert val == pytest.approx(circle_mass(S) / S, rel=1e-5)


@pytest.mark.parametrize("n, resolution", [(1, 64), (2, 9)])
def test_divergence_oracle_corrects_exactly_the_planar_curves(n, resolution):
    # planar points are an ordered curve and take the two-neighbour lattice
    # correction; surface points take the plain punctured sum
    grid = build_grid(n, resolution, "full-sphere")
    x = grid.size // 3
    diff = grid.nodes - grid.nodes[x]
    dist = np.linalg.norm(diff, axis=1)
    dist[x] = 1.0
    f = (2.0 / S) * np.sum(diff * grid.nodes, axis=1) * dist ** (-(n + 1 + S))
    f[x] = 0.0
    expect = grid.weights @ f
    if n == 1:
        near = [x - 1, x + 1]
        expect -= riemann_zeta(S) * (grid.weights[near] @ f[near])
    got = divergence_oracle_Hs(grid.nodes, grid.nodes, grid.weights, x, PARAMS)
    assert got == pytest.approx(expect, rel=1e-14)


def test_divergence_oracle_dilation_equivariance():
    grid = build_grid(1, 256, "full-sphere")
    base = divergence_oracle_Hs(grid.nodes, grid.nodes, grid.weights, 5, PARAMS)
    R = 1.9
    scaled = divergence_oracle_Hs(
        R * grid.nodes, grid.nodes, R * grid.weights, 5, PARAMS
    )
    assert scaled == pytest.approx(base * R ** (-S), rel=1e-12)


def _ellipse_samples(a, b, count):
    theta = np.arange(count) * (2.0 * math.pi / count)
    nodes = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    norms = np.column_stack([b * np.cos(theta), a * np.sin(theta)])
    norms /= np.linalg.norm(norms, axis=1)[:, None]
    closed = np.vstack([nodes[-1], nodes, nodes[0]])
    weights = 0.5 * np.linalg.norm(closed[2:] - closed[:-2], axis=1)
    return nodes, norms, weights


def test_divergence_oracle_ellipse_refinement():
    coarse = divergence_oracle_Hs(*_ellipse_samples(1.0, 0.6, 256), 0, PARAMS)
    fine = divergence_oracle_Hs(*_ellipse_samples(1.0, 0.6, 1024), 0, PARAMS)
    assert coarse == pytest.approx(fine, rel=1e-3)
    # the tip of the long axis bends more than a unit circle
    assert coarse > circle_mass(S) / S


def test_divergence_oracle_unit_two_sphere():
    params = KernelParams(s=S)
    exact = math.pi * 2.0 ** (2.0 - S) / (1.0 - S) / S
    vals = []
    for res in (16, 32):
        grid = build_grid(2, res, "full-sphere")
        t = grid.size // 2
        vals.append(
            divergence_oracle_Hs(grid.nodes, grid.nodes, grid.weights, t, params)
        )
    # without a lattice correction the punctured rule converges like
    # h^(1-s); at these resolutions that is a 10-20 percent defect
    assert vals[0] == pytest.approx(exact, rel=0.25)
    assert abs(vals[1] - exact) < 0.8 * abs(vals[0] - exact)
    assert abs(vals[1] - exact) < abs(vals[0] - exact)


def test_hs_reference_full_sphere_constant():
    grid = build_grid(1, 256, "full-sphere")
    ref = hs_reference(grid, PARAMS)
    assert ref.shape == (grid.size,)
    assert np.ptp(ref) < 1e-9
    assert ref[0] == pytest.approx(circle_mass(S) / S, rel=1e-4)


def _mirrored_curve(a, count=16384):
    """Nodes, outward normals and weights of the closed curve
    rho(phi) (cos phi, sin phi), rho = 1 + a cos 2 phi, on `count` uniform
    nodes in order around the loop, node j at phi = 2 pi j / count.  The
    field is even about the contact plane with zero conormal slope, so the
    curve is the smooth mirror image of the capillary curve it extends."""
    phi = 2.0 * math.pi * np.arange(count) / count
    rho, drho = 1.0 + a * np.cos(2.0 * phi), -2.0 * a * np.sin(2.0 * phi)
    e_r = np.column_stack([np.cos(phi), np.sin(phi)])
    e_phi = np.column_stack([-np.sin(phi), np.cos(phi)])
    # the outward normal times the arc-length element, per unit phi
    tilt = rho[:, None] * e_r - drho[:, None] * e_phi
    speed = np.linalg.norm(tilt, axis=1)
    return rho[:, None] * e_r, tilt / speed[:, None], speed * (2.0 * math.pi / count)


def test_reflected_operator_matches_set_oracle_off_the_unit_field():
    """-normal_velocity of a capillary curve (the folded hemisphere
    operator) against the divergence identity on its mirrored closed curve,
    at phi = 0 (the contact node), pi/8, pi/4 and pi/2."""
    a, count = 0.05, 16384
    curve = _mirrored_curve(a, count)
    gaps = []
    for resolution in (129, 257):
        grid = build_grid(1, resolution, "hemisphere")
        cfg = FlowConfig(
            s=S, theta=0.5 * math.pi, dt=1e-3, resolution=resolution, topology="hemisphere"
        )
        rho = RadialField(grid, 1.0 + a * np.cos(2.0 * grid.phi))
        curvature = -normal_velocity(rho, cfg)
        step = count // (2 * (resolution - 1))
        rows = [0, (resolution - 1) // 8, (resolution - 1) // 4, (resolution - 1) // 2]
        oracle = np.array([divergence_oracle_Hs(*curve, k * step, PARAMS) for k in rows])
        gaps.append(np.abs(curvature[rows] - oracle) / np.abs(oracle))
    assert np.all(gaps[0] <= 5e-6)
    assert np.all(gaps[1] <= gaps[0] / 3.0)


def test_hs_reference_mode_mismatch_rejected():
    hemi = build_grid(1, 65, "hemisphere")
    with pytest.raises(ValueError, match="full-sphere grid"):
        hs_reference(hemi, PARAMS)


# ----------------------------------------------------------------------
# injectivity guard
# ----------------------------------------------------------------------


def test_injectivity_guard_trips_on_pinched_map():
    grid = build_grid(1, 65, "hemisphere")
    rho = RadialField(grid, 0.05 + 0.95 * np.sin(grid.phi))
    assert injectivity_ratio(rho) < 0.1
    rule = HomotopyRule(order=4)
    with pytest.raises(InjectivityError):
        remainder_R1(rho, PARAMS, rule)
    with pytest.raises(InjectivityError):
        remainder_R2(rho, PARAMS, rule)
    with pytest.raises(InjectivityError):
        homotopy_derivative([0.5], rho, PARAMS)


def test_injectivity_ratio_near_one_for_mild_fields():
    grid = build_grid(1, 65, "hemisphere")
    rho = hemisphere_field(grid, 0.05)
    assert 0.8 < injectivity_ratio(rho) <= 1.2


@pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
def test_remainders_converged_in_quadrature_order(n):
    if n == 1:
        grid = build_grid(1, 128, "full-sphere")
        rho = RadialField(grid, 1.0 + 0.1 * np.cos(2 * grid.phi))
        params, order, rows, tol = PARAMS, 8, [17], 1e-4
    else:
        grid, _ = double_grid(build_grid(2, 13, "hemisphere"))
        x, z = grid.nodes[:, 0], grid.nodes[:, 2]
        rho = RadialField(grid, 1.0 + 0.1 * z**2 + 0.05 * x)
        params, order, rows, tol = KernelParams(s=S), 4, slice(None), 1e-9
    for fn in (remainder_R1, remainder_R2):
        coarse = fn(rho, params, HomotopyRule(order=order))
        fine = fn(rho, params, HomotopyRule(order=16))
        err = np.abs(fine[rows] - coarse[rows])
        assert np.all(err <= tol * np.maximum(1.0, np.abs(fine[rows])))
        # a single target row is bitwise its row of the all-targets result
        for i in (0, 17, grid.size - 1):
            single = fn(rho, params, HomotopyRule(order=order), targets=[i])
            assert single.shape == (1,) and single[0] == coarse[i]
