import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from capflow import (
    HomotopyRule,
    KernelParams,
    RadialField,
    build_grid,
    double_grid,
    frac_laplacian_matrix,
    gradient_values,
    homotopy_derivative,
    hs_reference,
    injectivity_ratio,
    remainder_R1,
    remainder_R2,
    riemann_zeta,
)
from capflow import flow, nonlocal_ops
from capflow.nonlocal_ops import (
    InjectivityError,
    _blocks,
    _chord_kernel,
    _corrected_sum,
    _lattice_stencil,
)


def corrected_sum(F, grid, targets, params):
    """`_corrected_sum` of rows over the targets' own lattice stencil."""
    return _corrected_sum(F, grid, _lattice_stencil(grid, targets), params)


def circle_mass(s):
    """Analytic int over the unit circle of |y-x|^(-s) dH(y)."""
    return (
        2.0 ** (1.0 - s)
        * math.gamma(0.5 * (1.0 - s))
        * math.gamma(0.5)
        / math.gamma(1.0 - 0.5 * s)
    )


# ----------------------------------------------------------------------
# whole-matrix remainder routes, kept as references for the shared blocked
# pass in nonlocal_ops: the by-parts form it computes, and the derivative
# form it replaced as a second oracle
# ----------------------------------------------------------------------


def _image_dist2(r, grid, xi, targets):
    """Squared distances |Phi_xi(y_j) - Phi_xi(x_t)|^2 for target rows, in
    the chord form (a_x - a_y)^2 + a_x a_y |y - x|^2: the dot form
    a_x^2 + a_y^2 - 2 a_x a_y (x . y) loses about eps / |y - x|^2 of it
    near the diagonal."""
    a = 1.0 + xi * (r - 1.0)
    at = a[targets, None]
    return (at - a) ** 2 + (at * a) * grid.chord2(targets)


def _zero_target_cols(F, targets):
    F[np.arange(targets.size), targets] = 0.0
    return F


def _kernel_and_dxi(r, grid, params, xi, targets):
    """K_xi and d/dxi of [1 + xi*(rho(y)-1)]^n * K_xi(y, x), target rows.

    One fractional power per call: D2^(-(p+2)/2) is formed as K / D2.  The
    target columns of both matrices are zero.
    """
    n = grid.n
    p = n + 1 + params.s
    a = 1.0 + xi * (r - 1.0)
    at = a[targets]
    rm = r - 1.0
    rt = rm[targets]
    D2 = _image_dist2(r, grid, xi, targets)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = D2 ** (-0.5 * p)
        Kp2 = np.divide(K, D2, out=D2)
    _zero_target_cols(K, targets)
    _zero_target_cols(Kp2, targets)
    # (Phi(y) - Phi(x)) . ((rho(y)-1) y - (rho(x)-1) x), in the chord form
    # (a_y - a_x)(u_y - u_x) + (a_y u_x + a_x u_y) |y - x|^2 / 2, which, like
    # D2, keeps its digits near the diagonal
    W = (a[None, :] - at[:, None]) * (rm[None, :] - rt[:, None]) + (
        a[None, :] * rt[:, None] + at[:, None] * rm[None, :]
    ) * (0.5 * grid.chord2(targets))
    Bn1 = a[None, :] ** (n - 1)
    dK = n * rm[None, :] * Bn1 * K - p * (Bn1 * a[None, :]) * W * Kp2
    return K, dK


def _gradient_coupling(rho):
    """(y - x) . grad rho(y) for every row x and column y."""
    g = gradient_values(rho.grid, rho.values)
    return -(rho.grid.nodes @ g.T)


def derivative_remainder_R1(rho, params, rule):
    """R1 at every node in the derivative form: the (1 - xi)-weighted rule
    over the kernel xi-derivative, one corrected sum per rule node."""
    grid, r = rho.grid, rho.values
    tgt = np.arange(grid.size)
    dr = r[None, :] - r[tgt, None]
    out = np.zeros(tgt.size)
    for xv, wv in zip(*rule.tprime()):
        _, dK = _kernel_and_dxi(r, grid, params, xv, tgt)
        out += 2.0 * wv * (1.0 - xv) * corrected_sum(dr * dK, grid, tgt, params)
    return out


def derivative_remainder_R2(rho, params, rule):
    """R2 at every node in the derivative form: the chord mass, the
    (1 - xi)-weighted |y - x|^2 moment of the kernel xi-derivative and the
    gradient coupling, two corrected sums per rule node."""
    grid, r = rho.grid, rho.values
    tgt = np.arange(grid.size)
    chord2 = grid.chord2(tgt)
    mass = _chord_kernel(grid, grid.n - 1 + params.s, tgt)
    out = corrected_sum(mass, grid, tgt, params)
    ydotg = _gradient_coupling(rho)
    for xv, wv in zip(*rule.tprime()):
        K, dK = _kernel_and_dxi(r, grid, params, xv, tgt)
        out += wv * (1.0 - xv) * corrected_sum(chord2 * dK, grid, tgt, params)
        B = 1.0 + xv * (r - 1.0)
        F = ydotg * B[None, :] ** (grid.n - 1) * K
        out += -2.0 * wv * xv * corrected_sum(F, grid, tgt, params)
    return out


def _by_parts_integrals(rho, params, rule):
    """int_0^1 F dxi - K0 with F = B^n K_xi, which integration by parts
    makes equal to int_0^1 (1 - xi) F' dxi, and int_0^1 xi B^(n-1) K_xi
    dxi, as whole matrices over the rule nodes."""
    grid, r = rho.grid, rho.values
    tgt = np.arange(grid.size)
    p = grid.n + 1 + params.s
    dF = -_chord_kernel(grid, p, tgt)
    S3 = np.zeros_like(dF)
    for xv, wv in zip(*rule.tprime()):
        B = (1.0 + xv * (r - 1.0))[None, :]
        D2 = _image_dist2(r, grid, xv, tgt)
        with np.errstate(divide="ignore"):
            K = _zero_target_cols(D2 ** (-0.5 * p), tgt)
        dF += wv * B**grid.n * K
        S3 += wv * xv * B ** (grid.n - 1) * K
    return dF, S3


def by_parts_remainder_R1(rho, params, rule):
    """R1 at every node, with the xi-integral of the kernel derivative
    integrated by parts."""
    grid, r = rho.grid, rho.values
    tgt = np.arange(grid.size)
    dF, _ = _by_parts_integrals(rho, params, rule)
    return 2.0 * corrected_sum((r[None, :] - r[:, None]) * dF, grid, tgt, params)


def by_parts_remainder_R2(rho, params, rule):
    """R2 at every node: the chord mass, the |y - x|^2 moment of the
    integrated-by-parts kernel derivative and the gradient coupling, each
    summed on its own, so the mass is not cancelled by hand."""
    grid = rho.grid
    tgt = np.arange(grid.size)
    dF, S3 = _by_parts_integrals(rho, params, rule)
    mass = corrected_sum(_chord_kernel(grid, grid.n - 1 + params.s, tgt), grid, tgt, params)
    return (
        mass
        + corrected_sum(grid.chord2() * dF, grid, tgt, params)
        - 2.0 * corrected_sum(_gradient_coupling(rho) * S3, grid, tgt, params)
    )


def kernel_dxi(xi, rho, y, x, params):
    """Row x, column y of the kernel xi-derivative matrix."""
    _, dK = _kernel_and_dxi(rho.values, rho.grid, params, xi, np.asarray([x]))
    return float(dK[0, y])


# ----------------------------------------------------------------------
# the full-matrix guard and curvature derivative, kept as a reference for
# the blocked routes in nonlocal_ops
# ----------------------------------------------------------------------


def reference_injectivity_ratio(rho):
    """min |Phi(y)-Phi(x)| / |y-x| from the full image-distance matrix."""
    grid = rho.grid
    D2 = _image_dist2(rho.values, grid, 1.0, np.arange(grid.size))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio2 = D2 / grid.chord2()
    np.fill_diagonal(ratio2, np.inf)
    return float(np.sqrt(np.nanmin(ratio2)))


def reference_homotopy_derivative(tprime, rho, params):
    """Minus the t'-derivative of curvature from full N x N matrices."""
    grid, r = rho.grid, rho.values
    tgt = np.arange(grid.size)
    g = gradient_values(grid, r)
    rt = r - 1.0
    B = 1.0 + tprime * rt
    with np.errstate(divide="ignore"):
        K = _image_dist2(r, grid, tprime, tgt) ** (-0.5 * (grid.n + 1 + params.s))
    _zero_target_cols(K, tgt)
    dr = r[None, :] - r[:, None]
    one_minus = 0.5 * grid.chord2()
    xdotg = grid.nodes @ g.T
    Bn1 = B[None, :] ** (grid.n - 1)
    F = 2.0 * K * (
        Bn1 * B[None, :] * (dr + rt[:, None] * one_minus)
        + tprime * rt[:, None] * xdotg * Bn1
    )
    return corrected_sum(F, grid, tgt, params)


def kernel_at(xi, rho, y, x, params):
    """The kernel at one node pair, from the chord form of the image
    distance: a test-side formula, independent of the homotopy walk."""
    D2 = _image_dist2(rho.values, rho.grid, xi, np.array([x]))[0, y]
    return D2 ** (-0.5 * (rho.grid.n + 1 + params.s))


def walk_kernel(xi, rho, params):
    """The N x N kernel K_xi of the homotopy walk, row x and column y, with
    the rows' own columns zero."""
    size = rho.grid.size
    K_all = np.empty((size, size))
    _, blocks = nonlocal_ops._homotopy_blocks(rho, params, np.arange(size), 1)
    for sl, *_, kernel, bufs in blocks:
        K_all[sl] = kernel([xi], bufs[2:])[0]
    return K_all


def bumpy_field(grid, eps=0.2):
    vals = 1.0 + eps * np.cos(2.0 * grid.phi) + 0.5 * eps * np.sin(grid.phi)
    return RadialField(grid, vals)


def test_zeta_at_two():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)


def test_zeta_at_half():
    assert riemann_zeta(0.5) == pytest.approx(-1.4603545088095868, rel=1e-12)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9, 1.5, 2.0, 3.0])
def test_zeta_against_mpmath(s):
    mpmath = pytest.importorskip("mpmath")
    assert riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)


def test_zeta_pole_rejected():
    with pytest.raises(ValueError):
        riemann_zeta(1.0)


def test_homotopy_rule_weight_sums():
    rule = HomotopyRule(order=8)
    tn, wt = rule.tprime()
    assert wt.sum() == pytest.approx(1.0, abs=1e-14)
    assert tn.min() > 0.0 and tn.max() < 1.0
    # area of the triangle 0 <= xi <= t' <= 1 under the (1 - xi) weight
    assert (wt @ (1.0 - tn)) == pytest.approx(0.5, rel=1e-13)


def test_homotopy_rule_integrates_polynomials():
    order = 4
    rule = HomotopyRule(order=order)
    tn, tw = rule.tprime()
    assert (tw @ tn**5) == pytest.approx(1.0 / 6.0, rel=1e-13)
    # int_0^1 int_0^t' xi^m dxi dt' = int_0^1 (1 - xi) xi^m dxi
    for m in range(2 * order - 1):
        expect = 1.0 / ((m + 1) * (m + 2))
        assert (tw @ ((1.0 - tn) * tn**m)) == pytest.approx(expect, rel=1e-13)


def test_homotopy_rule_compares_and_hashes_by_order():
    assert HomotopyRule(order=4) == HomotopyRule(order=4)
    assert hash(HomotopyRule(order=4)) == hash(HomotopyRule(order=4))
    assert HomotopyRule(order=4) != HomotopyRule(order=8)
    assert len({HomotopyRule(order=4), HomotopyRule(order=4), HomotopyRule(order=8)}) == 2


def test_homotopy_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        HomotopyRule(order=0)


def test_kernel_on_round_sphere_is_chord_power():
    grid = build_grid(1, 64, "full-sphere")
    rho = RadialField(grid, np.ones(grid.size))
    params = KernelParams(s=0.5)
    y, x = np.array([3, 0, 10]), np.array([40, 1, 33])
    expect = np.sqrt(grid.chord2()[y, x]) ** (-(grid.n + 1 + params.s))
    assert walk_kernel(0.7, rho, params)[x, y] == pytest.approx(expect, rel=1e-14)


def test_kernel_scaling_on_dilated_sphere():
    grid = build_grid(1, 64, "full-sphere")
    c = 1.7
    rho = RadialField(grid, np.full(grid.size, c))
    params = KernelParams(s=0.3)
    expect = (c * np.sqrt(grid.chord2()[5, 20])) ** (-(grid.n + 1 + params.s))
    assert walk_kernel(1.0, rho, params)[20, 5] == pytest.approx(expect, rel=1e-13)


def test_kernel_is_symmetric_in_the_pair():
    grid = build_grid(1, 65, "hemisphere")
    rho = bumpy_field(grid)
    params = KernelParams(s=0.5)
    K = walk_kernel(0.4, rho, params)
    assert np.all(np.diag(K) == 0.0)
    np.testing.assert_allclose(K, K.T, rtol=1e-14, atol=0.0)


def test_walk_kernel_matches_pairwise_formula():
    # 200 random off-diagonal pairs on a curve and on a surface
    rng = np.random.default_rng(3)
    params = KernelParams(s=0.5)
    sphere = build_grid(2, 9, "full-sphere")
    waves = 1.0 + 0.1 * sphere.nodes[:, 0] ** 2 + 0.05 * sphere.nodes[:, 2]
    for rho in (bumpy_field(build_grid(1, 65, "hemisphere")), RadialField(sphere, waves)):
        size = rho.grid.size
        x = rng.integers(0, size, 200)
        y = (x + rng.integers(1, size, 200)) % size
        for xi in (0.15, 0.6, 1.0):
            K = walk_kernel(xi, rho, params)
            for k in range(200):
                expect = kernel_at(xi, rho, y[k], x[k], params)
                assert K[x[k], y[k]] == pytest.approx(expect, rel=1e-13)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(s=0.0)
    with pytest.raises(ValueError):
        KernelParams(s=1.0)


@pytest.mark.parametrize("n,resolution", [(1, 65), (2, 12)])
@pytest.mark.parametrize("pair", [(3, 17), (40, 9)])
def test_kernel_dxi_matches_finite_differences(n, resolution, pair):
    topology = "hemisphere" if n == 1 else "full-sphere"
    grid = build_grid(n, resolution, topology)
    rng = np.random.default_rng(7)
    vals = 1.0 + 0.25 * np.sin(3.0 * grid.nodes[:, 0]) + 0.05 * rng.random(grid.size)
    rho = RadialField(grid, vals)
    params = KernelParams(s=0.45)
    y, x = pair
    xi0, h = 0.37, 1e-5

    def bk(xi):
        b = 1.0 + xi * (vals[y] - 1.0)
        return b**n * kernel_at(xi, rho, y, x, params)

    fd = (bk(xi0 + h) - bk(xi0 - h)) / (2.0 * h)
    assert kernel_dxi(xi0, rho, y, x, params) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_dxi_constant_field_closed_form(n):
    topology = "full-sphere"
    grid = build_grid(n, 64 if n == 1 else 12, topology)
    c = 1.4
    rho = RadialField(grid, np.full(grid.size, c))
    params = KernelParams(s=0.6)
    y, x = 2, 11
    p = grid.n + 1 + params.s
    expect = (c - 1.0) * (n - p) * np.sqrt(grid.chord2()[y, x]) ** (-p)
    assert kernel_dxi(0.0, rho, y, x, params) == pytest.approx(expect, rel=1e-12)


def test_kernel_lower_bound_over_random_pairs():
    grid = build_grid(1, 128, "full-sphere")
    rng = np.random.default_rng(42)
    vals = 1.0 + 0.3 * np.cos(3.0 * grid.phi) + 0.1 * rng.standard_normal(grid.size)
    vals = np.clip(vals, 0.5, None)
    rho = RadialField(grid, vals)
    params = KernelParams(s=0.5)
    a_min = 1.0  # at xi the radii are 1 + xi*(vals-1) >= min(vals, 1)
    chord2 = grid.chord2()
    for _ in range(200):
        y, x = rng.integers(0, grid.size, size=2)
        if y == x:
            continue
        xi = rng.random()
        a_lo = min(1.0 + xi * (vals[y] - 1.0), 1.0 + xi * (vals[x] - 1.0), a_min)
        bound = (a_lo * np.sqrt(chord2[y, x])) ** (-(grid.n + 1 + params.s))
        assert walk_kernel(xi, rho, params)[x, y] <= bound * (1.0 + 1e-12)


def test_corrected_mass_matches_analytic_circle_integral():
    params = KernelParams(s=0.5)
    exact = circle_mass(params.s)
    errs = []
    for res in (256, 512):
        grid = build_grid(1, res, "full-sphere")
        m = hs_reference(grid, params) * params.s
        assert np.ptp(m) < 1e-9 * exact
        errs.append(abs(m[0] - exact))
    assert errs[0] < 1e-4 * exact
    assert errs[1] < 0.5 * errs[0]


def test_raw_punctured_mass_is_much_worse():
    params = KernelParams(s=0.5)
    exact = circle_mass(params.s)
    grid = build_grid(1, 256, "full-sphere")
    row = np.sqrt(grid.chord2([0])[0])
    row[0] = 1.0
    f = row ** (-params.s)
    f[0] = 0.0
    raw = float(f @ grid.weights)
    corrected = hs_reference(grid, params)[0] * params.s
    assert abs(raw - exact) > 20.0 * abs(corrected - exact)
    # the raw defect has the predicted zeta-term size
    h = grid.h
    predicted = 2.0 * riemann_zeta(params.s) * h ** (1.0 - params.s)
    assert (raw - exact) == pytest.approx(predicted, rel=0.05)


@pytest.mark.parametrize("topology", ["full-sphere", "hemisphere"])
def test_surface_grids_take_the_plain_punctured_sums(topology):
    grid = build_grid(2, 9, topology)
    params = KernelParams(s=0.5)
    targets = np.arange(grid.size)
    stencil = _lattice_stencil(grid, targets)
    assert stencil == []
    K = _chord_kernel(grid, grid.n - 1 + params.s, targets)
    plain = np.einsum("tj,j->t", K, grid.weights)
    assert np.array_equal(_corrected_sum(K, grid, stencil, params), plain)


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_corrected_mass_other_orders(s):
    params = KernelParams(s=s)
    grid = build_grid(1, 512, "full-sphere")
    m = hs_reference(grid, params)[0] * s
    assert m == pytest.approx(circle_mass(s), rel=2e-4)


def test_kernel_bound_excess_matches_pairwise_loop():
    from capflow.validation import kernel_bound_excess

    resolution, s = 64, 0.5
    grid = build_grid(1, resolution, "full-sphere")
    rho = RadialField(grid, 1.0 + 0.3 * np.cos(2 * grid.phi))
    params = KernelParams(s)
    p = grid.n + 1 + s
    chord2 = grid.chord2()
    worst = 0.0
    for xi in (0.0, 0.37, 1.0):
        pts = (1.0 + xi * (rho.values - 1.0))[:, None] * grid.nodes
        D2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        ratio2 = D2 / np.maximum(chord2, 1e-300)
        np.fill_diagonal(ratio2, np.inf)
        kappa = float(np.sqrt(ratio2.min())) ** -p
        for i in range(resolution):
            for j in range(resolution):
                if i != j:
                    val = kernel_at(xi, rho, j, i, params)
                    worst = max(worst, val * np.sqrt(chord2[i, j]) ** p / kappa)
    assert worst <= 1.0 + 1e-12
    assert kernel_bound_excess(resolution) == pytest.approx(worst, rel=1e-13)


def test_kernel_bound_excess_reads_the_homotopy_walk(monkeypatch):
    # a walk whose kernels are all 1e-9 too large must fail the oracle
    from capflow import validation

    walk = nonlocal_ops._homotopy_blocks

    def scaled_walk(*args):
        u, blocks = walk(*args)

        def scaled_blocks():
            for *head, kernel, bufs in blocks:
                scaled = lambda xi, out, k=kernel: k(xi, out) * (1.0 + 1e-9)
                yield (*head, scaled, bufs)

        return u, scaled_blocks()

    # raising=False: an oracle that reads some other route fails the assert
    monkeypatch.setattr(validation, "_homotopy_blocks", scaled_walk, raising=False)
    assert validation.kernel_bound_excess(64) > 1.0 + 1e-12


# ----------------------------------------------------------------------
# the shared blocked remainder pass
# ----------------------------------------------------------------------


def _remainder_cases():
    rng = np.random.default_rng(11)
    hemi = build_grid(1, 129, "hemisphere")
    work, index = double_grid(hemi)
    yield "hemisphere129", RadialField(
        work, (1.0 + 0.05 * np.cos(2.0 * hemi.phi) + 0.03 * hemi.nodes[:, 1])[index]
    ), KernelParams(s=0.5), HomotopyRule(order=8)
    circle = build_grid(1, 128, "full-sphere")
    yield "circle128", RadialField(
        circle, 1.0 + 0.1 * np.cos(2.0 * circle.phi)
    ), KernelParams(s=0.5), HomotopyRule(order=8)
    surf = build_grid(2, 13, "hemisphere")
    work, index = double_grid(surf)
    z = surf.nodes[:, 2]
    yield "hemisphere2_13", RadialField(
        work, (1.0 + 0.1 * z**2 + 0.05 * surf.nodes[:, 0])[index]
    ), KernelParams(s=0.5), HomotopyRule(order=4)
    g1 = build_grid(1, 65, "hemisphere")
    yield "random65", RadialField(
        g1, 1.0 + 0.05 * rng.uniform(-1.0, 1.0, g1.size)
    ), KernelParams(s=0.3), HomotopyRule(order=6)
    g2 = build_grid(2, 9, "full-sphere")
    yield "random2_9", RadialField(
        g2, 1.0 + 0.05 * rng.uniform(-1.0, 1.0, g2.size)
    ), KernelParams(s=0.7), HomotopyRule(order=4)


REMAINDER_CASES = {name: case for name, *case in _remainder_cases()}


@pytest.mark.parametrize("name", sorted(REMAINDER_CASES))
def test_remainders_match_per_remainder_reference(name):
    rho, params, rule = REMAINDER_CASES[name]
    for fn, ref_fn in (
        (remainder_R1, by_parts_remainder_R1),
        (remainder_R2, by_parts_remainder_R2),
    ):
        ref = ref_fn(rho, params, rule)
        out = fn(rho, params, rule)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref))


def _kinked_capillary_case():
    """The reflected field of a 129-node capillary curve at theta = pi/3:
    1 + 0.05 x_2 with its contact values set by the angle condition, so the
    even extension has a gradient kink at the contact rows."""
    hemi = build_grid(1, 129, "hemisphere")
    work, index = double_grid(hemi)
    start = RadialField(hemi, 1.0 + 0.05 * hemi.nodes[:, -1])
    vals = flow.apply_bc(start, math.pi / 3, flow.FlowConfig.bc_tol).values
    return RadialField(work, vals[index]), KernelParams(s=0.5)


@pytest.mark.parametrize("name", sorted(REMAINDER_CASES) + ["kinked_capillary"])
def test_remainder_forms_agree_at_high_order(name):
    """The by-parts and the derivative form are one integral, so at an
    order where both rules have converged they agree; at low orders they
    differ by their quadrature errors."""
    if name == "kinked_capillary":
        rho, params = _kinked_capillary_case()
    else:
        rho, params, _ = REMAINDER_CASES[name]
    rule = HomotopyRule(order=40)
    for fn, ref_fn in (
        (remainder_R1, derivative_remainder_R1),
        (remainder_R2, derivative_remainder_R2),
    ):
        ref = ref_fn(rho, params, rule)
        out = fn(RadialField(rho.grid, rho.values), params, rule)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


# the n and resolution of the hemisphere grid whose doubled grid a case's
# field lives on
CASE_HEMISPHERES = {"hemisphere129": (1, 129), "hemisphere2_13": (2, 13)}


def _matrix_rows(rho, params, rule, hemi):
    work = double_grid(hemi)[0]
    return (
        frac_laplacian_matrix(work, params),
        frac_laplacian_matrix(work, params, targets=np.arange(hemi.size)),
    )


def _reference_curvature(rho, params, rule, hemi):
    return (hs_reference(double_grid(hemi)[0], params),)


# every pass over node pairs, as arrays whose rows are compared bitwise;
# `hemi` is the case's hemisphere grid, built afresh per block size, so
# nothing cached on a grid carries over from one block size to the next
BLOCKED_PASSES = {
    "remainders": lambda rho, params, rule, hemi: (
        remainder_R1(rho, params, rule),
        remainder_R2(rho, params, rule),
    ),
    "injectivity_ratio": lambda rho, params, rule, hemi: (
        np.array([injectivity_ratio(rho)]),
    ),
    "homotopy_derivative": lambda rho, params, rule, hemi: tuple(
        homotopy_derivative([tp], rho, params) for tp in (0.3, 1.0)
    ),
    "homotopy_derivative_sequence": lambda rho, params, rule, hemi: (
        homotopy_derivative([0.3, 0.7, 1.0], rho, params),
    ),
    "frac_laplacian_matrix": _matrix_rows,
    "hs_reference": _reference_curvature,
}


@pytest.mark.parametrize(
    "name, op",
    [
        # the remainder cases keep the bare ids they had before the other passes
        pytest.param(name, op, id=name if op == "remainders" else f"{name}-{op}")
        for op in BLOCKED_PASSES
        for name in CASE_HEMISPHERES
    ],
)
def test_remainder_rows_independent_of_block_size(name, op, monkeypatch):
    rho, params, rule = REMAINDER_CASES[name]
    results = []
    for block in (1, 7, nonlocal_ops.ROW_BLOCK, rho.grid.size + 5):
        monkeypatch.setattr(nonlocal_ops, "ROW_BLOCK", block)
        fresh = RadialField(rho.grid, rho.values)
        hemi = build_grid(*CASE_HEMISPHERES[name], "hemisphere")
        results.append(BLOCKED_PASSES[op](fresh, params, rule, hemi))
    for rows in results[1:]:
        for got, first in zip(rows, results[0], strict=True):
            assert np.array_equal(got, first)


def test_blocked_passes_keep_temporaries_small(monkeypatch):
    monkeypatch.setattr(nonlocal_ops, "ROW_BLOCK", 8)
    rho, params, rule = REMAINDER_CASES["hemisphere2_13"]
    grid = rho.grid
    limit = 0.5 * grid.size**2 * 8  # bytes of 0.5 N_work^2 doubles
    # the rows a flow step evaluates on the doubled grid
    hemisphere_rows = np.arange(build_grid(2, 13, "hemisphere").size)

    def field():
        return RadialField(grid, rho.values)

    def fresh_doubled():
        # double_grid builds a new grid on each call, so the traced call
        # finds nothing cached on it
        return double_grid(build_grid(2, 13, "hemisphere"))[0]

    # name: (argument maker, call)
    calls = {
        "injectivity_ratio": (field, injectivity_ratio),
        # the guard's worst case walks every pair
        "injectivity_ratio steep pair": (lambda: steep_pair(grid), injectivity_ratio),
        "homotopy_derivative": (field, lambda f: homotopy_derivative([0.6], f, params)),
        "homotopy_derivative sequence": (
            field,
            lambda f: homotopy_derivative([0.2, 0.6, 1.0], f, params),
        ),
        "remainder_R1": (field, lambda f: remainder_R1(f, params, rule)),
        "remainder_R1 hemisphere rows": (
            field,
            lambda f: remainder_R1(f, params, rule, targets=hemisphere_rows),
        ),
        "hs_reference": (
            fresh_doubled,
            lambda g: hs_reference(g, params),
        ),
        "frac_laplacian_matrix hemisphere rows": (
            field,
            lambda f: frac_laplacian_matrix(f.grid, params, targets=hemisphere_rows),
        ),
    }
    for name, (make, call) in calls.items():
        call(make())  # fills the grid's own caches
        arg = make()
        tracemalloc.start()
        try:
            out = call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name.startswith("frac_laplacian_matrix"):
            # the returned rows are the one array allowed past a block
            peak -= out.nbytes
        assert peak < limit, (name, peak / (grid.size**2 * 8))


def _guard_cases():
    """Name, work field and the rows a flow step evaluates: the hemisphere
    rows of a doubled grid, all rows (None) of a full-sphere grid."""
    rng = np.random.default_rng(5)
    for base in (
        build_grid(1, 129, "hemisphere"),
        build_grid(1, 257, "hemisphere"),
        build_grid(1, 128, "full-sphere"),
        build_grid(2, 13, "full-sphere"),
        build_grid(2, 9, "hemisphere"),
    ):
        if base.topology == "hemisphere":
            work, index = double_grid(base)
            rows = np.arange(base.size)
        else:
            work, index, rows = base, np.arange(base.size), None
        x = base.nodes
        fields = {
            "height": 1.0 + 0.05 * x[:, -1],
            "random": 1.0 + 0.05 * rng.uniform(-1.0, 1.0, base.size),
            # 1 + 0.3 cos 2 phi on the circle
            "cos2phi": 1.0 + 0.3 * (x[:, 0] ** 2 - x[:, 1] ** 2),
        }
        for label, vals in fields.items():
            name = f"{base.topology}{base.n}_{base.size}_{label}"
            yield name, RadialField(work, vals[index]), rows


_GUARD = list(_guard_cases())
GUARD_CASES = {name: rho for name, rho, _ in _GUARD}
GUARD_ROWS = {name: rows for name, _, rows in _GUARD}


@pytest.mark.parametrize("name", sorted(GUARD_CASES))
def test_blocked_guard_and_derivative_match_full_matrix_routes(name):
    rho = GUARD_CASES[name]
    params = KernelParams(s=0.5)
    ref = reference_injectivity_ratio(rho)
    assert abs(injectivity_ratio(RadialField(rho.grid, rho.values)) - ref) <= 1e-12 * ref
    tprimes = (0.2, 0.6, 1.0)
    for tp, out in zip(tprimes, homotopy_derivative(tprimes, rho, params)):
        ref = reference_homotopy_derivative(tp, rho, params)
        assert np.max(np.abs(out - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def single_tprime_homotopy_derivative(tprime, rho, params):
    """One t' per pass, in the operation order of the blocked route, with D2
    in the expansion A0 + t' (A1 + t' A2): the bitwise reference for each
    row of a sequence."""
    grid, r = rho.grid, rho.values
    g = gradient_values(grid, r)
    u = r - 1.0
    B = 1.0 + tprime * u
    Bn1 = B ** (grid.n - 1)
    out = np.empty(grid.size)
    for sl, tb, col in _blocks(np.arange(grid.size)):
        ut = u[tb, None]
        A0 = grid.chord2(tb)
        A1 = (ut + u) * A0
        A2 = (ut - u) ** 2 + ut * u * A0
        D2 = (A2 * tprime + A1) * tprime + A0
        D2[col] = 1.0
        K = np.exp(-0.5 * (grid.n + 1 + params.s) * np.log(D2))
        K[col] = 0.0
        xt = grid.nodes[tb]
        xdotg = sum(xt[:, d, None] * g[:, d] for d in range(xt.shape[1]))
        F = Bn1 * B * (r - r[tb, None] + ut * (0.5 * A0)) + tprime * ut * xdotg * Bn1
        out[sl] = corrected_sum(2.0 * K * F, grid, tb, params)
    return out


def _sequence_cases():
    """Full sphere, hemisphere and doubled hemisphere fields for n = 1, 2."""
    for n, res_full, res_hemi in ((1, 128, 129), (2, 9, 9)):
        full = build_grid(n, res_full, "full-sphere")
        hemi = build_grid(n, res_hemi, "hemisphere")
        work, mirror = double_grid(hemi)
        for label, grid, base, pick in (
            ("full", full, full, None),
            ("hemisphere", hemi, hemi, None),
            ("doubled", work, hemi, mirror),
        ):
            x = base.nodes
            vals = 1.0 + 0.06 * x[:, -1] + 0.04 * x[:, 0] ** 2
            yield f"n{n}-{label}", RadialField(grid, vals if pick is None else vals[pick])


SEQUENCE_CASES = dict(_sequence_cases())
SEQUENCE_TPRIMES = [0.0, 0.3, 0.75, 1.0]


@pytest.mark.parametrize("name", sorted(SEQUENCE_CASES))
def test_batched_kernel_planes_equal_each_xi_alone(name):
    rho = SEQUENCE_CASES[name]
    params = KernelParams(s=0.5)
    xis = [0.0, *HomotopyRule(order=4).tprime()[0], 1.0]
    size = rho.grid.size
    _, blocks = nonlocal_ops._homotopy_blocks(rho, params, np.arange(size), len(xis) + 1)
    for *_, kernel, bufs in blocks:
        stack, alone = bufs[2:-1], bufs[-1:]
        kernel(xis, stack)
        # reversed, so a plane's place in the stack cannot matter either
        for xi, plane in reversed(list(zip(xis, stack, strict=True))):
            assert np.array_equal(kernel([xi], alone)[0], plane)


@pytest.mark.parametrize("name", sorted(SEQUENCE_CASES))
def test_batched_kernel_at_xi_zero_is_the_chord_power(name):
    rho = SEQUENCE_CASES[name]
    grid = rho.grid
    params = KernelParams(s=0.5)
    p = grid.n + 1 + params.s
    _, blocks = nonlocal_ops._homotopy_blocks(rho, params, np.arange(grid.size), 2)
    for _, tb, _, _, _, _, kernel, bufs in blocks:
        K0 = kernel([0.0, 0.5], bufs[2:])[0]
        with np.errstate(divide="ignore"):
            expect = np.exp(-0.5 * p * np.log(grid.chord2(tb)))
        expect[np.arange(tb.size), tb] = 0.0
        assert np.array_equal(K0, expect)
        np.testing.assert_allclose(K0, _chord_kernel(grid, p, tb), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", sorted(SEQUENCE_CASES))
def test_homotopy_derivative_keeps_the_single_tprime_operation_order(name):
    rho = SEQUENCE_CASES[name]
    params = KernelParams(s=0.5)
    # a list, one t' alone, and the rule nodes the m1 oracle passes as an array
    for tprimes in (SEQUENCE_TPRIMES, [0.3], HomotopyRule(order=8).tprime()[0]):
        rows = homotopy_derivative(tprimes, rho, params)
        for tp, row in zip(tprimes, rows, strict=True):
            ref = single_tprime_homotopy_derivative(tp, rho, params)
            assert np.array_equal(row, ref)


def test_homotopy_derivative_shape_contract():
    rho = SEQUENCE_CASES["n1-hemisphere"]
    params = KernelParams(s=0.5)
    N = rho.grid.size
    for seq in ([0.4], [0.1, 0.4, 1.0], (0.1, 0.4), np.array([0.1, 0.4, 1.0])):
        assert homotopy_derivative(seq, rho, params).shape == (len(seq), N)
    assert homotopy_derivative([], rho, params).shape == (0, N)
    for bad in (0.4, np.array(0.4), [[0.1, 0.4]]):
        with pytest.raises(ValueError, match="1-D"):
            homotopy_derivative(bad, rho, params)


@pytest.mark.parametrize("tprime", [pytest.param([0.5], id="0.5"), [0.2, 0.6, 1.0]])
def test_homotopy_derivative_guard_raises_before_any_warning(tprime):
    grid = build_grid(1, 129, "hemisphere")
    # adjacent images this close underflow the squared distance to zero, so
    # the kernel power would divide by zero past the guard
    vals = np.ones(grid.size)
    vals[[40, 41]] = 1e-200
    rho = RadialField(grid, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InjectivityError):
            homotopy_derivative(tprime, rho, KernelParams(s=0.5))


def test_blocked_guard_threshold_agrees_on_pinched_map():
    grid = build_grid(1, 65, "hemisphere")
    rho = RadialField(grid, 0.05 + 0.95 * np.sin(grid.phi))
    ref = reference_injectivity_ratio(rho)
    out = injectivity_ratio(rho)
    assert abs(out - ref) <= 1e-12 * ref
    limit = nonlocal_ops.INJECTIVITY_RATIO_MIN
    assert ref < limit and out < limit


def steep_pair(grid):
    """Unit field whose two least values, 0.5 and 0.6, sit on neighbouring
    nodes.  The least rho's row then bounds the least squared ratio only by
    0.5 + 0.25 / |y - x|^2 >= 0.5625 at its farthest node, above
    max rho min rho = 0.5, so every node is a candidate pair end: the
    guard's worst case, a walk over every pair."""
    vals = np.ones(grid.size)
    k = grid.size // 3
    vals[k] = 0.5
    vals[grid.stencils().meridian[k, 1]] = 0.6
    return RadialField(grid, vals)


def pit(grid):
    """Field of 2 with a plateau of 0.8 around a pit of 0.1: every entry of
    the least rho's row is at least 0.2 + 3.61 / 4 (a far node) or
    0.08 + 0.49 / 0.25 (a plateau node), so its bound leaves the exact
    minimum, 0.8^2 on a plateau pair beside the pit, to the walk."""
    k = grid.size // 3
    vals = np.where(grid.chord2([k])[0] < 0.25, 0.8, 2.0)
    vals[k] = 0.1
    return RadialField(grid, vals)


def all_pairs_ratio2(rho):
    """rho(x) rho(y) + (rho(x) - rho(y))^2 / |y - x|^2 over every pair, in
    the guard's operation order, with inf on the diagonal."""
    r = rho.values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio2 = r[:, None] * r + (r[:, None] - r) ** 2 / rho.grid.chord2()
    np.fill_diagonal(ratio2, np.inf)
    return ratio2


def _exact_guard_cases():
    rng = np.random.default_rng(24)
    for n, resolution in ((1, 65), (2, 9)):
        for topology in ("hemisphere", "full-sphere"):
            grid = build_grid(n, resolution, topology)
            name = f"n{n}-{topology}"
            for sigma in (0.05, 0.3, 1.0):
                vals = np.exp(sigma * rng.standard_normal(grid.size))
                yield f"{name}-lognormal{sigma}", RadialField(grid, vals)
            yield f"{name}-constant", RadialField(grid, np.full(grid.size, 0.7))
            yield f"{name}-steep-pair", steep_pair(grid)
            yield f"{name}-pit", pit(grid)


@pytest.mark.parametrize("name, rho", list(_exact_guard_cases()))
def test_injectivity_ratio_is_the_exact_all_pairs_minimum(name, rho, monkeypatch):
    ratio2 = all_pairs_ratio2(rho)
    expect = float(np.sqrt(ratio2.min()))
    for block in (1, 7, nonlocal_ops.ROW_BLOCK):
        monkeypatch.setattr(nonlocal_ops, "ROW_BLOCK", block)
        assert injectivity_ratio(RadialField(rho.grid, rho.values)) == expect
    r = rho.values
    row = ratio2[np.argmin(r)]
    if name.endswith("steep-pair"):
        # the least rho's row leaves every node a candidate
        assert np.all(r * r.min() < row.min())
    if name.endswith("pit"):
        # the minimum is on a pair the least rho's row does not hold
        assert expect == 0.8 and row.min() > 1.0


def test_remainder_memo_matches_fresh_fields():
    rho, params, rule = REMAINDER_CASES["random65"]
    other = KernelParams(s=0.6)
    calls = [
        (remainder_R2, params, rule, None),
        (remainder_R1, params, rule, None),
        (remainder_R1, params, rule, np.arange(3, 40)),
        (remainder_R2, params, rule, np.arange(3, 40)),
        (remainder_R2, other, rule, None),
        (remainder_R1, other, HomotopyRule(order=3), None),
        (remainder_R2, other, HomotopyRule(order=3), None),
        (remainder_R1, params, rule, np.arange(3, 40)),
        (remainder_R2, params, rule, None),
    ]
    for fn, prm, rl, targets in calls:
        out = fn(rho, prm, rl, targets=targets)
        fresh = fn(RadialField(rho.grid, rho.values), prm, rl, targets=targets)
        assert np.array_equal(out, fresh)
        assert not out.flags.writeable
    r1 = remainder_R1(rho, params, rule)
    with pytest.raises(ValueError):
        r1 += 1.0
    assert np.array_equal(
        remainder_R2(rho, params, rule),
        remainder_R2(RadialField(rho.grid, rho.values), params, rule),
    )


def test_remainder_memo_is_not_copied_by_replace():
    grid = build_grid(1, 64, "full-sphere")
    params, rule = KernelParams(s=0.5), HomotopyRule(order=4)
    rho = RadialField(grid, 1 + 0.1 * np.cos(2 * grid.phi))
    remainder_R1(rho, params, rule)
    moved = dataclasses.replace(rho, values=1 + 0.2 * np.cos(3 * grid.phi))
    fresh = RadialField(grid, moved.values)
    assert np.array_equal(
        remainder_R1(moved, params, rule), remainder_R1(fresh, params, rule)
    )


def test_remainder_memo_targets_keyed_by_index_values():
    rho, params, rule = REMAINDER_CASES["random65"]
    # the same bytes read as int64 [1] and as int32 [1, 0]
    one = remainder_R1(rho, params, rule, targets=np.array([1], dtype=np.int64))
    two = remainder_R1(rho, params, rule, targets=np.array([1, 0], dtype=np.int32))
    assert one.shape == (1,) and two.shape == (2,)
    assert two[0] == one[0]


# ----------------------------------------------------------------------
# the one injectivity guard as the remainder pass calls it, the chord mass
# rows and the blocks
# ----------------------------------------------------------------------

GUARD_RULE = HomotopyRule(order=2)


def _folded_pass_raises(rho, targets):
    """Whether the remainder pass on a fresh copy of rho raises the guard."""
    fresh = RadialField(rho.grid, rho.values)
    try:
        remainder_R1(fresh, KernelParams(s=0.5), GUARD_RULE, targets=targets)
    except InjectivityError:
        return True
    return False


@pytest.mark.parametrize("name", sorted(GUARD_CASES))
def test_folded_guard_decides_like_standalone_routine(name):
    rho, rows = GUARD_CASES[name], GUARD_ROWS[name]
    limit = nonlocal_ops.INJECTIVITY_RATIO_MIN
    ratio = injectivity_ratio(RadialField(rho.grid, rho.values))
    # the ratio scales with the field: maps pinched just under and just
    # over the limit, and the field itself
    for scale in (1.0, (1.0 - 1e-3) * limit / ratio, (1.0 + 1e-3) * limit / ratio):
        scaled = RadialField(rho.grid, scale * rho.values)
        pinched = injectivity_ratio(RadialField(rho.grid, scaled.values)) < limit
        assert pinched == (scale < limit / ratio)
        for targets in [None] if rows is None else [None, rows]:
            assert _folded_pass_raises(scaled, targets) == pinched, (scale, targets)


@pytest.mark.parametrize("folded", [True, False], ids=["folded", "unfolded"])
def test_each_remainder_pass_calls_the_guard_once(folded, monkeypatch):
    if folded:
        hemi = build_grid(1, 129, "hemisphere")
        grid, mirror = double_grid(hemi)
        vals, targets = (1.0 + 0.05 * hemi.nodes[:, 1])[mirror], np.arange(hemi.size)
    else:
        grid = build_grid(1, 128, "full-sphere")
        vals, targets = 1.0 + 0.05 * grid.nodes[:, 1], None
    calls = []
    guard = nonlocal_ops.injectivity_ratio

    def counting(rho):
        calls.append(rho)
        return guard(rho)

    monkeypatch.setattr(nonlocal_ops, "injectivity_ratio", counting)
    params = KernelParams(s=0.5)
    rho = RadialField(grid, vals)
    # R1 and R2 share one pass, and so one guard call
    remainder_R1(rho, params, GUARD_RULE, targets=targets)
    remainder_R2(rho, params, GUARD_RULE, targets=targets)
    assert calls == [rho]
    # a pass over other rows is a new pass, guarded again
    remainder_R1(rho, params, GUARD_RULE, targets=[3, 7])
    assert calls == [rho, rho]
    # the homotopy derivative walks the same kernels: one guard call per
    # call, at one t' or at several
    calls.clear()
    homotopy_derivative([0.4], rho, params)
    assert calls == [rho]
    homotopy_derivative([0.0, 0.4, 1.0], rho, params)
    assert calls == [rho, rho]


def _lower_bound_cases():
    """Seeded random positive fields on hemisphere, full-sphere and doubled
    grids, n = 1 and 2."""
    rng = np.random.default_rng(18)
    for n, res_full, res_hemi in ((1, 128, 129), (2, 9, 9)):
        full = build_grid(n, res_full, "full-sphere")
        hemi = build_grid(n, res_hemi, "hemisphere")
        work, mirror = double_grid(hemi)
        for label, grid, base, pick in (
            ("full", full, full, None),
            ("hemisphere", hemi, hemi, None),
            ("doubled", work, hemi, mirror),
        ):
            for k, spread in enumerate((0.02, 0.5, 2.0)):
                vals = np.exp(spread * rng.uniform(-1.0, 1.0, base.size))
                yield f"n{n}-{label}-{k}", RadialField(
                    grid, vals if pick is None else vals[pick]
                )
            yield f"n{n}-{label}-constant", RadialField(grid, np.full(grid.size, 0.3))


@pytest.mark.parametrize("name, rho", list(_lower_bound_cases()))
def test_injectivity_ratio_is_at_least_the_least_radius(name, rho):
    # ratio^2 >= ((rho(x) + rho(y)) / 2)^2 as |y - x|^2 <= 4; the slack is
    # rounding only, as the constant field meets the bound
    assert injectivity_ratio(rho) >= (1.0 - 1e-15) * np.min(rho.values)


def _dimpled(grid, nodes):
    """Unit field with rho = 0.05 at `nodes`: adjacent dimple nodes
    contract by 0.05, while every pair with one end outside the dimple
    keeps a ratio of at least (1 + 0.05) / 2."""
    vals = np.ones(grid.size)
    vals[nodes] = 0.05
    return RadialField(grid, vals)


def test_folded_guard_sees_pinches_off_the_target_rows():
    hemi = build_grid(1, 129, "hemisphere")
    work, _ = double_grid(hemi)
    circle = build_grid(1, 128, "full-sphere")
    cases = [
        # pinched only in the mirror half of the doubled grid
        (_dimpled(work, [180, 181, 182]), np.arange(hemi.size)),
        # pinched away from the one target row
        (_dimpled(circle, [60, 61]), np.array([10])),
    ]
    for rho, targets in cases:
        assert injectivity_ratio(RadialField(rho.grid, rho.values)) == pytest.approx(0.05)
        with pytest.raises(InjectivityError, match="contracts node pairs by 0.05 "):
            remainder_R1(rho, KernelParams(s=0.5), GUARD_RULE, targets=targets)


@pytest.mark.parametrize("where", ["targets", "mirror"])
def test_folded_guard_raises_before_any_warning(where):
    hemi = build_grid(1, 129, "hemisphere")
    work, _ = double_grid(hemi)
    # adjacent images this close underflow the squared distance to zero, so
    # the kernel power would divide by zero past the guard
    nodes = [40, 41] if where == "targets" else [200, 201]
    vals = np.ones(work.size)
    vals[nodes] = 1e-200
    rho = RadialField(work, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InjectivityError):
            remainder_R2(rho, KernelParams(s=0.5), GUARD_RULE, targets=np.arange(hemi.size))
    assert rho._remainders is None


@pytest.mark.parametrize(
    "n, resolution",
    [
        pytest.param(1, 65, id="1-65-full-sphere"),
        pytest.param(2, 9, id="2-9-full-sphere"),
    ],
)
def test_hs_reference_forms_each_mass_row_once_per_call(n, resolution, monkeypatch):
    grid = build_grid(n, resolution, "full-sphere")
    params = KernelParams(s=0.4)
    mass_rows = []
    chord_kernel = nonlocal_ops._chord_kernel

    def counting(grid_, exponent, targets):
        if exponent == grid_.n - 1 + params.s:
            mass_rows.append(targets)
        return chord_kernel(grid_, exponent, targets)

    monkeypatch.setattr(nonlocal_ops, "_chord_kernel", counting)
    results = []
    for _ in range(2):
        results.append(hs_reference(grid, params))
        # every node's row, once: a call neither skips nor repeats a row
        assert np.array_equal(np.concatenate(mass_rows), np.arange(grid.size))
        mass_rows.clear()
    assert np.array_equal(results[1], results[0])


@pytest.mark.parametrize("name", sorted(REMAINDER_CASES))
def test_remainder_pass_never_reads_the_mass(name, monkeypatch):
    rho, params, rule = REMAINDER_CASES[name]
    expected = remainder_R2(RadialField(rho.grid, rho.values), params, rule)

    def refuse(grid, prm):
        raise AssertionError("the remainder pass read the chord mass")

    monkeypatch.setattr(nonlocal_ops, "hs_reference", refuse)
    size = rho.grid.size
    for targets in (None, np.arange(size // 2 + 1), np.array([size - 1, 2])):
        fresh = RadialField(rho.grid, rho.values)
        remainder_R1(fresh, params, rule, targets)
        got = remainder_R2(fresh, params, rule, targets)
        rows = np.arange(size) if targets is None else targets
        assert np.array_equal(got, expected[rows])


def test_remainder_pass_hands_punctured_rows_to_the_corrected_sums(monkeypatch):
    """Every integrand the remainder pass and the homotopy derivative sum
    is zero at each row's own column, as `_corrected_sum` requires: the
    kernels there are punctured, not only multiplied by factors that vanish
    up to rounding."""
    stencil_, corrected_sum_ = nonlocal_ops._lattice_stencil, nonlocal_ops._corrected_sum
    block = []  # the targets of the block whose stencil was built last

    def recording(grid, targets):
        block[:] = [targets]
        return stencil_(grid, targets)

    def checking(F, grid, stencil, params):
        tb = block[0]
        assert np.all(F[np.arange(tb.size), tb] == 0.0)
        return corrected_sum_(F, grid, stencil, params)

    monkeypatch.setattr(nonlocal_ops, "_lattice_stencil", recording)
    monkeypatch.setattr(nonlocal_ops, "_corrected_sum", checking)
    for rho, params, rule in REMAINDER_CASES.values():
        remainder_R1(RadialField(rho.grid, rho.values), params, rule)
        # at t' = 0 the kernel is the round one, |y - x|^(-p), infinite at
        # the own columns unless they are punctured
        homotopy_derivative([0.0], rho, params)
        homotopy_derivative([0.0, 0.5, 1.0], rho, params)
    assert block


@pytest.mark.parametrize("name", sorted(REMAINDER_CASES))
def test_remainder_R2_at_unit_field_is_the_mass(name):
    """At rho = 1 every kernel of the homotopy is the chord kernel K0, so
    R2 = sum A0 K0 is the chord mass, the term that cancels out of the
    pass."""
    rho, params, rule = REMAINDER_CASES[name]
    grid = rho.grid
    r2 = remainder_R2(RadialField(grid, np.ones(grid.size)), params, rule)
    targets = np.arange(grid.size)
    K = _chord_kernel(grid, grid.n - 1 + params.s, targets)
    mass = corrected_sum(K, grid, targets, params)
    assert np.max(np.abs(r2 - mass)) <= 1e-13 * np.max(np.abs(mass))


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("count", [0, 1, 7, 63, 64, 65, 129, 337])
def test_blocks_are_balanced_and_cover_the_targets(block, count, monkeypatch):
    monkeypatch.setattr(nonlocal_ops, "ROW_BLOCK", block)
    targets = np.arange(3, 3 + count)[::-1]
    blocks = list(_blocks(targets))
    assert len(blocks) == -(-count // block)
    sizes = [tb.size for _, tb, _ in blocks]
    if count:
        assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
    pieces = [targets[sl] for sl, _, _ in blocks]
    assert np.array_equal(np.concatenate(pieces or [targets[:0]]), targets)
    for sl, tb, col in blocks:
        assert np.array_equal(tb, targets[sl])
        assert np.array_equal(col[0], np.arange(tb.size)) and np.array_equal(col[1], tb)


# ----------------------------------------------------------------------
# the flow context's fixed parts, against the whole-grid routes they were
# built by before the matrix and the reference curvature were blocked
# ----------------------------------------------------------------------


def reference_hs_reference(grid, params):
    """The reference curvature from one whole-grid chord kernel: the
    corrected mass over s."""
    tgt = np.arange(grid.size)
    K = _chord_kernel(grid, grid.n - 1 + params.s, tgt)
    return corrected_sum(K, grid, tgt, params) / params.s


def reference_frac_laplacian_matrix(grid, params):
    """The whole matrix at once: every row's kernel, lattice terms and
    diagonal in one N x N array."""
    tgt = np.arange(grid.size)
    K = _chord_kernel(grid, grid.n + 1 + params.s, tgt)
    M = 2.0 * K * grid.weights[None, :]
    if grid.n == 1:
        z = riemann_zeta(params.s)
        for rows, cols in _lattice_stencil(grid, tgt):
            M[rows, cols] += -2.0 * z * grid.h * K[rows, cols]
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, -M.sum(axis=1))
    return M


def reference_context_parts(n, resolution, s, topology):
    """M, hs_ref and the work grid of a flow context: the whole work-grid
    matrix and reference, sliced to the grid's rows, with the matrix folded
    back onto a hemisphere (a full sphere is its own work grid)."""
    grid = build_grid(n, resolution, topology)
    params = KernelParams(s)
    if topology == "hemisphere":
        work, index = double_grid(grid)
    else:
        work, index = grid, np.arange(grid.size)
    hs_ref = reference_hs_reference(work, params)[: grid.size]
    M_work = reference_frac_laplacian_matrix(work, params)[: grid.size]
    MT = np.zeros((grid.size, grid.size))
    np.add.at(MT, index, M_work.T)
    return MT.T, hs_ref, work


# the ids name the work grid's topology; an unfolded context is a
# full-sphere one, whose matrix has no mirror columns to fold
@pytest.mark.parametrize(
    "n, resolution, topology",
    [
        pytest.param(1, 129, "hemisphere", id="1-129-full-sphere"),
        pytest.param(2, 13, "hemisphere", id="2-13-full-sphere"),
        pytest.param(1, 128, "full-sphere", id="1-128-full-sphere-unfolded"),
        pytest.param(2, 13, "full-sphere", id="2-13-full-sphere-unfolded"),
    ],
)
def test_context_fixed_parts_match_whole_grid_routes(n, resolution, topology):
    s = 0.5
    ctx = flow._Context(n, s, resolution, topology, 4)
    M, hs_ref, work = reference_context_parts(n, resolution, s, topology)
    assert np.array_equal(ctx.M, M)
    assert np.array_equal(ctx.hs_ref, hs_ref)
    ref = reference_hs_reference(work, KernelParams(s))
    assert np.array_equal(hs_reference(work, KernelParams(s)), ref)


@pytest.mark.parametrize("n, resolution", [(1, 65), (2, 9)])
def test_context_set_up_sums_the_work_mass_once(n, resolution, monkeypatch):
    s = 0.4
    mass_rows = []
    chord_kernel = nonlocal_ops._chord_kernel

    def counting(grid_, exponent, targets):
        if exponent == grid_.n - 1 + s:
            mass_rows.append(targets)
        return chord_kernel(grid_, exponent, targets)

    monkeypatch.setattr(nonlocal_ops, "_chord_kernel", counting)
    ctx = flow._Context(n, s, resolution, "hemisphere", 3)
    # the reference forms each hemisphere row of the work grid once, the
    # only rows the flow reads ...
    assert np.array_equal(np.concatenate(mass_rows), np.arange(ctx.grid.size))
    mass_rows.clear()
    # ... and the first remainder pass forms none
    flow._explicit_part(ctx, 1.0 + 0.05 * ctx.grid.nodes[:, -1])
    assert mass_rows == []


def test_capillary_context_holds_no_pairwise_table():
    # once built, a context holds M (m x m) and arrays linear in the node
    # count: no chord table of the m hemisphere nodes or of the doubled grid
    flow._Context(2, 0.5, 9, "hemisphere", 4)  # the imports a build makes
    tracemalloc.start()
    try:
        ctx = flow._Context(2, 0.5, 13, "hemisphere", 4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    m = ctx.grid.size
    assert held <= 2 * m**2 * 8, held / (m**2 * 8)
