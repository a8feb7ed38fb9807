import math

import numpy as np
import pytest

from capflow import (
    HomotopyRule,
    KernelParams,
    RadialField,
    build_grid,
    hs_reference,
    kernel_K,
    riemann_zeta,
)
from capflow.nonlocal_ops import _kernel_and_dxi


def circle_mass(s):
    """Analytic int over the unit circle of |y-x|^(-s) dH(y)."""
    return (
        2.0 ** (1.0 - s)
        * math.gamma(0.5 * (1.0 - s))
        * math.gamma(0.5)
        / math.gamma(1.0 - 0.5 * s)
    )


def kernel_dxi(xi, rho, y, x, params):
    """Row x, column y of the kernel xi-derivative matrix."""
    _, dK = _kernel_and_dxi(rho.values, rho.grid, params, xi, np.asarray([x]))
    return float(dK[0, y])


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


def test_homotopy_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        HomotopyRule(order=0)


def test_kernel_on_round_sphere_is_chord_power():
    grid = build_grid(1, 64, "full-sphere")
    rho = RadialField(grid, np.ones(grid.size))
    params = KernelParams(s=0.5, n=1)
    for y, x in [(3, 40), (0, 1), (10, 33)]:
        expect = grid.chord[y, x] ** (-params.p)
        assert kernel_K(0.7, rho, y, x, params) == pytest.approx(expect, rel=1e-14)


def test_kernel_scaling_on_dilated_sphere():
    grid = build_grid(1, 64, "full-sphere")
    c = 1.7
    rho = RadialField(grid, np.full(grid.size, c))
    params = KernelParams(s=0.3, n=1)
    expect = (c * grid.chord[5, 20]) ** (-params.p)
    assert kernel_K(1.0, rho, 5, 20, params) == pytest.approx(expect, rel=1e-13)


def test_kernel_is_symmetric_in_the_pair():
    grid = build_grid(1, 65, "hemisphere")
    rho = bumpy_field(grid)
    params = KernelParams(s=0.5, n=1)
    assert kernel_K(0.4, rho, 7, 31, params) == pytest.approx(
        kernel_K(0.4, rho, 31, 7, params), rel=1e-14
    )


def test_kernel_rejects_coincident_nodes():
    grid = build_grid(1, 65, "hemisphere")
    rho = bumpy_field(grid)
    params = KernelParams(s=0.5, n=1)
    with pytest.raises(ValueError):
        kernel_K(0.5, rho, 8, 8, params)
    with pytest.raises(ValueError):
        kernel_K(0.5, rho, np.array([3, 8, 9]), np.array([4, 8, 1]), params)


def test_kernel_on_index_arrays_matches_pairwise_calls():
    grid = build_grid(1, 65, "hemisphere")
    rho = bumpy_field(grid)
    params = KernelParams(s=0.5, n=1)
    y = np.array([7, 0, 64, 12])
    x = np.array([31, 5, 2, 11])
    vals = kernel_K(0.4, rho, y, x, params)
    assert vals.shape == (4,)
    for k in range(4):
        assert vals[k] == kernel_K(0.4, rho, int(y[k]), int(x[k]), params)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(s=0.0)
    with pytest.raises(ValueError):
        KernelParams(s=1.0)
    with pytest.raises(ValueError):
        KernelParams(s=0.5, n=0)
    assert KernelParams(s=0.5, n=1).p == pytest.approx(2.5)
    assert KernelParams(s=0.3, n=2).p == pytest.approx(3.3)


@pytest.mark.parametrize("n,resolution", [(1, 65), (2, 12)])
@pytest.mark.parametrize("pair", [(3, 17), (40, 9)])
def test_kernel_dxi_matches_finite_differences(n, resolution, pair):
    topology = "hemisphere" if n == 1 else "full-sphere"
    grid = build_grid(n, resolution, topology)
    rng = np.random.default_rng(7)
    vals = 1.0 + 0.25 * np.sin(3.0 * grid.nodes[:, 0]) + 0.05 * rng.random(grid.size)
    rho = RadialField(grid, vals)
    params = KernelParams(s=0.45, n=n)
    y, x = pair
    xi0, h = 0.37, 1e-5

    def bk(xi):
        b = 1.0 + xi * (vals[y] - 1.0)
        return b**n * kernel_K(xi, rho, y, x, params)

    fd = (bk(xi0 + h) - bk(xi0 - h)) / (2.0 * h)
    assert kernel_dxi(xi0, rho, y, x, params) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_dxi_constant_field_closed_form(n):
    topology = "full-sphere"
    grid = build_grid(n, 64 if n == 1 else 12, topology)
    c = 1.4
    rho = RadialField(grid, np.full(grid.size, c))
    params = KernelParams(s=0.6, n=n)
    y, x = 2, 11
    expect = (c - 1.0) * (n - params.p) * grid.chord[y, x] ** (-params.p)
    assert kernel_dxi(0.0, rho, y, x, params) == pytest.approx(expect, rel=1e-12)


def test_kernel_lower_bound_over_random_pairs():
    grid = build_grid(1, 128, "full-sphere")
    rng = np.random.default_rng(42)
    vals = 1.0 + 0.3 * np.cos(3.0 * grid.phi) + 0.1 * rng.standard_normal(grid.size)
    vals = np.clip(vals, 0.5, None)
    rho = RadialField(grid, vals)
    params = KernelParams(s=0.5, n=1)
    a_min = 1.0  # at xi the radii are 1 + xi*(vals-1) >= min(vals, 1)
    for _ in range(200):
        y, x = rng.integers(0, grid.size, size=2)
        if y == x:
            continue
        xi = rng.random()
        a_lo = min(1.0 + xi * (vals[y] - 1.0), 1.0 + xi * (vals[x] - 1.0), a_min)
        bound = (a_lo * grid.chord[y, x]) ** (-params.p)
        assert kernel_K(xi, rho, y, x, params) <= bound * (1.0 + 1e-12)


def test_corrected_mass_matches_analytic_circle_integral():
    params = KernelParams(s=0.5, n=1)
    exact = circle_mass(params.s)
    errs = []
    for res in (256, 512):
        grid = build_grid(1, res, "full-sphere")
        m = hs_reference(grid, params, "full-sphere") * params.s
        assert np.ptp(m) < 1e-9 * exact
        errs.append(abs(m[0] - exact))
    assert errs[0] < 1e-4 * exact
    assert errs[1] < 0.5 * errs[0]


def test_raw_punctured_mass_is_much_worse():
    params = KernelParams(s=0.5, n=1)
    exact = circle_mass(params.s)
    grid = build_grid(1, 256, "full-sphere")
    row = grid.chord[0].copy()
    row[0] = 1.0
    f = row ** (-params.s)
    f[0] = 0.0
    raw = float(f @ grid.weights)
    corrected = hs_reference(grid, params, "full-sphere")[0] * params.s
    assert abs(raw - exact) > 20.0 * abs(corrected - exact)
    # the raw defect has the predicted zeta-term size
    h = grid.h
    predicted = 2.0 * riemann_zeta(params.s) * h ** (1.0 - params.s)
    assert (raw - exact) == pytest.approx(predicted, rel=0.05)


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_corrected_mass_other_orders(s):
    params = KernelParams(s=s, n=1)
    grid = build_grid(1, 512, "full-sphere")
    m = hs_reference(grid, params, "full-sphere")[0] * s
    assert m == pytest.approx(circle_mass(s), rel=2e-4)


def test_kernel_bound_excess_matches_pairwise_loop():
    from capflow.validation import kernel_bound_excess

    resolution, pairs, s, seed = 64, 300, 0.5, 4
    grid = build_grid(1, resolution, "full-sphere")
    rho = RadialField(grid, 1.0 + 0.3 * np.cos(2 * grid.phi))
    params = KernelParams(s)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for xi in (0.0, 0.37, 1.0):
        pts = (1.0 + xi * (rho.values - 1.0))[:, None] * grid.nodes
        D2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        ratio2 = D2 / np.maximum(grid.chord**2, 1e-300)
        np.fill_diagonal(ratio2, np.inf)
        kappa = float(np.sqrt(ratio2.min())) ** -params.p
        idx = rng.integers(0, resolution, size=(pairs // 3 + 1, 2))
        for i, j in idx[idx[:, 0] != idx[:, 1]]:
            val = kernel_K(xi, rho, int(j), int(i), params)
            worst = max(worst, val * grid.chord[i, j] ** params.p / kappa)
    assert kernel_bound_excess(resolution, pairs, s, seed) == worst
