import numpy as np
import pytest

from capflow import (
    KernelParams,
    RadialField,
    build_grid,
    divergence_identity_residual,
    holder_norm,
    interpolation_check,
    lemma521_bound,
    volume,
)

S = 0.5
PARAMS = KernelParams(S)


def _brute_seminorm(u, grid, alpha):
    best = 0.0
    for i in range(grid.size):
        for j in range(grid.size):
            if i == j:
                continue
            d = np.linalg.norm(grid.nodes[i] - grid.nodes[j])
            best = max(best, abs(u[i] - u[j]) / d**alpha)
    return best


# ----------------------------------------------------------------------
# Hoelder norms
# ----------------------------------------------------------------------


def test_holder_norm_constant():
    grid = build_grid(1, 64, "full-sphere")
    est = holder_norm(np.full(64, -2.5), grid, 0.5)
    assert est.sup_part == 2.5
    assert est.seminorm == 0.0
    assert est.total == 2.5


def test_holder_norm_matches_pairwise_search():
    grid = build_grid(1, 48, "full-sphere")
    u = np.cos(2 * grid.phi)
    est = holder_norm(u, grid, 0.5)
    assert est.sup_part == pytest.approx(np.abs(u).max())
    assert est.seminorm == pytest.approx(_brute_seminorm(u, grid, 0.5), rel=1e-12)


def test_holder_seminorm_grows_with_steepness():
    grid = build_grid(1, 128, "full-sphere")
    semis = []
    for eps in (1.0, 0.3, 0.1):
        u = np.tanh((grid.phi - np.pi) / eps)
        semis.append(holder_norm(u, grid, 0.5).seminorm)
    assert semis[0] < semis[1] < semis[2]


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2])
def test_holder_norm_rejects_bad_exponent(alpha):
    grid = build_grid(1, 16, "full-sphere")
    with pytest.raises(ValueError, match="alpha"):
        holder_norm(np.ones(16), grid, alpha)


# ----------------------------------------------------------------------
# interpolation inequality
# ----------------------------------------------------------------------


def test_interpolation_check_constant_is_exact():
    grid = build_grid(1, 64, "full-sphere")
    ratio = interpolation_check(np.full(64, 3.0), grid, 0.25, 0.75, 0.5)
    assert ratio == pytest.approx(1.0, rel=1e-12)


def test_interpolation_check_mixes_the_exponents():
    # the mixed norm is taken at theta_mix*s1 + (1-theta_mix)*s2 = 0.5
    grid = build_grid(1, 64, "full-sphere")
    u = np.cos(3 * grid.phi)
    norm = {a: holder_norm(u, grid, a).total for a in (0.25, 0.5, 0.75)}
    expect = norm[0.5] / (norm[0.25] ** 0.5 * norm[0.75] ** 0.5)
    assert interpolation_check(u, grid, 0.25, 0.75, 0.5) == expect


def test_interpolation_check_bounded_on_smooth_family():
    grid = build_grid(1, 128, "full-sphere")
    for k in (1, 2, 4):
        u = np.cos(k * grid.phi)
        ratio = interpolation_check(u, grid, 0.25, 0.75, 0.5)
        assert 0.1 < ratio < 10.0


def test_interpolation_check_stable_under_refinement():
    ratios = []
    for N in (64, 128):
        grid = build_grid(1, N, "full-sphere")
        u = np.cos(2 * grid.phi)
        ratios.append(interpolation_check(u, grid, 0.3, 0.7, 0.4))
    assert ratios[1] == pytest.approx(ratios[0], rel=0.2)


def test_interpolation_check_rejects_bad_mix():
    grid = build_grid(1, 16, "full-sphere")
    with pytest.raises(ValueError, match="mix"):
        interpolation_check(np.ones(16), grid, 0.3, 0.7, 1.5)


# ----------------------------------------------------------------------
# closed-surface divergence identity
# ----------------------------------------------------------------------


def test_divergence_identity_residual_round_circle():
    vals = []
    for N in (256, 512):
        grid = build_grid(1, N, "full-sphere")
        rho = RadialField(grid, np.ones(N))
        vals.append(divergence_identity_residual(rho, N // 5, PARAMS))
    assert vals[1] < 5e-5
    assert vals[1] < 0.5 * vals[0]


def test_divergence_identity_residual_halves_for_wavy_field():
    vals = []
    for N in (256, 512):
        grid = build_grid(1, N, "full-sphere")
        rho = RadialField(grid, 1 + 0.05 * np.cos(2 * grid.phi))
        vals.append(divergence_identity_residual(rho, N // 5, PARAMS))
    assert vals[1] < 0.5 * vals[0]


def test_divergence_identity_residual_rotation_invariant():
    N = 128
    grid = build_grid(1, N, "full-sphere")
    vals = 1 + 0.05 * np.cos(2 * grid.phi) + 0.02 * np.sin(3 * grid.phi)
    shift = 17
    base = divergence_identity_residual(RadialField(grid, vals), 40, PARAMS)
    rolled = divergence_identity_residual(
        RadialField(grid, np.roll(vals, shift)), 40 + shift, PARAMS
    )
    assert rolled == pytest.approx(base, rel=1e-10)


def test_divergence_identity_needs_closed_surface():
    grid = build_grid(1, 65, "hemisphere")
    rho = RadialField(grid, np.ones(65))
    with pytest.raises(ValueError, match="full sphere"):
        divergence_identity_residual(rho, 30, PARAMS)


# ----------------------------------------------------------------------
# uniform tail bound
# ----------------------------------------------------------------------


def test_lemma521_bound_contracts_geometrically():
    out = lemma521_bound([64, 128, 256, 512], S)
    assert all(inc > 0.0 for inc in out["increments"])
    assert all(r <= 0.75 for r in out["ratios"])
    # doubling the resolution scales the tail increment by 2^(-s)
    assert out["ratios"][-1] == pytest.approx(2.0**-S, rel=1e-3)
    assert out["spread"] < 1e-6


def test_lemma521_bound_limit_decreases_with_s():
    limits = {}
    for s in (0.1, 0.9):
        out = lemma521_bound([64, 128, 256], s)
        r = out["ratios"][-1]
        limits[s] = out["values"][-1] + out["increments"][-1] * r / (1.0 - r)
    assert limits[0.1] > limits[0.9]


def test_lemma521_bound_needs_increasing_resolutions():
    with pytest.raises(ValueError, match="resolution"):
        lemma521_bound([128, 64], S)


# ----------------------------------------------------------------------
# enclosed volume
# ----------------------------------------------------------------------


def test_volume_round_shapes():
    grid = build_grid(1, 256, "full-sphere")
    assert volume(RadialField(grid, np.ones(256))) == pytest.approx(np.pi)
    half = build_grid(1, 129, "hemisphere")
    assert volume(RadialField(half, np.ones(129))) == pytest.approx(np.pi / 2)
    sphere = build_grid(2, 24, "full-sphere")
    assert volume(RadialField(sphere, np.ones(sphere.size))) == pytest.approx(
        4 * np.pi / 3, rel=1e-6
    )


@pytest.mark.parametrize("n,c", [(1, 0.8), (1, 1.3), (2, 1.1)])
def test_volume_dilation_scaling(n, c):
    grid = build_grid(n, 128 if n == 1 else 20, "full-sphere")
    v1 = volume(RadialField(grid, np.ones(grid.size)))
    vc = volume(RadialField(grid, np.full(grid.size, c)))
    assert vc == pytest.approx(c ** (n + 1) * v1, rel=1e-12)
