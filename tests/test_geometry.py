import math

import numpy as np
import pytest

from capflow import geometry
from capflow.geometry import (
    RadialField,
    build_grid,
    double_grid,
    gradient_values,
    quad_integrate,
    reflect_field,
)
from capflow.nonlocal_ops import injectivity_ratio


def _ring_slices(grid):
    out, start = [], 0
    for count in grid.ring_counts:
        out.append(slice(start, start + count))
        start += count
    return out


def reference_gradient_sphere2(grid, u):
    """The n = 2 gradient as a loop over latitude rings.

    Independent of the stencil index arrays; `gradient_values` must match
    it bit for bit, since both evaluate the same expressions per node.
    """
    beta, gamma, dbeta = grid.beta, grid.gamma, grid.dbeta
    slices = _ring_slices(grid)
    counts = grid.ring_counts
    n_rings = len(slices)
    grad = np.zeros((grid.size, 3))

    e_beta = np.column_stack(
        [np.cos(beta) * np.cos(gamma), np.cos(beta) * np.sin(gamma), -np.sin(beta)]
    )
    e_gamma = np.column_stack([-np.sin(gamma), np.cos(gamma), np.zeros_like(gamma)])

    def ring_val(r, pos):
        s = slices[r]
        if counts[r] == 1:
            return np.full(pos.shape, u[s][0])
        return u[s][pos % counts[r]]

    for r, s in enumerate(slices):
        if counts[r] == 1:
            # Pole: centered differences along two orthogonal meridians.
            ngam = counts[1] if r == 0 else counts[-2]
            rr = 1 if r == 0 else n_rings - 2
            quarter = ngam // 4
            ring = u[slices[rr]]
            sign = 1.0 if r == 0 else -1.0
            gx = sign * (ring[0] - ring[2 * quarter]) / (2.0 * dbeta)
            gy = sign * (ring[quarter] - ring[3 * quarter]) / (2.0 * dbeta)
            grad[s] = (gx, gy, 0.0)
            continue
        pos = np.arange(counts[r])
        # beta derivative along meridians
        if 0 < r < n_rings - 1:
            ub = (ring_val(r + 1, pos) - ring_val(r - 1, pos)) / (2.0 * dbeta)
        elif r == 0:
            ub = (
                -3.0 * ring_val(r, pos) + 4.0 * ring_val(r + 1, pos) - ring_val(r + 2, pos)
            ) / (2.0 * dbeta)
        else:
            ub = (
                3.0 * ring_val(r, pos) - 4.0 * ring_val(r - 1, pos) + ring_val(r - 2, pos)
            ) / (2.0 * dbeta)
        ring = u[s]
        ug = (np.roll(ring, -1) - np.roll(ring, 1)) / (2.0 * grid.dgamma)
        sb = math.sin(beta[s][0])
        grad[s] = ub[:, None] * e_beta[s] + (ug / sb)[:, None] * e_gamma[s]
    return grad


def reference_conormal_derivative(grid, u, b):
    """Outward conormal derivative at boundary node b, stencil written out."""
    if grid.n == 1:
        h = grid.h
        if b == 0:
            return -(-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
        return (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    slices = _ring_slices(grid)
    counts = grid.ring_counts
    j = b - slices[-1].start
    u1 = u[slices[-2]][j % counts[-2]]
    u2 = u[slices[-3]][j % counts[-3]]
    return (3.0 * u[b] - 4.0 * u1 + u2) / (2.0 * grid.dbeta)


def reference_sphere2_layout(resolution, topology):
    """Nodes, weights, boundary mask, beta and gamma of the n = 2 grid,
    built node by node with scalar trig."""
    dbeta = 0.5 * math.pi / (resolution - 1)
    if topology == "hemisphere":
        betas = dbeta * np.arange(resolution)
    else:
        betas = dbeta * np.arange(2 * resolution - 1)
    n_gamma = 2 * resolution + (2 * resolution) % 4
    counts = np.full(betas.size, n_gamma)
    counts[np.isclose(betas, 0.0) | np.isclose(betas, math.pi)] = 1
    dgamma = 2.0 * math.pi / n_gamma

    nodes, weights, boundary, betalist, gammalist = [], [], [], [], []
    for beta, count in zip(betas, counts):
        lo = max(beta - 0.5 * dbeta, 0.0)
        hi = min(beta + 0.5 * dbeta, math.pi if topology == "full-sphere" else 0.5 * math.pi)
        band = 2.0 * math.pi * (math.cos(lo) - math.cos(hi))
        for j in range(count):
            gamma = j * dgamma
            nodes.append(
                (
                    math.sin(beta) * math.cos(gamma),
                    math.sin(beta) * math.sin(gamma),
                    math.cos(beta),
                )
            )
            weights.append(band / count)
            boundary.append(
                topology == "hemisphere" and math.isclose(beta, 0.5 * math.pi)
            )
            betalist.append(beta)
            gammalist.append(gamma)
    nodes = np.asarray(nodes)
    nodes[np.isclose(betalist, 0.0)] = (0.0, 0.0, 1.0)
    nodes[np.isclose(betalist, math.pi)] = (0.0, 0.0, -1.0)
    return {
        "nodes": nodes,
        "weights": np.asarray(weights),
        "boundary_mask": np.asarray(boundary, dtype=bool),
        "beta": np.asarray(betalist),
        "gamma": np.asarray(gammalist),
        "ring_counts": counts,
    }


def reference_sphere2_index_map(grid, full):
    """Hemisphere node of each doubled n = 2 node, ring by ring."""
    n_rings = grid.ring_counts.size
    ring_of = np.rint(full.beta / full.dbeta).astype(int)
    mirrored = np.minimum(ring_of, 2 * (n_rings - 1) - ring_of)
    offsets = np.concatenate([[0], np.cumsum(grid.ring_counts)])
    pos_in_ring = np.concatenate([np.arange(c) for c in full.ring_counts])
    return offsets[mirrored] + np.where(grid.ring_counts[mirrored] == 1, 0, pos_in_ring)


def sample_fields(grid):
    rng = np.random.default_rng(20260)
    return {
        "height": 1.0 + 0.05 * grid.nodes[:, -1],
        "random": 1.0 + 0.05 * rng.uniform(-1.0, 1.0, grid.size),
    }


def test_hemisphere_endpoints_and_mask():
    g = build_grid(1, 9, "hemisphere")
    assert g.size == 9
    assert np.allclose(g.phi, np.arange(9) * math.pi / 8)
    assert list(np.flatnonzero(g.boundary_mask)) == [0, 8]
    assert np.allclose(g.nodes[0], [1.0, 0.0])
    assert np.allclose(g.nodes[-1], [-1.0, 0.0], atol=1e-15)


def test_nodes_are_unit_vectors():
    for n, topo in [(1, "hemisphere"), (1, "full-sphere"), (2, "hemisphere"), (2, "full-sphere")]:
        g = build_grid(n, 16, topo)
        assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) < 1e-12


def test_weight_sums():
    assert abs(sum(build_grid(1, 513, "hemisphere").weights) - math.pi) < 1e-6
    assert abs(sum(build_grid(1, 512, "full-sphere").weights) - 2 * math.pi) < 1e-10
    assert abs(sum(build_grid(2, 16, "hemisphere").weights) - 2 * math.pi) < 1e-12
    assert abs(sum(build_grid(2, 16, "full-sphere").weights) - 4 * math.pi) < 1e-12


def test_weight_positivity():
    for n, topo in [(1, "hemisphere"), (1, "full-sphere"), (2, "hemisphere"), (2, "full-sphere")]:
        g = build_grid(n, 12, topo)
        assert np.all(g.weights > 0)


def test_chord_symmetric_zero_diagonal():
    g = build_grid(1, 32, "full-sphere")
    # spot value: antipodal nodes two apart
    assert abs(np.sqrt(g.chord2[0, 16]) - 2.0) < 1e-12
    grids = [(1, 33, "hemisphere"), (1, 32, "full-sphere"), (2, 9, "hemisphere"), (2, 9, "full-sphere")]
    for n, resolution, topology in grids:
        g = build_grid(n, resolution, topology)
        assert np.array_equal(g.chord2, g.chord2.T)
        assert np.all(np.diag(g.chord2) == 0.0)
        off = ~np.eye(g.size, dtype=bool)
        expect = 2.0 - 2.0 * np.clip(g.nodes @ g.nodes.T, -1.0, 1.0)
        assert np.array_equal(g.chord2[off], expect[off])
        assert np.all(g.chord2 >= 0.0)
        with pytest.raises(ValueError):
            g.chord2[0, 1] = 1.0
        # the one N x N array of a grid
        square = [k for k, v in vars(g).items() if np.shape(v) == (g.size, g.size)]
        assert square == ["chord2"]


@pytest.mark.parametrize("topology", ["hemisphere", "full-sphere"])
def test_sphere2_grid_matches_node_loop(topology, monkeypatch):
    # chord2 has its own test; skipping it keeps the sweep to resolution 40
    # (6242 doubled nodes) free of N x N arrays
    monkeypatch.setattr(geometry, "_pairwise", lambda nodes: None)
    for resolution in range(8, 41):
        g = build_grid(2, resolution, topology)
        ref = reference_sphere2_layout(resolution, topology)
        for name, value in ref.items():
            assert np.array_equal(getattr(g, name), value), (resolution, name)
        assert g.adjacent is None and g.h is None and g.phi is None
        if topology == "hemisphere":
            full, index_map = double_grid(g)
            assert np.array_equal(index_map, reference_sphere2_index_map(g, full))


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(1, 7, "hemisphere")
    with pytest.raises(ValueError):
        build_grid(3, 16, "hemisphere")
    with pytest.raises(ValueError):
        build_grid(1, 16, "torus")


def test_quad_constant_and_zero():
    g = build_grid(1, 129, "hemisphere")
    assert abs(quad_integrate(g, np.ones(g.size)) - math.pi) < 1e-12
    assert quad_integrate(g, np.zeros(g.size)) == 0.0
    with pytest.raises(ValueError):
        quad_integrate(g, np.ones(g.size - 1))


def test_quad_sin_phi():
    g = build_grid(1, 129, "hemisphere")
    val = quad_integrate(g, np.sin(g.phi))
    assert abs(val - 2.0) < 1e-3


@pytest.mark.parametrize(
    "f,exact",
    [
        (lambda phi: np.sin(phi), 2.0),
        (lambda phi: phi * np.sin(phi), math.pi),
        (lambda phi: np.exp(np.sin(phi)), 6.20875803571111),  # adaptive quadrature
    ],
)
def test_quad_refinement_order(f, exact):
    errs = []
    for N in (65, 129, 257):
        g = build_grid(1, N, "hemisphere")
        errs.append(abs(quad_integrate(g, f(g.phi)) - exact))
    # trapezoid rule: error drops by about 4x per doubling
    assert errs[1] < errs[0] / 2.5
    assert errs[2] < errs[1] / 2.5


def test_gradient_constant_field():
    for topo in ("hemisphere", "full-sphere"):
        g = build_grid(1, 64, topo)
        rho = RadialField(g, np.full(g.size, 2.3))
        assert np.max(np.abs(gradient_values(g, rho.values))) < 1e-13


def test_gradient_linear_in_phi():
    g = build_grid(1, 64, "hemisphere")
    grad = gradient_values(g, g.phi.copy())
    mags = np.linalg.norm(grad, axis=1)
    # the stencils are exact on linear functions
    assert np.max(np.abs(mags - 1.0)) < 1e-10


def test_gradient_cos_phi_accuracy():
    errs = []
    for N in (65, 129):
        g = build_grid(1, N, "hemisphere")
        grad = gradient_values(g, np.cos(g.phi))
        err = np.max(np.abs(np.linalg.norm(grad, axis=1) - np.abs(np.sin(g.phi))))
        errs.append(err)
    assert errs[0] < 5e-3
    assert errs[1] < errs[0] / 3.0  # second order


def test_gradient_tangency():
    g = build_grid(1, 64, "hemisphere")
    rho = RadialField(g, 1.0 + 0.2 * np.sin(g.phi) ** 2)
    grad = gradient_values(g, rho.values)
    assert np.max(np.abs(np.sum(grad * g.nodes, axis=1))) < 1e-10
    g2 = build_grid(2, 12, "hemisphere")
    rho2 = RadialField(g2, 1.0 + 0.1 * g2.nodes[:, 2])
    grad2 = gradient_values(g2, rho2.values)
    assert np.max(np.abs(np.sum(grad2 * g2.nodes, axis=1))) < 1e-10


def test_gradient_sphere2_height_field():
    g = build_grid(2, 24, "hemisphere")
    grad = gradient_values(g, g.nodes[:, 2].copy())
    # grad of x3 on the sphere is -sin(beta) e_beta, magnitude sin(beta)
    sinbeta = np.sqrt(1.0 - g.nodes[:, 2] ** 2)
    mags = np.linalg.norm(grad, axis=1)
    assert np.max(np.abs(mags - sinbeta)) < 5e-3


@pytest.mark.parametrize("topology", ["hemisphere", "full-sphere"])
@pytest.mark.parametrize("resolution", [8, 12, 13, 25])
def test_gradient_sphere2_matches_ring_loop(topology, resolution):
    g = build_grid(2, resolution, topology)
    for u in sample_fields(g).values():
        assert np.array_equal(gradient_values(g, u), reference_gradient_sphere2(g, u))


@pytest.mark.parametrize("n,resolution", [(1, 65), (1, 129), (2, 13), (2, 25)])
def test_boundary_stencil_matches_full_gradient(n, resolution):
    g = build_grid(n, resolution, "hemisphere")
    st = g.stencils()
    assert g.stencils() is st
    assert np.array_equal(st.boundary, g.boundary_indices())
    for u in sample_fields(g).values():
        dn = st.conormal(u)
        ref = [reference_conormal_derivative(g, u, b) for b in st.boundary]
        assert np.array_equal(dn, ref)
        # the conormal component of the boundary rows of the full gradient
        grad = gradient_values(g, u)[st.boundary]
        np.testing.assert_allclose(np.sum(grad * st.eta, axis=1), dn, rtol=1e-13)


def test_conormal_derivative_values():
    g = build_grid(1, 129, "hemisphere")
    st = g.stencils()
    assert st.boundary[0] == 0
    assert abs(st.conormal(np.full(g.size, 1.7))[0]) < 1e-12
    # rho grows moving inward from phi=0, so the outward derivative is -1
    assert abs(st.conormal(1.5 + np.sin(g.phi))[0] - (-1.0)) < 1e-3
    assert abs(st.conormal(2.0 + np.cos(g.phi))[0]) < 1e-3


def test_conormal_derivative_sphere2():
    g = build_grid(2, 24, "hemisphere")
    dn = g.stencils().conormal(1.5 + g.nodes[:, 2])
    # d(cos beta)/d beta = -sin beta = -1 at the equator; eta = +e_beta
    assert abs(dn[0] - (-1.0)) < 5e-3


def test_reflect_constant_and_sin():
    g = build_grid(1, 65, "hemisphere")
    ref = reflect_field(RadialField(g, np.ones(g.size)))
    assert ref.grid.topology == "full-sphere"
    assert ref.grid.size == 2 * (g.size - 1)
    assert np.all(ref.values == 1.0)

    rho = RadialField(g, 1.5 + np.sin(g.phi))
    ref = reflect_field(rho)
    # mirrored node k <-> hemisphere node 2(N-1)-k carries the same value
    N = g.size
    for k in range(N, ref.grid.size):
        assert ref.values[k] == rho.values[2 * (N - 1) - k]
    # equator values shared, not duplicated
    assert ref.values[0] == rho.values[0]
    assert ref.values[N - 1] == rho.values[N - 1]
    with pytest.raises(ValueError):
        reflect_field(ref)


def test_reflect_conormal_jump():
    g = build_grid(1, 129, "hemisphere")
    rho = RadialField(g, 1.5 + np.sin(g.phi) + 0.3 * np.cos(g.phi))
    ref = reflect_field(rho)
    u = ref.values
    h = ref.grid.h
    d_up = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    d_down = (3.0 * u[0] - 4.0 * u[-1] + u[-2]) / (2.0 * h)
    jump = d_up - d_down
    eta_deriv = g.stencils().conormal(rho.values)[0]
    assert abs(abs(jump) - 2.0 * abs(eta_deriv)) < 1e-3


def test_reflect_field_sphere2():
    g = build_grid(2, 12, "hemisphere")
    rho = RadialField(g, 1.0 + 0.2 * g.nodes[:, 2] ** 2)
    ref = reflect_field(rho)
    full = ref.grid
    # even in x3: reflected node (x, y, -z) carries the value at (x, y, z)
    for k in range(full.size):
        x, y, z = full.nodes[k]
        partner = np.argmin(np.linalg.norm(g.nodes - np.array([x, y, abs(z)]), axis=1))
        assert abs(ref.values[k] - rho.values[partner]) < 1e-12


def test_double_grid_cached():
    g = build_grid(1, 33, "hemisphere")
    d1, m1 = double_grid(g)
    d2, m2 = double_grid(g)
    assert d1 is d2 and m1 is m2


def test_radial_field_validation():
    g = build_grid(1, 16, "hemisphere")
    with pytest.raises(ValueError):
        RadialField(g, np.zeros(g.size))
    with pytest.raises(ValueError):
        RadialField(g, np.ones(g.size + 1))
    for bad in (np.nan, np.inf):
        vals = np.ones(g.size)
        vals[3] = bad
        with pytest.raises(ValueError, match="finite"):
            RadialField(g, vals)


def test_radial_field_copies_and_freezes_values():
    g = build_grid(1, 33, "hemisphere")
    src = 1.0 + 0.2 * np.cos(2.0 * g.phi)
    rho = RadialField(g, src)
    kept = rho.values.copy()
    ratio = injectivity_ratio(rho)
    src[5] = 0.01  # would pinch the curve if the field aliased src
    assert np.array_equal(rho.values, kept)
    assert injectivity_ratio(rho) == ratio
    assert injectivity_ratio(RadialField(g, kept)) == ratio
    with pytest.raises(ValueError):
        rho.values[0] = 2.0


@pytest.mark.parametrize("topology", ["hemisphere", "full-sphere"])
def test_sphere2_ring_fields(topology):
    g = build_grid(2, 12, topology)
    assert g.ring_counts.sum() == g.size
    assert g.ring_counts[0] == 1
    assert g.beta.shape == g.gamma.shape == (g.size,)
    assert np.allclose(g.nodes[:, 2], np.cos(g.beta))
    # rings are stored pole first, with gamma increasing by dgamma
    ring = slice(1, 1 + g.ring_counts[1])
    assert np.allclose(g.beta[ring], g.dbeta)
    assert np.allclose(np.diff(g.gamma[ring]), g.dgamma)
    assert build_grid(1, 16, topology).ring_counts is None
