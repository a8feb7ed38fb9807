"""Discretization of the upper hemisphere and the full sphere.

The surface of interest is a star-shaped hypersurface written in radial
coordinates over the upper unit hemisphere: points rho(x)*x with x on the
hemisphere and rho > 0.  Everything downstream (singular integrals, the
evolution solver, the diagnostics) consumes the grids built here: unit
nodes, quadrature weights, boundary markers, the squared chord |y - x|^2 of
every node pair (the only pairwise fact the operators need), and
finite-difference stencils (whose `eta` is the outward conormal on the
equator).

n = 1 (curves in the half-plane) is the reference case: nodes are equally
spaced angles with trapezoidal weights on the hemisphere and a uniform
periodic rule on the full circle.  n = 2 uses a latitude-longitude product
grid with exact spherical-cap band weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SphereGrid",
    "RadialField",
    "Stencils",
    "build_grid",
    "double_grid",
    "reflect_field",
    "gradient_values",
    "quad_integrate",
]

# Least grid resolution: nodes for n = 1, latitude rings for n = 2
MIN_RESOLUTION = 8


@dataclass(eq=False)
class SphereGrid:
    """Quadrature grid on the hemisphere or the full sphere.

    Attributes
    ----------
    n : int
        Surface dimension (1 or 2); nodes live in R^(n+1).
    topology : str
        "hemisphere" or "full-sphere".
    nodes : ndarray, shape (N, n+1)
        Unit vectors.
    weights : ndarray, shape (N,)
        Positive quadrature weights in surface-measure units.
    boundary_mask : ndarray of bool, shape (N,)
        True exactly at nodes on the equator x_{n+1} = 0 (hemisphere only).
    chord2 : ndarray, shape (N, N), read-only
        Squared chords |y - x|^2 = 2 - 2 x.y of all node pairs, with a
        zero diagonal.
    h : float or None
        Angular spacing of the n=1 parametrization (None for n=2).
    phi : ndarray or None
        Parameter angles for n=1 grids.
    adjacent : ndarray of int, shape (N, 2), or None
        Parameter-space neighbors of each node (used by the singular
        quadrature correction); -1 marks a missing neighbor.  None for
        n=2, where the correction is not applied.
    beta, gamma : ndarray or None
        Colatitude and longitude of each node for n=2 grids.
    dbeta, dgamma : float or None
        Ring spacing in colatitude and node spacing in longitude (n=2).
    ring_counts : ndarray of int or None
        Nodes per latitude ring, pole to pole (n=2); nodes are stored ring
        by ring in order of increasing gamma.
    """

    n: int
    topology: str
    nodes: np.ndarray
    weights: np.ndarray
    boundary_mask: np.ndarray
    chord2: np.ndarray
    h: float | None = None
    phi: np.ndarray | None = None
    adjacent: np.ndarray | None = None
    beta: np.ndarray | None = None
    gamma: np.ndarray | None = None
    dbeta: float | None = None
    dgamma: float | None = None
    ring_counts: np.ndarray | None = None
    _doubled: tuple["SphereGrid", np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _stencils: "Stencils | None" = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def boundary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask)

    def stencils(self) -> "Stencils":
        """Finite-difference stencils of this grid, built once and cached."""
        if self._stencils is None:
            self._stencils = _build_stencils(self)
        return self._stencils


@dataclass(eq=False)
class RadialField:
    """Radial function rho sampled on a grid; rho finite and > 0 node-wise.

    The values are a read-only copy of the samples passed in, so values
    derived from them and cached on the field cannot go stale.
    """

    grid: SphereGrid
    values: np.ndarray
    # (key, (R1, R2)) of the last remainder pair, filled by nonlocal_ops
    _remainders: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = np.array(self.values, dtype=float)
        self.values.setflags(write=False)
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"field has {self.values.shape} values for {self.grid.size} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("radial field must be finite")
        if np.min(self.values) <= 0.0:
            raise ValueError("radial field must be strictly positive (star-shaped)")


@dataclass(frozen=True, eq=False)
class Stencils:
    """Finite-difference index arrays and tangent frame of one grid.

    Attributes
    ----------
    boundary : ndarray of int, shape (m,)
        Boundary nodes, in increasing order; positions k below index it.
    inward : ndarray of int, shape (m, 2)
        The two nodes next to each boundary node on its geodesic into the
        interior (its meridian for n=2).
    step : float
        Spacing of that geodesic stencil (h for n=1, dbeta for n=2).
    eta : ndarray, shape (m, n+1)
        Unit tangent at each boundary node along which `conormal`
        differentiates (the outward conormal).
    dgamma : float or None
        Node spacing in each ring (n=2).
    meridian, ring : ndarray of int, shape (N, 2) or None
        For n=2, the neighbours of each node at beta -+ dbeta and at
        gamma -+ dgamma.  The node itself stands in where a neighbour is
        missing; those rows are replaced by the boundary or pole stencil.
    e_beta, e_gamma : ndarray, shape (N, 3) or None
        Coordinate frame of each node (n=2).
    sin_beta : ndarray or None
        sin(beta) of each node's ring, 1 at the poles (n=2).
    poles : ndarray of int or None
        Pole nodes (n=2).
    pole_arms : ndarray of int, shape (P, 4) or None
        Nodes of the ring next to each pole at gamma = 0, pi/2, pi, 3pi/2.
    pole_sign : ndarray or None
        +1 at the north pole, -1 at the south pole.
    """

    boundary: np.ndarray
    inward: np.ndarray
    step: float
    eta: np.ndarray
    dgamma: float | None = None
    meridian: np.ndarray | None = None
    ring: np.ndarray | None = None
    e_beta: np.ndarray | None = None
    e_gamma: np.ndarray | None = None
    sin_beta: np.ndarray | None = None
    poles: np.ndarray | None = None
    pole_arms: np.ndarray | None = None
    pole_sign: np.ndarray | None = None

    def conormal(self, u: np.ndarray) -> np.ndarray:
        """Outward conormal derivative of samples u at every boundary node.

        One-sided second-order stencil along the geodesic into the
        interior, signed so that the conormal points out of the hemisphere.
        """
        b, i1, i2 = self.boundary, self.inward[:, 0], self.inward[:, 1]
        return (3.0 * u[b] - 4.0 * u[i1] + u[i2]) / (2.0 * self.step)


# ----------------------------------------------------------------------
# grid construction
# ----------------------------------------------------------------------


def build_grid(n: int, resolution: int, topology: str) -> SphereGrid:
    """Build a quadrature grid on the (hemi)sphere.

    Parameters
    ----------
    n : int
        Surface dimension, 1 or 2.
    resolution : int
        Node count for n=1; number of latitude rings for n=2.  At least
        MIN_RESOLUTION.
    topology : str
        "hemisphere" or "full-sphere".

    For n=1 hemisphere grids the nodes are phi_i = i*pi/(resolution-1)
    with both endpoints on the equator; full-circle grids are uniform on
    [0, 2*pi).  For n=2 the latitude rings include the endpoints (pole and
    equator), with exact cap/band areas as weights.
    """
    if topology not in ("hemisphere", "full-sphere"):
        raise ValueError(f"unknown topology {topology!r}")
    if resolution < MIN_RESOLUTION:
        raise ValueError(
            f"resolution must be at least {MIN_RESOLUTION}, got {resolution}"
        )
    if n == 1:
        return _build_circle(resolution, topology)
    if n == 2:
        return _build_sphere2(resolution, topology)
    raise ValueError(f"surface dimension must be 1 or 2, got {n}")


def _pairwise(nodes: np.ndarray) -> np.ndarray:
    """Read-only |y - x|^2 = 2 - 2 x.y of unit nodes, zero on the diagonal;
    the clip keeps every entry >= 0."""
    chord2 = 2.0 - 2.0 * np.clip(nodes @ nodes.T, -1.0, 1.0)
    np.fill_diagonal(chord2, 0.0)
    chord2.setflags(write=False)
    return chord2


def _build_circle(resolution: int, topology: str) -> SphereGrid:
    N = resolution
    if topology == "hemisphere":
        h = math.pi / (N - 1)
        phi = h * np.arange(N)
        weights = np.full(N, h)
        weights[0] = weights[-1] = 0.5 * h
        boundary = np.zeros(N, dtype=bool)
        boundary[0] = boundary[-1] = True
        adjacent = np.column_stack([np.arange(N) - 1, np.arange(N) + 1])
        adjacent[0, 0] = -1
        adjacent[-1, 1] = -1
    else:
        h = 2.0 * math.pi / N
        phi = h * np.arange(N)
        weights = np.full(N, h)
        boundary = np.zeros(N, dtype=bool)
        adjacent = np.column_stack(
            [(np.arange(N) - 1) % N, (np.arange(N) + 1) % N]
        )
    nodes = np.column_stack([np.cos(phi), np.sin(phi)])
    return SphereGrid(
        n=1,
        topology=topology,
        nodes=nodes,
        weights=weights,
        boundary_mask=boundary,
        chord2=_pairwise(nodes),
        h=h,
        phi=phi,
        adjacent=adjacent,
    )


def _rings(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First node of each ring, ring of each node, and each node's position
    in its ring, for nodes stored ring by ring."""
    start = np.cumsum(counts) - counts
    ring = np.repeat(np.arange(counts.size), counts)
    return start, ring, np.arange(ring.size) - start[ring]


def _build_sphere2(resolution: int, topology: str) -> SphereGrid:
    hemisphere = topology == "hemisphere"
    dbeta = 0.5 * math.pi / (resolution - 1)
    betas = dbeta * np.arange(resolution if hemisphere else 2 * resolution - 1)
    n_gamma = 2 * resolution + (2 * resolution) % 4  # multiple of 4 for pole stencils
    dgamma = 2.0 * math.pi / n_gamma
    counts = np.full(betas.size, n_gamma)
    poles = [0] if hemisphere else [0, -1]
    counts[poles] = 1
    lo = np.maximum(betas - 0.5 * dbeta, 0.0)
    hi = np.minimum(betas + 0.5 * dbeta, 0.5 * math.pi if hemisphere else math.pi)
    band = 2.0 * math.pi * (np.cos(lo) - np.cos(hi))

    start, ring, pos = _rings(counts)
    beta, gamma = betas[ring], pos * dgamma
    nodes = np.column_stack(
        [np.sin(beta) * np.cos(gamma), np.sin(beta) * np.sin(gamma), np.cos(beta)]
    )
    # Pole nodes sit exactly on the axis (cos beta is exactly +-1 there).
    nodes[start[poles], :2] = 0.0
    return SphereGrid(
        n=2,
        topology=topology,
        nodes=nodes,
        weights=(band / counts)[ring],
        boundary_mask=hemisphere & (ring == counts.size - 1),
        chord2=_pairwise(nodes),
        beta=beta,
        gamma=gamma,
        dbeta=dbeta,
        dgamma=dgamma,
        ring_counts=counts,
    )


# ----------------------------------------------------------------------
# reflection across the equator
# ----------------------------------------------------------------------


def double_grid(grid: SphereGrid) -> tuple[SphereGrid, np.ndarray]:
    """Full-sphere grid obtained by reflecting a hemisphere grid.

    Returns the doubled grid together with an index map: entry k is the
    hemisphere node whose value an even extension places at doubled node
    k.  Equator nodes are shared, not duplicated.  The result is cached on
    the hemisphere grid, so repeated calls are cheap.
    """
    if grid.topology != "hemisphere":
        raise ValueError("double_grid expects a hemisphere grid")
    if grid._doubled is not None:
        return grid._doubled

    if grid.n == 1:
        N = grid.size
        full = build_grid(1, 2 * (N - 1), "full-sphere")
        k = np.arange(full.size)
        index_map = np.where(k < N, k, 2 * (N - 1) - k)
    else:
        full = build_grid(2, grid.ring_counts.size, "full-sphere")
        _, ring, pos = _rings(full.ring_counts)
        mirrored = np.minimum(ring, ring[-1] - ring)
        # Node ordering within a ring is by gamma in both grids, so the
        # hemisphere index is the ring's first node plus the in-ring position.
        index_map = _rings(grid.ring_counts)[0][mirrored] + pos
    grid._doubled = (full, index_map)
    return grid._doubled


def reflect_field(rho: RadialField) -> RadialField:
    """Even extension of a hemisphere field across the equator."""
    if rho.grid.topology != "hemisphere":
        raise ValueError("reflect_field expects a field on a hemisphere grid")
    full, index_map = double_grid(rho.grid)
    return RadialField(full, rho.values[index_map])


# ----------------------------------------------------------------------
# tangential calculus
# ----------------------------------------------------------------------


def gradient_values(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Tangential gradient of per-node samples as ambient vectors.

    Second-order finite differences: centered in the interior (periodic
    on the full circle), one-sided at the two hemisphere endpoints.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise ValueError("sample count does not match grid size")
    if grid.n == 2:
        return _gradient_sphere2(grid, values)
    du = (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * grid.h)
    grad = du[:, None] * np.column_stack([-grid.nodes[:, 1], grid.nodes[:, 0]])
    if grid.topology == "hemisphere":
        # One-sided at the endpoints, where the conormal is -+ the tangent.
        st = grid.stencils()
        grad[st.boundary] = st.conormal(values)[:, None] * st.eta
    return grad


def _build_stencils(grid: SphereGrid) -> Stencils:
    bidx = grid.boundary_indices()
    if grid.n == 1:
        # The hemisphere endpoints: phi = 0 steps forward, phi = pi back.
        into = np.where(bidx == 0, 1, -1)
        tau = np.column_stack([-grid.nodes[bidx, 1], grid.nodes[bidx, 0]])
        return Stencils(
            boundary=bidx,
            inward=bidx[:, None] + into[:, None] * np.array([1, 2]),
            step=grid.h,
            eta=-into[:, None] * tau,
        )

    counts = grid.ring_counts
    start, ring_of, pos = _rings(counts)
    last = counts.size - 1

    def at(r: np.ndarray, p: np.ndarray) -> np.ndarray:
        return start[r] + p % counts[r]

    meridian = np.column_stack(
        [at(np.maximum(ring_of - 1, 0), pos), at(np.minimum(ring_of + 1, last), pos)]
    )
    ring = np.column_stack([at(ring_of, pos - 1), at(ring_of, pos + 1)])
    # The frame must be these array expressions: scalar and array trig can
    # differ in the last bit, and the boundary rows must equal the full ones.
    beta, gamma = grid.beta, grid.gamma
    e_beta = np.column_stack(
        [np.cos(beta) * np.cos(gamma), np.cos(beta) * np.sin(gamma), -np.sin(beta)]
    )
    e_gamma = np.column_stack([-np.sin(gamma), np.cos(gamma), np.zeros_like(gamma)])
    sin_beta = np.sin(beta)
    poles = np.flatnonzero(counts[ring_of] == 1)
    sin_beta[poles] = 1.0
    north = ring_of[poles] == 0
    adjacent = np.where(north, 1, last - 1)
    pole_arms = start[adjacent][:, None] + (counts[adjacent] // 4)[:, None] * np.arange(4)
    inner = meridian[bidx, 0]
    return Stencils(
        boundary=bidx,
        inward=np.column_stack([inner, meridian[inner, 0]]),
        step=grid.dbeta,
        eta=e_beta[bidx],
        dgamma=grid.dgamma,
        meridian=meridian,
        ring=ring,
        e_beta=e_beta,
        e_gamma=e_gamma,
        sin_beta=sin_beta,
        poles=poles,
        pole_arms=pole_arms,
        pole_sign=np.where(north, 1.0, -1.0),
    )


def _gradient_sphere2(grid: SphereGrid, u: np.ndarray) -> np.ndarray:
    st = grid.stencils()
    ub = (u[st.meridian[:, 1]] - u[st.meridian[:, 0]]) / (2.0 * grid.dbeta)
    # One-sided at the equator, where the conormal is e_beta.
    ub[st.boundary] = st.conormal(u)
    ug = (u[st.ring[:, 1]] - u[st.ring[:, 0]]) / (2.0 * grid.dgamma)
    grad = ub[:, None] * st.e_beta + (ug / st.sin_beta)[:, None] * st.e_gamma
    # Pole: centered differences along two orthogonal meridians.
    arms = u[st.pole_arms]
    grad[st.poles, :2] = (
        st.pole_sign[:, None] * (arms[:, :2] - arms[:, 2:]) / (2.0 * grid.dbeta)
    )
    grad[st.poles, 2] = 0.0
    return grad


def quad_integrate(grid: SphereGrid, samples: np.ndarray) -> float:
    """Quadrature of per-node samples over the grid's surface."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.size,):
        raise ValueError(
            f"{samples.shape[0]} samples for a grid of {grid.size} nodes"
        )
    return float(grid.weights @ samples)
