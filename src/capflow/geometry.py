"""Discretization of the upper hemisphere and the full sphere.

The surface of interest is a star-shaped hypersurface written in radial
coordinates over the upper unit hemisphere: points rho(x)*x with x on the
hemisphere and rho > 0.  Everything downstream (singular integrals, the
evolution solver, the diagnostics) consumes the grids built here: unit
nodes, quadrature weights, boundary markers, the squared chord |y - x|^2 of
the node pairs a pass reads (the only pairwise fact the operators need,
formed on demand by `SphereGrid.chord2`: a grid stores no N x N table), and
one finite-difference stencil record of the same shape for n = 1 and n = 2:
it holds the outward conormal `eta` on the equator, and `gradient_values`
forms the one tangential gradient from it.

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
    "gradient_values",
    "quad_integrate",
]

# Least grid resolution: nodes for n = 1, latitude rings for n = 2
MIN_RESOLUTION = 8


@dataclass(eq=False)
class SphereGrid:
    """Quadrature grid on the hemisphere or the full sphere; `build_grid`
    makes its arrays read-only, as the chords and the stencils derive from
    them.

    Attributes
    ----------
    n : int
        Surface dimension (1 or 2); nodes live in R^(n+1).
    topology : str
        "hemisphere" or "full-sphere".
    resolution : int
        The `build_grid` resolution the grid was built at.
    nodes : ndarray, shape (N, n+1)
        Unit vectors.
    weights : ndarray, shape (N,)
        Positive quadrature weights in surface-measure units.
    boundary_mask : ndarray of bool, shape (N,)
        True exactly at nodes on the equator x_{n+1} = 0 (hemisphere only).
    h : float or None
        Angular spacing of the n=1 parametrization (None for n=2).
    phi : ndarray or None
        Parameter angles for n=1 grids.
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
    resolution: int
    nodes: np.ndarray
    weights: np.ndarray
    boundary_mask: np.ndarray
    h: float | None = None
    phi: np.ndarray | None = None
    beta: np.ndarray | None = None
    gamma: np.ndarray | None = None
    dbeta: float | None = None
    dgamma: float | None = None
    ring_counts: np.ndarray | None = None
    # a cache, never a constructor argument, so `dataclasses.replace`
    # starts it empty
    _stencils: "Stencils | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def chord2(
        self, rows=slice(None), cols=slice(None), out: np.ndarray | None = None
    ) -> np.ndarray:
        """Squared chords |y - x|^2 for x the nodes `rows` and y the nodes
        `cols` (index arrays or slices; all nodes by default), written into
        `out` when given.

        Summed entry by entry as sum_d (x_d - y_d)^2, so the table is
        bitwise symmetric, exactly zero on the diagonal and never negative,
        and an entry does not depend on which other rows or columns are
        asked for.  (A matrix product rounds a row by how many rows it is
        given, and 2 - 2 x.y loses digits on near pairs.)
        """
        # coordinates as rows, so each y_d is read contiguously
        x, y = self.nodes[rows].T, np.ascontiguousarray(self.nodes[cols].T)
        out = np.subtract(x[0, :, None], y[0], out=out)
        np.square(out, out=out)
        term = np.empty_like(out)
        for d in range(1, x.shape[0]):
            np.subtract(x[d, :, None], y[d], out=term)
            np.square(term, out=term)
            out += term
        return out

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
    # (key, (R1, R2)) of the last remainder pair, filled by nonlocal_ops;
    # not a constructor argument, so `dataclasses.replace` starts it empty
    _remainders: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
    """Finite-difference index arrays and tangent frame of one grid, for
    n = 1 and n = 2 alike; `_build_stencils` makes its arrays read-only.

    Attributes
    ----------
    boundary : ndarray of int, shape (m,)
        Boundary nodes, in increasing order; positions k below index it.
    inward : ndarray of int, shape (m, 2)
        The two nodes next to each boundary node on its meridian into the
        interior.
    step : float
        Meridian spacing (h for n=1, dbeta for n=2).
    eta : ndarray, shape (m, n+1)
        Unit tangent at each boundary node along which `conormal`
        differentiates (the outward conormal): the boundary rows of e_beta.
    meridian : ndarray of int, shape (N, 2)
        The neighbours of each node at phi -+ h (n=1, periodic on the full
        circle) or at beta -+ dbeta (n=2).  The node itself stands in where
        a neighbour is missing; those rows are replaced by the boundary or
        pole stencil.
    e_beta : ndarray, shape (N, n+1)
        Unit tangent along the meridian, towards its second neighbour; on
        n=1 turned outward at the endpoint phi = 0.
    dgamma : float or None
        Node spacing in each ring (n=2).
    ring, e_gamma : ndarray, shape (N, 2) and (N, 3), or None
        For n=2, the neighbours of each node at gamma -+ dgamma, and the
        unit tangent along its ring.
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
    meridian: np.ndarray
    e_beta: np.ndarray
    dgamma: float | None = None
    ring: np.ndarray | None = None
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


def _read_only(record):
    """The record (a grid, its stencils or a flow context), with every
    array made read-only, and the array a view reads from too."""
    for value in vars(record).values():
        while isinstance(value, np.ndarray):
            value.setflags(write=False)
            value = value.base
    return record


def _build_circle(resolution: int, topology: str) -> SphereGrid:
    N = resolution
    if topology == "hemisphere":
        h = math.pi / (N - 1)
        phi = h * np.arange(N)
        weights = np.full(N, h)
        weights[0] = weights[-1] = 0.5 * h
        boundary = np.zeros(N, dtype=bool)
        boundary[0] = boundary[-1] = True
    else:
        h = 2.0 * math.pi / N
        phi = h * np.arange(N)
        weights = np.full(N, h)
        boundary = np.zeros(N, dtype=bool)
    nodes = np.column_stack([np.cos(phi), np.sin(phi)])
    grid = SphereGrid(
        n=1,
        topology=topology,
        resolution=resolution,
        nodes=nodes,
        weights=weights,
        boundary_mask=boundary,
        h=h,
        phi=phi,
    )
    return _read_only(grid)


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
    grid = SphereGrid(
        n=2,
        topology=topology,
        resolution=resolution,
        nodes=nodes,
        weights=(band / counts)[ring],
        boundary_mask=hemisphere & (ring == counts.size - 1),
        beta=beta,
        gamma=gamma,
        dbeta=dbeta,
        dgamma=dgamma,
        ring_counts=counts,
    )
    return _read_only(grid)


# ----------------------------------------------------------------------
# reflection across the equator
# ----------------------------------------------------------------------


def double_grid(grid: SphereGrid) -> tuple[SphereGrid, np.ndarray]:
    """Full-sphere grid obtained by reflecting a hemisphere grid.

    Returns the doubled grid together with an index map: entry k is the
    hemisphere node whose value an even extension places at doubled node
    k, so `values[index_map]` is the even extension of a hemisphere field.
    Equator nodes are shared, not duplicated.  Each call builds a new grid.
    """
    if grid.topology != "hemisphere":
        raise ValueError("double_grid expects a hemisphere grid")
    if grid.n == 1:
        N = grid.size
        full = build_grid(1, 2 * (N - 1), "full-sphere")
        k = np.arange(full.size)
        index_map = np.where(k < N, k, 2 * (N - 1) - k)
    else:
        full = build_grid(2, grid.resolution, "full-sphere")
        _, ring, pos = _rings(full.ring_counts)
        mirrored = np.minimum(ring, ring[-1] - ring)
        # Node ordering within a ring is by gamma in both grids, so the
        # hemisphere index is the ring's first node plus the in-ring position.
        index_map = _rings(grid.ring_counts)[0][mirrored] + pos
    return full, index_map


# ----------------------------------------------------------------------
# tangential calculus
# ----------------------------------------------------------------------


def gradient_values(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Tangential gradient of per-node samples as ambient vectors.

    Second-order finite differences on the grid's stencils: centred along
    the meridians (periodic on the full circle), one-sided along the
    conormal at the boundary; on n = 2 also centred along the rings, and
    along two orthogonal meridians at each pole.
    """
    u = np.asarray(values, dtype=float)
    if u.shape != (grid.size,):
        raise ValueError("sample count does not match grid size")
    st = grid.stencils()
    ub = (u[st.meridian[:, 1]] - u[st.meridian[:, 0]]) / (2.0 * st.step)
    # One-sided at the boundary, where the conormal is e_beta.
    ub[st.boundary] = st.conormal(u)
    grad = ub[:, None] * st.e_beta
    if st.ring is None:
        return grad
    ug = (u[st.ring[:, 1]] - u[st.ring[:, 0]]) / (2.0 * st.dgamma)
    grad += (ug / st.sin_beta)[:, None] * st.e_gamma
    arms = u[st.pole_arms]
    grad[st.poles, :2] = (
        st.pole_sign[:, None] * (arms[:, :2] - arms[:, 2:]) / (2.0 * st.step)
    )
    grad[st.poles, 2] = 0.0
    return grad


def _build_stencils(grid: SphereGrid) -> Stencils:
    bidx = np.flatnonzero(grid.boundary_mask)
    rings = {}
    if grid.n == 1:
        k = np.arange(grid.size)
        steps = np.column_stack([k - 1, k + 1])
        meridian = np.clip(steps, 0, k[-1]) if bidx.size else steps % grid.size
        e_beta = np.column_stack([-grid.nodes[:, 1], grid.nodes[:, 0]])
        # phi grows into the interior at the endpoint phi = 0
        e_beta[bidx[:1]] *= -1.0
    else:
        counts = grid.ring_counts
        start, ring_of, pos = _rings(counts)
        last = counts.size - 1

        def at(r: np.ndarray, p: np.ndarray) -> np.ndarray:
            return start[r] + p % counts[r]

        meridian = np.column_stack(
            [at(np.maximum(ring_of - 1, 0), pos), at(np.minimum(ring_of + 1, last), pos)]
        )
        # The frame must be these array expressions: scalar and array trig
        # can differ in the last bit, and the boundary rows must equal the
        # full ones.
        beta, gamma = grid.beta, grid.gamma
        e_beta = np.column_stack(
            [np.cos(beta) * np.cos(gamma), np.cos(beta) * np.sin(gamma), -np.sin(beta)]
        )
        sin_beta = np.sin(beta)
        poles = np.flatnonzero(counts[ring_of] == 1)
        sin_beta[poles] = 1.0
        north = ring_of[poles] == 0
        arm_ring = np.where(north, 1, last - 1)
        rings = dict(
            dgamma=grid.dgamma,
            ring=np.column_stack([at(ring_of, pos - 1), at(ring_of, pos + 1)]),
            e_gamma=np.column_stack(
                [-np.sin(gamma), np.cos(gamma), np.zeros_like(gamma)]
            ),
            sin_beta=sin_beta,
            poles=poles,
            pole_arms=start[arm_ring][:, None]
            + (counts[arm_ring] // 4)[:, None] * np.arange(4),
            pole_sign=np.where(north, 1.0, -1.0),
        )
    # From the meridian neighbour that is not the node itself, the next
    # node on that side.
    side = (meridian[bidx, 0] == bidx).astype(int)
    inner = meridian[bidx, side]
    stencils = Stencils(
        boundary=bidx,
        inward=np.column_stack([inner, meridian[inner, side]]),
        step=grid.h if grid.n == 1 else grid.dbeta,
        eta=e_beta[bidx],
        meridian=meridian,
        e_beta=e_beta,
        **rings,
    )
    return _read_only(stencils)


def quad_integrate(grid: SphereGrid, samples: np.ndarray) -> float:
    """Quadrature of per-node samples over the grid's surface."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.size,):
        raise ValueError(
            f"{samples.shape[0]} samples for a grid of {grid.size} nodes"
        )
    return float(grid.weights @ samples)
