"""Run-time and test-time checks mirroring the analytic apparatus.

Discrete Hoelder norms on the grid, the interpolation-ratio check between
three such norms, the divergence identity on the sphere (a vector-valued
integral identity every radial graph must satisfy), a uniform-boundedness
report for the mildly singular chord integral, and the enclosed volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RadialField, SphereGrid, build_grid, gradient_values, quad_integrate
from .nonlocal_ops import (
    KernelParams,
    _blocks,
    _chord_kernel,
    _corrected_sum,
)

__all__ = [
    "HolderEstimate",
    "holder_norm",
    "interpolation_check",
    "divergence_identity_residual",
    "lemma521_bound",
    "volume",
]


@dataclass(frozen=True)
class HolderEstimate:
    """Discrete Hoelder data: sup part plus the all-pairs seminorm."""

    sup_part: float
    seminorm: float

    @property
    def total(self) -> float:
        return self.sup_part + self.seminorm


def holder_norm(u: np.ndarray, grid: SphereGrid, alpha: float) -> HolderEstimate:
    """All-pairs C^alpha estimate of u: its sup plus the largest difference
    quotient |u(x) - u(y)| / |x - y|^alpha over node pairs, with
    straight-line (chord) distances between grid nodes."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    u = np.asarray(u, dtype=float)
    semi = 0.0
    for _, tb, col in _blocks(np.arange(grid.size)):
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.abs(u - u[tb, None]) / np.sqrt(grid.chord2(tb)) ** alpha
        quot[col] = 0.0
        semi = max(semi, float(quot.max()))
    return HolderEstimate(float(np.abs(u).max()), semi)


def interpolation_check(
    u: np.ndarray, grid: SphereGrid, s1: float, s2: float, theta_mix: float
) -> float:
    """Ratio of the mixed-exponent norm to the interpolated product.

    The mixed exponent is s = theta_mix*s1 + (1-theta_mix)*s2, and the
    ratio is ||u||_s / (||u||_s1^theta * ||u||_s2^(1-theta)), which the
    interpolation inequality bounds by a fixed constant.
    """
    if not 0.0 <= theta_mix <= 1.0:
        raise ValueError(f"mix weight must lie in [0,1], got {theta_mix}")
    s_mix = theta_mix * s1 + (1.0 - theta_mix) * s2
    for name, val in (("s1", s1), ("s2", s2), ("mixed exponent", s_mix)):
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name} must lie in (0,1), got {val}")
    n_lo = holder_norm(u, grid, s1).total
    n_hi = holder_norm(u, grid, s2).total
    n_mix = holder_norm(u, grid, s_mix).total
    denom = n_lo**theta_mix * n_hi ** (1.0 - theta_mix)
    return 1.0 if denom == 0.0 else n_mix / denom


def _corrected_vector_sum(
    F: np.ndarray, grid: SphereGrid, x: int, params: KernelParams
) -> np.ndarray:
    """Punctured sum of a vector-valued integrand with the two-sided
    lattice correction at x (rows of F indexed by source node), taken as
    one corrected row per ambient component."""
    rows = F.T.copy()
    rows[:, x] = 0.0
    return _corrected_sum(rows, grid, np.full(rows.shape[0], x), params)


def divergence_identity_residual(
    rho: RadialField, x: int, params: KernelParams
) -> float:
    """Residual of the vector divergence identity at node x.

    For the graph map Phi(z) = rho(z) z the tangential divergence theorem
    forces, in every ambient direction,

        (grad Phi(x))^T I1 + n/(n-1+s) * I2 + I3 = 0,

    where I1 = PV int (Phi(y)-Phi(x)) K dH_y, I2 = int y |Phi(y)-Phi(x)|
    ^(-(n-1+s)) dH_y, and I3 = int ((grad Phi(y))^T - (grad Phi(x))^T)
    (Phi(y)-Phi(x)) K dH_y, with K the image-distance kernel and
    (grad Phi(z))^T w = (z.w) grad rho(z) + rho(z)(w - z(z.w)).
    Returns the Euclidean norm of the assembled left side.
    """
    grid = rho.grid
    if grid.topology != "full-sphere":
        raise ValueError("divergence identity requires a full sphere")
    s, n = params.s, grid.n
    p = n + 1 + s
    r = rho.values
    g = gradient_values(grid, r)
    pts = r[:, None] * grid.nodes
    diff = pts - pts[x]
    dist = np.linalg.norm(diff, axis=1)
    dist[x] = 1.0
    K = dist ** (-p)
    K[x] = 0.0
    mild = dist ** (-(n - 1.0 + s))
    mild[x] = 0.0

    I1 = _corrected_vector_sum(diff * K[:, None], grid, x, params)
    T1 = np.dot(grid.nodes[x], I1) * g[x] + r[x] * (
        I1 - grid.nodes[x] * np.dot(grid.nodes[x], I1)
    )

    T2 = n / (n - 1.0 + s) * _corrected_vector_sum(
        grid.nodes * mild[:, None], grid, x, params
    )

    zdotd = np.sum(grid.nodes * diff, axis=1)
    pull_y = zdotd[:, None] * g + r[:, None] * (diff - grid.nodes * zdotd[:, None])
    xdotd = diff @ grid.nodes[x]
    pull_x = xdotd[:, None] * g[x][None, :] + r[x] * (
        diff - grid.nodes[x][None, :] * xdotd[:, None]
    )
    T3 = _corrected_vector_sum((pull_y - pull_x) * K[:, None], grid, x, params)

    return float(np.linalg.norm(T1 + T2 + T3))


def lemma521_bound(resolutions, s: float) -> dict:
    """Uniform-boundedness report for int |x-y|^(-(1-s)) over the circle
    (the n = 1 full-sphere grid).

    Uses the plain punctured rule on purpose: its defect at the singular
    node is monotone in h, so the per-resolution maxima increase toward
    the continuum value and successive increments contract geometrically
    (ratio about 2^(-s)).  Reports the values, increments, ratios, and the
    largest node-to-node spread over the resolutions.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    resolutions = list(resolutions)
    if len(resolutions) < 2 or any(
        b <= a for a, b in zip(resolutions, resolutions[1:])
    ):
        raise ValueError("resolutions must be strictly increasing, two or more")
    values, spreads = [], []
    for res in resolutions:
        grid = build_grid(1, int(res), "full-sphere")
        F = _chord_kernel(grid, 1 - s, np.arange(grid.size))
        per_node = F @ grid.weights
        values.append(float(per_node.max()))
        vmax = np.abs(per_node).max()
        spreads.append(float(np.ptp(per_node) / vmax) if vmax else 0.0)
    increments = [b - a for a, b in zip(values, values[1:])]
    ratios = [
        b / a if a != 0.0 else np.inf for a, b in zip(increments, increments[1:])
    ]
    return {
        "values": values,
        "increments": increments,
        "ratios": ratios,
        "spread": max(spreads),
    }


def volume(rho: RadialField) -> float:
    """Enclosed volume of the radial region over the grid's sector."""
    grid = rho.grid
    return float(quad_integrate(grid, rho.values ** (grid.n + 1)) / (grid.n + 1))
