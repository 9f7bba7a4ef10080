"""Barriers on ball-intersection domains.

The supersolution is the smallest of the radial first-zero solutions
centered at the defining balls; since each v is decreasing in distance,
that infimum is v(max_y |x - y|), evaluated in closed form at that
distance (``radial._exact_u``).  The subsolution is the envelope of the
paraboloids (K / 2 beta)(|x - y|^2 - R^2).  Both vanish on the boundary
and sandwich every solution with vanishing boundary data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._args import integer, real, reals
from ._table import write_csv
from .errors import ConfigError, DomainViolationError, NumericError
from .model import ConvexDomain, Params
from .radial import _exact_u, c1_bound, check_threshold

__all__ = [
    "BarrierField",
    "build_supersolution",
    "build_subsolution",
    "evaluate_barrier",
    "sample_boundary",
    "barrier_to_csv",
]

@dataclass(frozen=True)
class BarrierField:
    """A super- or subsolution over a ball-intersection domain.

    ``forcing_norm`` is the magnitude the barrier was built for: the
    constant M of the shared radial profile (Super) or the paraboloid
    coefficient K (Sub).
    """

    domain: ConvexDomain
    kind: str  # "Super" | "Sub"
    params: Params
    forcing_norm: float

    @property
    def lipschitz_bound(self) -> float:
        if self.kind == "Super":
            if self.forcing_norm == 0.0:
                return 0.0
            return c1_bound(
                dataclasses.replace(self.params, M=self.forcing_norm),
                self.domain.radius,
            )
        return self.forcing_norm * self.domain.radius / self.params.beta

    def __call__(self, x):
        return evaluate_barrier(self, x)


def build_supersolution(domain: ConvexDomain, params: Params, M: float) -> BarrierField:
    """Nonnegative barrier from above: inf over centers of the first-zero
    radial solution at forcing magnitude M (zero field when M = 0)."""
    M = real(M, "forcing magnitude M", ge=0)
    check_threshold(dataclasses.replace(params, M=M), domain.radius)
    return BarrierField(domain=domain, kind="Super", params=params, forcing_norm=M)


def build_subsolution(domain: ConvexDomain, params: Params, K: float) -> BarrierField:
    """Nonpositive barrier from below: envelope of the paraboloids
    (K / 2 beta)(|x - y|^2 - R^2)."""
    K = real(K, "paraboloid coefficient K", ge=0)
    return BarrierField(domain=domain, kind="Sub", params=params, forcing_norm=K)


def evaluate_barrier(field: BarrierField, x):
    """Barrier value at x (or at a batch of points, last axis = coords)."""
    dom = field.domain
    dist = dom.max_center_distance(reals(x, "barrier point x"))
    if not np.all(dom.closure_holds(dist)):
        raise DomainViolationError("point outside the domain closure")
    dist = np.minimum(dist, dom.radius)
    if field.kind == "Sub":
        out = (field.forcing_norm / (2.0 * field.params.beta)) * (
            dist**2 - dom.radius**2
        )
    elif field.forcing_norm == 0.0:
        out = np.zeros_like(dist)
    else:
        shifted = dataclasses.replace(field.params, M=field.forcing_norm)
        out = _exact_u(dist, dom.radius, shifted)[1]
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def sample_boundary(domain: ConvexDomain, count: int = 512) -> np.ndarray:
    """Deterministic points on the boundary of a planar ball intersection.

    Equi-angular arcs per defining ball, filtered to the points lying in
    every other closed ball; the per-ball resolution doubles until at least
    ``count`` points survive.
    """
    if domain.dim != 2:
        raise ConfigError("boundary sampling implemented for planar domains")
    count = integer(count, "sample count", ge=1)
    centers = domain.center_array()
    per_ball = 256
    for _ in range(16):
        theta = np.arange(per_ball) * (2.0 * math.pi / per_ball)
        ring = domain.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pts = (centers[:, None, :] + ring[None, :, :]).reshape(-1, 2)
        pts = pts[domain.contains_closure(pts)]
        if pts.shape[0] >= count:
            return pts
        per_ball *= 2
    raise NumericError(
        "boundary sampling failed to reach the requested count",
        {"requested": count, "found": int(pts.shape[0])},
    )


def barrier_to_csv(field: BarrierField, path, resolution: int = 64) -> None:
    """Lattice sample of the barrier over the domain, columns x, y, value.

    A lattice with no point in the domain is refused (``ConfigError``)."""
    if field.domain.dim != 2:
        raise ConfigError("CSV export implemented for planar domains")
    resolution = integer(resolution, "resolution", ge=0)
    centers = field.domain.center_array()
    R = field.domain.radius
    lo = centers.min(axis=0) - R
    hi = centers.max(axis=0) + R
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    rows = []
    for yv in ys:
        row_pts = np.stack([xs, np.full_like(xs, yv)], axis=1)
        ok = field.domain.contains_closure(row_pts)
        if np.any(ok):
            vals = np.atleast_1d(evaluate_barrier(field, row_pts[ok]))
            rows.extend((xv, yv, v) for xv, v in zip(xs[ok], vals))
    if not rows:
        raise ConfigError(
            f"no lattice point inside the domain at resolution {resolution}"
        )
    comment = (
        f"kind={field.kind} forcing_norm={field.forcing_norm!r} "
        f"R={R!r} centers={field.domain.centers!r}"
    )
    write_csv(path, "x,y,value", rows, comment)
