"""Wide-stencil finite differences on ball-intersection domains.

Discretizes F(x, D^2 u) + H(Du) = f with zero Dirichlet data on a 2D
lattice.  Second derivatives are sampled along a fan of K lattice
directions (one pair per angle k pi / K), K a multiple of 4; the fan is
closed under the lattice's mirrors and quarter turns by construction
(``_direction_fan``).  F_h is one table of (slots, weights,
min|max) terms (``_operator_terms``), each a weighted minimum or maximum of
the second differences along its slots.  ``LambdaK(1|2)``, ``MinMax``,
two-weight ``WeightedEigenvalues`` and ``CoefficientLambdaN`` scan the fan;
``LinearDegenerate`` has one single-slot term per lattice direction of the
diagonally dominant split of Sigma^T Sigma.  Every other operator raises
``UnsupportedDiscretizationError``.  The grid holds one arm table, in
the direction-major layout the scheme reads (``Grid2D``).  Nodes next to
the boundary use nonuniform three-point differences against the exact
ray-circle cut points, weighted by ``_three_point_weights`` and
``_slope_weights`` in the scheme and the pointwise functions alike.  The
cut fractions are only clipped to [1e-14, 1] (``_cut_fractions``); there
is no larger floor, so a node almost on the boundary gets an arm almost of
length zero and the scale of its stencil row, about 1/(h+ h-), is
unbounded.

The first-order term is coef <A g, g>^(p/2): ``PowerNorm`` b |g|^p is
A = I, coef = b, and ``AnisotropicPower`` its own A with coef = 1.  Both
forms evaluate it as written, with no bound on g.  The centered form uses
three-point centered differences along the axes for g; it is second-order
accurate but not monotone.  The upwind form, after Rouy & Tourin (1992),
takes per lattice slot k the one-sided m_k = max((u+ - u0)/h+, (u- -
u0)/h-, 0) on the cut-cell arms and H_h = coef (sum_k c_k m_k^2)^(p/2),
with c the diagonally dominant split of A on the axes and one diagonal (the
upwind form refuses a non-dominant A; the centered form takes any A).  m_k
is nondecreasing in every u_j - u0, so F_h + H_h is degenerate elliptic in
Oberman's sense (SIAM J. Numer. Anal. 44, 2006) and its solutions obey the
discrete comparison principle.  Each m_k is convex in u and nonnegative,
so sqrt(sum_k c_k m_k^2) is convex, and t -> t^p is convex and
nondecreasing on t >= 0 for p >= 1: the upwind H_h is convex in u, and
with an F_h of max terms (or a linear one) so is the upwind residual.

The solver works on the accurate form F_A of Froese & Oberman (SIAM J.
Numer. Anal. 49, 2011 and 51, 2013), not on the fan.  Its Hessian is the
nine-point X_h = [[D_x, u_xy], [u_xy, D_y]], with D_x, D_y, D_(1,1) and
D_(-1,1) the second differences at the axis and diagonal slots
(``_split_slots``), cut-cell arms included, and u_xy = (D_(1,1) -
D_(-1,1)) / 2.  A term over the whole fan reads lambda_max (a max term) or
lambda_min (a min term) of X_h in place of its scan; a single-slot term
(``LinearDegenerate``) is already linear on those slots and stays as it is.
The first-order term is the centered H_h.  F_A + H_h - f has no policy and
no fan, so its solution does not depend on K (``_Scheme.accurate``); it is
second-order accurate but not monotone, so it has no discrete comparison
principle; `solve`, `residual_norm` and `sweep` evaluate it.  The monotone
scheme is F_h with the upwind H_h (``_Scheme.fan``, ``discrete_operator``);
one Newton loop (``_newton``) solves either scheme.

`solve` takes full Newton steps on F_A + H_h - f from the paper's barrier:
with a gradient term the supersolution, the first-zero radial profile at
the forcing magnitude, which is the exact solution on a disc; without one
the paraboloid envelope (m / 2 beta)(R^2 - max_y |x - y|^2), which exists
on every domain.  The unit disc takes 3 steps from h = 1/16 to 1/64 and
the benchmark lenses 7-8 at h = 1/64, each step factored.  There is no
fallback: a non-finite residual, a Jacobian that factors as singular, or a
stop residual not met within ``_step_budget`` steps ends the solve with
``NumericError`` (``_StepLog.failure``).

Each Newton system is factored by SuperLU in symmetric mode, in one
nested-dissection order of the lattice box built per solve
(``_nested_dissection``, after George, SIAM J. Numer. Anal. 10, 1973).
F_A's arms reach one lattice step, so one lattice line across a box
separates its two halves: eliminating each half fills in only inside it
and on the line, and no step computes an order of its own.  The Jacobian's
pattern is the same at every step, so its CSC structure in that order is
built once (``_assemble``) and each step gathers its entries into it.  The
diagonal pivot is kept wherever it is at least 0.1 of the largest entry in
its column, and a row exchanged where it is not.  Partial pivoting would
exchange rows throughout and undo the symmetric fill-reducing order.  F_A's
Jacobian is not an M-matrix (the u_xy slopes and the centered gradient
slopes take either sign), so the threshold lets SuperLU pivot off the
diagonal where a pivot is too small.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from ._args import integer, real
from ._table import write_csv
from .barriers import build_subsolution, build_supersolution, evaluate_barrier
from .errors import (
    ConfigError,
    NumericError,
    UnsupportedDiscretizationError,
)
from .model import (
    AnisotropicPower,
    CoefficientLambdaN,
    ConvexDomain,
    HamiltonianSpec,
    LambdaK,
    LinearDegenerate,
    MinMax,
    OperatorSpec,
    Params,
    PowerNorm,
    ScalarField,
    WeightedEigenvalues,
    _field_values,
    ellipticity_constant,
)

__all__ = [
    "Grid2D",
    "GridFunction",
    "GridProblem",
    "SolveControls",
    "SolveReport",
    "build_grid",
    "discrete_second_difference",
    "discrete_gradient",
    "discrete_operator",
    "solve",
    "sweep",
    "residual_norm",
    "solution_to_csv",
    "report_to_text",
]

def _direction_fan(K: int) -> tuple[tuple[int, int], ...]:
    """Primitive lattice vectors nearest the angles k*pi/K, k = 0..K-1, for K
    a multiple of 4.

    Only the first octant (angles 0..pi/4) is chosen, an exact angle tie
    going to the shorter vector; its mirror across the diagonal completes
    the first quarter and a quarter turn the second.  So the fan is closed
    under the lattice's mirrors and quarter turns, and the axes and
    diagonals sit at slots 0, K/4, K/2 and 3K/4.
    """
    m = K // 4
    cap = max(2, m)
    cands = [
        (a, b) for a in range(1, cap + 1) for b in range(a + 1) if math.gcd(a, b) == 1
    ]
    angles = np.array([math.atan2(b, a) for a, b in cands])
    by_angle = np.argsort(angles)
    # primitive vectors point in distinct directions, at least 1/(2 cap^2)
    # rad apart, so the nearest candidate, and any within 1e-12 of it, is
    # one of the two that the target falls between
    at = np.searchsorted(angles[by_angle], np.pi * np.arange(m + 1) / K)
    octant = []
    for k, i in enumerate(at.tolist()):
        miss = {
            cands[j]: abs(angles[j] - math.pi * k / K)
            for j in by_angle[max(i - 1, 0) : i + 1]
        }
        best = min(miss.values())
        ties = [v for v, e in miss.items() if e <= best + 1e-12]
        octant.append(min(ties, key=lambda v: v[0] * v[0] + v[1] * v[1]))
    quarter = octant + [(b, a) for a, b in reversed(octant[1:-1])]
    return tuple(quarter + [(-b, a) for a, b in quarter])


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Lattice over a ball-intersection domain with cut-distance data.

    ``directions`` is the symmetric fan of ``_direction_fan(K)``.  ``mask``
    is True at the in-domain lattice nodes.  The arm table has one column
    per node and one row per arm, row k the plus arm of direction k and row
    K + k its minus arm: ``arm_nodes`` the end node in the packed node array
    (``n_nodes`` for the zero-valued boundary slot), ``arm_lengths`` h |v|
    for a full arm and up to the exact boundary crossing for a cut one.
    """

    domain: ConvexDomain
    h: float
    K: int
    directions: tuple[tuple[int, int], ...]
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray
    idx_grid: np.ndarray
    nodes_xy: np.ndarray
    arm_nodes: np.ndarray
    arm_lengths: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes_xy.shape[0]

    def node_index(self, point) -> int:
        """Packed index of the lattice node at ``point`` (exact hit only)."""
        try:
            x, y = (real(v, "node coordinate") for v in point)
        except (TypeError, ValueError):
            raise ConfigError(f"point {point!r} is not an (x, y) pair") from None
        ix = round((x - float(self.xs[0])) / self.h)
        iy = round((y - float(self.ys[0])) / self.h)
        if not (0 <= ix < self.xs.size and 0 <= iy < self.ys.size):
            raise ConfigError(f"point {(x, y)} is outside the grid box")
        if (
            abs(self.xs[ix] - x) > 1e-9 * max(1.0, self.h)
            or abs(self.ys[iy] - y) > 1e-9 * max(1.0, self.h)
        ):
            raise ConfigError(f"point {(x, y)} is not a lattice node")
        idx = int(self.idx_grid[iy, ix])
        if idx < 0:
            raise ConfigError(f"node {(x, y)} lies outside the domain")
        return idx


def _cut_fractions(x0: np.ndarray, step: np.ndarray, domain: ConvexDomain):
    """Fraction along ``step`` at which the segment leaves the domain."""
    a = float(step @ step)
    t = np.full(x0.shape[0], np.inf)
    for c in domain.center_array():
        diff = x0 - c
        b = diff @ step
        cc = np.einsum("ij,ij->i", diff, diff) - domain.radius**2
        disc = np.maximum(b * b - a * cc, 0.0)
        t = np.minimum(t, (-b + np.sqrt(disc)) / a)
    return np.clip(t, 1e-14, 1.0)


def build_grid(domain: ConvexDomain, h: float, K: int) -> Grid2D:
    """Classify lattice nodes and record boundary cut distances.

    K, the number of direction pairs, must be a multiple of 4: the fan is
    then symmetric under the lattice's mirrors and quarter turns and holds
    the two axes and both diagonals (see ``_direction_fan``), and at most
    four times the longer side of the lattice box in lattice steps.
    """
    if domain.dim != 2:
        raise ConfigError("grids are two-dimensional")
    h = real(h, "grid spacing", gt=0)
    if h > domain.radius / 4.0:
        raise ConfigError(
            f"spacing {h:g} too coarse for radius {domain.radius:g}"
            " (need h <= R/4)"
        )
    centers = domain.center_array()
    lo = centers.min(axis=0) - domain.radius
    hi = centers.max(axis=0) + domain.radius
    ix0, ix1 = math.floor(lo[0] / h) - 1, math.ceil(hi[0] / h) + 1
    iy0, iy1 = math.floor(lo[1] / h) - 1, math.ceil(hi[1] / h) + 1
    xs = np.arange(ix0, ix1 + 1, dtype=float) * h
    ys = np.arange(iy0, iy1 + 1, dtype=float) * h
    nx, ny = xs.size, ys.size

    # refuse a fan whose longest candidate, max(2, K // 4) steps, outreaches
    # the box: its arms are cut at every node; ``_direction_fan`` sorts its
    # O(K^2) candidates
    K = integer(K, "K", ge=4, le=4 * (max(nx, ny) - 1))
    if K % 4:
        raise ConfigError(f"need a multiple of 4 direction pairs K, got {K}")
    directions = _direction_fan(K)

    px, py = np.meshgrid(xs, ys)
    pts = np.stack([px, py], axis=-1)
    inside = np.asarray(domain.contains(pts.reshape(-1, 2))).reshape(ny, nx)
    n = int(inside.sum())
    if n == 0:
        raise ConfigError(
            f"degenerate domain: no lattice nodes inside at spacing {h:g}"
        )

    order = np.argwhere(inside)  # (n, 2) rows of (iy, ix), row-major
    idx_grid = np.full((ny, nx), -1, dtype=np.int32)
    idx_grid[order[:, 0], order[:, 1]] = np.arange(n, dtype=np.int32)
    nodes_xy = np.stack([xs[order[:, 1]], ys[order[:, 0]]], axis=1)

    # every arm end at once, from the index lattice padded by the fan's
    # reach: -1 (outside the domain or the box) marks a cut arm
    fan = np.asarray(directions)
    arms = np.concatenate([fan, -fan])
    reach = int(np.abs(fan).max())
    padded = np.pad(idx_grid, reach, constant_values=-1)
    arm_nodes = padded[
        order[:, 0] + reach + arms[:, 1:], order[:, 1] + reach + arms[:, :1]
    ]
    arm_lengths = np.ones(arm_nodes.shape)
    cut = arm_nodes < 0
    for k in np.flatnonzero(cut.any(axis=1)):
        step = h * arms[k].astype(float)
        arm_lengths[k, cut[k]] = _cut_fractions(nodes_xy[cut[k]], step, domain)
    arm_nodes[cut] = n
    arm_lengths *= h * np.linalg.norm(arms.astype(float), axis=1)[:, None]

    for arr in (xs, ys, inside, idx_grid, nodes_xy, arm_nodes, arm_lengths):
        arr.flags.writeable = False

    return Grid2D(
        domain=domain,
        h=h,
        K=K,
        directions=directions,
        xs=xs,
        ys=ys,
        mask=inside,
        idx_grid=idx_grid,
        nodes_xy=nodes_xy,
        arm_nodes=arm_nodes,
        arm_lengths=arm_lengths,
    )


def _step_budget(grid: Grid2D) -> int:
    """Newton steps per solve: the longer side of the lattice box, far above
    the steps that F_A takes from the barrier (the anisotropic lens takes 8
    of 171 at h = 1/64 and 8 of 337 at h = 1/128)."""
    return max(grid.mask.shape)


def _split_slots(grid: Grid2D) -> np.ndarray:
    """The ex, ey, (1, 1) and (-1, 1) slots, in ``_lattice_split`` order."""
    return np.array([0, 2, 1, 3]) * (grid.K // 4)


def _lattice_split(a: np.ndarray, what: str, where: str = "") -> np.ndarray:
    """Nonnegative weights w on the ``_split_slots`` directions with
    a = sum_k w_k e_k e_k^T over their unit vectors e_k.

    The diagonal takes 2|a01| on (1, sign a01); the axes keep the rest of
    the diagonal entries, which is nonnegative exactly when ``a`` is
    diagonally dominant.  ``what`` and ``where`` name the matrix in errors.
    """
    if a.shape != (2, 2):
        raise ConfigError(f"{what} must be 2x2 on grids{where}")
    off = float(a[0, 1])
    wx, wy = float(a[0, 0]) - abs(off), float(a[1, 1]) - abs(off)
    scale = max(1.0, abs(a).max())
    if wx < -1e-12 * scale or wy < -1e-12 * scale:
        raise UnsupportedDiscretizationError(
            f"{what} is not diagonally dominant on the lattice{where}"
        )
    wd = 2.0 * abs(off)
    return np.array(
        [max(wx, 0.0), max(wy, 0.0), wd if off >= 0 else 0.0, 0.0 if off >= 0 else wd]
    )


def _three_point_weights(lengths: np.ndarray) -> np.ndarray:
    """Weights c = 2 / (h_arm (h+ + h-)) of c+ (u+ - u0) + c- (u- - u0) on
    arm rows laid out as in ``Grid2D``: the plus arms, then the minus arms."""
    pair = lengths.reshape(2, -1, *lengths.shape[1:])
    return (2.0 / (pair * (pair[0] + pair[1]))).reshape(lengths.shape)


def _arm_rows(grid: Grid2D, slots: np.ndarray) -> tuple:
    """End nodes and three-point weights of the plus arms of ``slots``, then
    their minus arms, and per slot the u_0 weight c0 of its second difference."""
    arms = np.concatenate([slots, slots + grid.K])
    cc = _three_point_weights(grid.arm_lengths[arms])
    return grid.arm_nodes[arms].astype(np.intp), cc, cc[: slots.size] + cc[slots.size :]


def _slope_weights(hp: np.ndarray, hm: np.ndarray) -> tuple:
    """Weights (w+, w-, w0) of the centered slope w+ u+ + w- u- + w0 u0 on
    the arms ``hp``, ``hm`` of one direction, exact on quadratics."""
    den = hp * hm * (hp + hm)
    return hm * hm / den, -hp * hp / den, (hp - hm) / (hp * hm)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values on the packed in-domain nodes; boundary value is 0."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ConfigError(
                f"need {self.grid.n_nodes} node values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("grid function values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid2D, fn: Callable) -> "GridFunction":
        return cls(grid=grid, values=_field_values(fn, grid.nodes_xy))

    def value_at(self, point) -> float:
        return float(self.values[self.grid.node_index(point)])

    def extended(self) -> np.ndarray:
        """Node values with the trailing zero slot for boundary arms."""
        return np.append(self.values, 0.0)

    def to_dense(self) -> np.ndarray:
        out = np.full(self.grid.mask.shape, np.nan)
        out[self.grid.mask] = self.values
        return out


ForcingLike = Union[ScalarField, float, Callable]


@dataclass(frozen=True, eq=False)
class GridProblem:
    """Dirichlet problem F(x, D^2 u) + H(Du) = f, u = 0 on the boundary.

    ``params`` is the declared structural envelope (ellipticity beta, gradient
    growth b, p, additive constants); it drives the superlinear domain-size
    refusal and the barrier start of `solve`, and must dominate the
    actual Hamiltonian.
    """

    operator: OperatorSpec
    hamiltonian: HamiltonianSpec | None
    params: Params
    domain: ConvexDomain
    f: ForcingLike

    def __post_init__(self):
        if self.domain.dim != 2:
            raise ConfigError("grid problems are two-dimensional")


@dataclass(frozen=True)
class SolveControls:
    """Stopping tolerance on the scaled residual."""

    tol: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "tol", real(self.tol, "tolerance", gt=0))


@dataclass(frozen=True)
class SolveReport:
    """``iterations`` counts the Newton steps, each one factored;
    ``residual_norm`` is max |F_A + H_h - f| at the solution, at most
    ``stop_residual``.  A failed solve raises ``NumericError`` whose
    diagnostics hold the steps and the residual history
    (``_StepLog.failure``)."""

    iterations: int
    residual_norm: float
    wall_time: float
    stop_residual: float


def _field_on_nodes(f: ForcingLike, pts: np.ndarray, what: str) -> np.ndarray:
    rule = f"{what} must be finite on the grid"
    vals = _field_values(f, pts, what=rule)
    if not np.all(np.isfinite(vals)):
        raise ConfigError(rule)
    return vals


# the centered gradient's arms in the nine-point table: the axis arms, rows
# 0, 1 (plus) and 4, 5 (minus)
_CENTERED_ROWS = np.array([0, 1, 4, 5])

# a term's rule: its value and its active slot over the second differences
# along its slots (axis 1 of the gathered columns)
_RULES = {"min": (np.min, np.argmin), "max": (np.max, np.argmax)}


def _operator_terms(spec: OperatorSpec, grid: Grid2D, xy: np.ndarray) -> list:
    """F_h = sum over the terms of weights * rule(d2 along slots), with rule
    "min" or "max" and one nonnegative weight per point of ``xy``.

    Each term is nondecreasing in the neighbour values, so F_h is
    degenerate elliptic; with each term's active slot fixed it is linear,
    the Bellman-Isaacs form that the Newton steps solve.  Terms whose
    weight vanishes at every point are dropped.  This is the only place
    that dispatches on the operator class.
    """
    fan = np.arange(grid.K)
    ones = np.ones(xy.shape[0])
    if isinstance(spec, LambdaK):
        if spec.index not in (1, 2):
            raise UnsupportedDiscretizationError(
                "only the extreme eigenvalues are discretized in 2D"
            )
        terms = [(fan, ones, "min" if spec.index == 1 else "max")]
    elif isinstance(spec, MinMax):
        terms = [(fan, ones, "min"), (fan, ones, "max")]
    elif isinstance(spec, WeightedEigenvalues):
        if len(spec.alphas) != 2:
            raise UnsupportedDiscretizationError(
                "eigenvalue weights must be two-dimensional here"
            )
        a1, a2 = spec.alphas
        terms = [(fan, a1 * ones, "min"), (fan, a2 * ones, "max")]
    elif isinstance(spec, CoefficientLambdaN):
        a = _field_on_nodes(spec.a, xy, "coefficient")
        if np.any(a < spec.a.lower - 1e-12):
            raise ConfigError("coefficient drops below its declared infimum")
        terms = [(fan, a, "max")]
    elif isinstance(spec, LinearDegenerate):
        w = np.zeros((xy.shape[0], 4))
        for i, x in enumerate(xy):
            s = np.asarray(spec.sigma(x), dtype=float)
            where = f" at x = {tuple(x.tolist())}"
            w[i] = _lattice_split(s.T @ s, "diffusion matrix", where)
        slots = _split_slots(grid)
        terms = [(slots[k : k + 1], w[:, k], "max") for k in range(4)]
    else:
        raise UnsupportedDiscretizationError(
            f"operator {type(spec).__name__} has no monotone stencil here"
        )
    return [term for term in terms if np.any(term[1] != 0.0)]


def _nested_dissection(grid: Grid2D) -> np.ndarray:
    """The packed nodes in George's nested-dissection order of the lattice
    box (SIAM J. Numer. Anal. 10, 1973): split the box across its longer
    side at the middle lattice line, order the first half, then the
    second, then the line.  A box of at most 16 lattice cells is taken
    row-major.  F_A's nine-point arms reach one lattice step, so none joins
    the two halves of a split, and eliminating each half leaves fill only
    inside it and on its separator line."""

    def dissect(box: np.ndarray) -> list:
        if box.size <= 16:
            return [box.ravel()]
        if box.shape[1] >= box.shape[0]:
            a = box.shape[1] // 2
            first, line, second = box[:, :a], box[:, a], box[:, a + 1 :]
        else:
            a = box.shape[0] // 2
            first, line, second = box[:a], box[a], box[a + 1 :]
        return [*dissect(first), *dissect(second), line]

    order = np.concatenate(dissect(grid.idx_grid))
    return order[order >= 0]


def _assemble(cols: np.ndarray, order: np.ndarray) -> Callable:
    """The assembly of a Jacobian whose pattern is fixed: ``slopes[k][i]``
    at (i, ``cols[k][i]``) and ``diag`` on the diagonal, rows and columns
    renumbered so that node ``order[j]`` is j.  Arms that end on the
    boundary slot (column n) carry no unknown and are dropped.  No two
    entries share a position: a node's arms end at distinct nodes, none at
    the node itself.

    The CSC structure is built here, once, in int32: ``indices``,
    ``indptr`` and the gather from the entries to the data.  The returned
    ``assemble(slopes, diag)`` is that one gather, so no call sorts or
    converts."""
    from scipy.sparse import csc_matrix

    arms, n = cols.shape
    rank = np.empty(n + 1, dtype=np.int32)
    rank[order] = np.arange(n)
    rank[n] = n
    rows = np.tile(rank[:n], arms + 1)
    at = rank[np.concatenate([cols.ravel(), np.arange(n)])]
    keep = np.flatnonzero(at < n)
    gather = keep[np.argsort(at[keep].astype(np.int64) * n + rows[keep])]
    gather = gather.astype(np.int32)
    indices = rows[gather]
    indptr = np.searchsorted(at[gather], np.arange(n + 1)).astype(np.int32)

    def assemble(slopes: np.ndarray, diag: np.ndarray):
        data = np.concatenate([slopes.ravel(), diag])[gather]
        return csc_matrix((data, indices, indptr), shape=(n, n))

    return assemble


class _Scheme:
    """Precomputed discretization on one grid of F_A + H_h - f, H_h centered
    (``accurate``), and of the monotone F_h + H_h - f, H_h upwind (``fan``):
    both read the ``terms`` table, H_h comes from (A, h_coef, h_p) alone, and
    both return the residual with its Jacobian entries over one fixed arm
    table, as ``_assemble`` takes them.  The set-up builds only F_A's
    nine-point arm table."""

    def __init__(self, problem: GridProblem, grid: Grid2D):
        if problem.domain != grid.domain:
            raise ConfigError("problem and grid describe different domains")
        self.grid = grid
        self.problem = problem
        self.n, self.d = grid.n_nodes, grid.K
        self.arms = _arm_rows(grid, _split_slots(grid))
        self.terms = _operator_terms(problem.operator, grid, grid.nodes_xy)

        self.fvals = _field_on_nodes(problem.f, grid.nodes_xy, "forcing")
        self.f_sup = float(np.max(np.abs(self.fvals)))
        self.m_eff = float(np.max(np.maximum(problem.params.c - self.fvals, 0.0)))

        self._setup_hamiltonian(problem.hamiltonian)

        # refuse a node where no operator term and no centered gradient
        # weight reaches u_0 (every second difference weighs u_0 by c0 > 0)
        d_node = sum((w for _, w, _ in self.terms), np.zeros(self.n))
        if self.ham:
            d_node += np.hypot(*self.g_zero)
        if np.any(d_node <= 0.0):
            raise ConfigError("operator has no diagonal slope at some node")

    def _setup_hamiltonian(self, ham: HamiltonianSpec | None):
        """H(g) = h_coef <A g, g>^(h_p / 2): ``PowerNorm`` b |g|^p has A = I
        and h_coef = b, ``AnisotropicPower`` its own A and h_coef = 1.  This
        is the only place that dispatches on the Hamiltonian class, and the
        one admission of the declared envelope (p, beta, b) that `solve`,
        `residual_norm` and `sweep` share."""
        self.ham = False
        if ham is None:
            return
        if isinstance(ham, PowerNorm):
            self.A, self.h_coef = np.eye(2), ham.b
        elif isinstance(ham, AnisotropicPower):
            if ham.A.n != 2:
                raise ConfigError("anisotropy matrix must be 2x2 on grids")
            self.A, self.h_coef = ham.A.a, 1.0
        else:
            raise UnsupportedDiscretizationError(
                "compactly perturbed Hamiltonians are certified on radial"
                " forms only, not on grids"
            )
        if ham.b == 0.0:
            return
        if ham.p < 1.0:
            raise UnsupportedDiscretizationError(
                "sublinear gradient terms have no bounded-slope discretization;"
                " move them into the forcing or set b = 0"
            )
        params = self.problem.params
        if abs(ham.p - params.p) > 1e-12:
            raise ConfigError(
                f"Hamiltonian exponent {ham.p} mismatches the declared envelope"
                f" exponent {params.p}"
            )
        self.ham = True
        self.h_p = ham.p

        # centered gradient, rows x and y: g = g_plus u+ + g_minus u- +
        # g_zero u0 over the axis arms g_ip, g_im (``_CENTERED_ROWS``)
        lengths = self.grid.arm_lengths
        plus = _split_slots(self.grid)[:2]
        self.g_plus, self.g_minus, self.g_zero = _slope_weights(
            lengths[plus], lengths[plus + self.d]
        )
        self.g_ip, self.g_im = self.arms[0][_CENTERED_ROWS].reshape(2, 2, -1)

        beta = ellipticity_constant(self.problem.operator)
        if params.beta > beta * (1.0 + 1e-12):
            raise ConfigError(
                f"declared ellipticity {params.beta} exceeds the operator's"
                f" constant {beta}"
            )
        if ham.b > params.b * (1.0 + 1e-12):
            raise ConfigError(
                f"Hamiltonian growth {ham.b} exceeds the declared envelope {params.b}"
            )

    @cached_property
    def fan_arms(self) -> tuple:
        """The whole fan's ``_arm_rows``, built by the first fan call."""
        return _arm_rows(self.grid, np.arange(self.d))

    @cached_property
    def upwind_arms(self) -> tuple:
        """The weights c of A's dominant split (the upwind q = sum_k c_k
        m_k^2), the rows in ``fan_arms`` of their slots' plus arms, then
        minus arms, and the end nodes and inverse lengths of those arms,
        plus (row 0) and minus (row 1); refuses a non-dominant A."""
        weights = _lattice_split(self.A, "anisotropy matrix")
        slots = _split_slots(self.grid)[weights > 0.0]
        arms = np.stack([slots, slots + self.d])
        return (
            weights[weights > 0.0],
            arms.ravel(),
            self.grid.arm_nodes[arms].astype(np.intp),
            1.0 / self.grid.arm_lengths[arms],
        )

    # -- evaluation ---------------------------------------------------------

    def second_differences(self, v_ext: np.ndarray, arms: tuple) -> np.ndarray:
        """Second differences along the slots of an ``_arm_rows`` table (rows)
        at the nodes: one contiguous take per arm row, updated in place."""
        idx, cc, _ = arms
        parts = np.take(v_ext, idx)
        parts -= v_ext[: self.n]
        parts *= cc
        half = idx.shape[0] // 2
        return parts[:half] + parts[half:]

    def gradient(self, v_ext: np.ndarray) -> np.ndarray:
        """Centered gradient, rows x and y."""
        g = self.g_plus * v_ext[self.g_ip] + self.g_minus * v_ext[self.g_im]
        return g + self.g_zero * v_ext[: self.n]

    def hamiltonian(self, v_ext: np.ndarray, upwind: bool = False):
        """H_h = h_coef q^(p/2) at ``v_ext`` and its Jacobian entries (arm
        rows in the caller's arm table, their slopes, the diagonal slope);
        ``(0.0, None)`` without a gradient term; ``fan`` reads it upwind,
        ``accurate`` centered.

        Upwind: q = sum_k c_k m_k^2, per upwind slot (rows) m_k = max(d+_k,
        d-_k, 0) from the one-sided differences (u_arm - u_0) / h_arm on the
        cut-cell arms, nondecreasing in every u_arm - u_0, so H_h is
        degenerate elliptic.  Each slot's active arm has slope dH/dm_k /
        h_arm and its other arm slope zero, both rows of ``fan_arms``; the
        diagonal is minus their sum.  Centered: q = <A g, g> on the
        centered gradient g; with s = dH/dg the four axis arms, rows 0, 1
        (plus) and 4, 5 (minus) of the nine-point table, have slopes s
        g_plus and s g_minus, the diagonal sum s g_zero.
        """
        if not self.ham:
            return 0.0, None
        p = self.h_p
        if upwind:
            up_c, up_rows, up_idx, up_inv_h = self.upwind_arms
            diffs = np.take(v_ext, up_idx)
            diffs -= v_ext[: self.n]
            diffs *= up_inv_h
            plus, minus = diffs
            m = np.maximum(np.maximum(plus, minus), 0.0)
            q = up_c @ (m * m)
        else:
            g = self.gradient(v_ext)
            ag = self.A @ g
            q = (g * ag).sum(axis=0)
        h_vals = self.h_coef * np.maximum(q, 0.0) ** (p / 2.0)
        live = q > 0.0
        coef = np.zeros(self.n)
        coef[live] = self.h_coef * p * q[live] ** (p / 2.0 - 1.0)
        if upwind:
            on_minus = minus > plus
            # dH/dm_k times dm_k/du_arm = 1 / h_arm; dm_k/du_0 = -1 / h_arm
            arm_inv = np.where(on_minus, up_inv_h[1], up_inv_h[0])
            slope = coef * up_c[:, None] * m * arm_inv
            on_arm = np.where(np.stack([~on_minus, on_minus]), slope, 0.0)
            return h_vals, (up_rows, on_arm.reshape(-1, self.n), -slope.sum(axis=0))
        s = coef * ag
        slopes = np.concatenate([s * self.g_plus, s * self.g_minus])
        return h_vals, (_CENTERED_ROWS, slopes, (s * self.g_zero).sum(axis=0))

    def _entries(self, weights: np.ndarray, arms: tuple, h_entries) -> tuple:
        """Jacobian entries (the arm end nodes, their slopes, the diagonal
        slope), as ``_assemble`` takes them, of a residual with slopes
        ``weights`` on the second differences along the slots of ``arms``
        (rows), H_h's entries added: its arms are rows of the same table,
        so the pattern is the table's at every iterate."""
        idx, cc, c0 = arms
        slopes = np.concatenate([weights, weights]) * cc
        diag = -(weights * c0).sum(axis=0)
        if h_entries is not None:
            h_rows, h_slopes, h_diag = h_entries
            slopes[h_rows] += h_slopes
            diag += h_diag
        return idx, slopes, diag

    def fan(self, v_ext: np.ndarray) -> tuple[np.ndarray, tuple]:
        """F_h + H_h - f of the monotone fan scheme at ``v_ext``, H_h upwind,
        and its Jacobian entries over the whole fan's arm table
        (``fan_arms``); refuses an A with no diagonally dominant split
        (``upwind_arms``).

        Each term keeps only its active slot, the argmin of a min term and
        the argmax of a max term, which makes the Jacobian an element of the
        generalized derivative of the min/max scheme; every other arm has
        slope zero.
        """
        # the H_h entries outlive the second differences; allocating them
        # first kept grid-lens peak RSS 4 MB lower than the other order
        h_vals, h_entries = self.hamiltonian(v_ext, upwind=True)
        arms = self.fan_arms
        d2 = self.second_differences(v_ext, arms)
        nodes = np.arange(self.n)
        f_h, weights = np.zeros(self.n), np.zeros((self.d, self.n))
        for slots, w, rule in self.terms:
            along = d2[slots]
            at = _RULES[rule][1](along, axis=0)
            f_h += w * along[at, nodes]
            weights[slots[at], nodes] += w
        return f_h + h_vals - self.fvals, self._entries(weights, arms, h_entries)

    def accurate(self, v_ext: np.ndarray) -> tuple[np.ndarray, tuple]:
        """F_A + H_h - f at ``v_ext``, H_h centered, and its Jacobian entries
        over the nine-point arm table, H_h's included (``_entries``).

        X_h is built from D = (D_x, D_y, D_(1,1), D_(-1,1)), the second
        differences at the ``_split_slots``.  A fan term is w lambda_max (a
        max term) or w lambda_min (a min term) of X_h, (D_x + D_y)/2 +- r
        with r = hypot((D_x - D_y)/2, u_xy).  Its slopes on D are w (c^2,
        s^2, c s, -c s) with (c, s) = (cos t, sin t), t = atan2(2 u_xy, D_x -
        D_y) / 2, the unit eigenvector of lambda_max, and that vector turned
        by 90 degrees for lambda_min; they are written through cos 2t and
        sin 2t, with t = 0 where X_h is a multiple of I.  A single-slot term
        is w times the second difference at its slot.
        """
        # the H_h entries outlive the second differences, as in ``fan``
        h_vals, h_entries = self.hamiltonian(v_ext)
        n, slots = self.n, _split_slots(self.grid)
        dd = self.second_differences(v_ext, self.arms)  # D_x, D_y, D_(1,1), D_(-1,1)
        half = (dd[0] - dd[1]) / 2.0
        uxy = (dd[2] - dd[3]) / 2.0
        r = np.hypot(half, uxy)
        live = r > 0.0
        cos2 = np.divide(half, r, out=np.ones(n), where=live)
        sin2 = np.divide(uxy, r, out=np.zeros(n), where=live)
        f_a = np.zeros(n)
        weights = np.zeros((4, n))  # dF_A/dD, row by row
        for term_slots, w, rule in self.terms:
            if term_slots.size == 1:
                j = slots.tolist().index(term_slots[0])
                f_a += w * dd[j]
                weights[j] += w
                continue
            sign = 1.0 if rule == "max" else -1.0
            f_a += w * ((dd[0] + dd[1]) / 2.0 + sign * r)
            c, s = sign * cos2, sign * sin2
            weights += (w / 2.0) * np.stack([1.0 + c, 1.0 - c, s, -s])
        return f_a + h_vals - self.fvals, self._entries(weights, self.arms, h_entries)


_VECTORS = (tuple, list, np.ndarray)  # a node or direction given as a vector


def _resolve_node(grid: Grid2D, node) -> int:
    """A node given by its packed index or by its (x, y) point."""
    if isinstance(node, _VECTORS):
        return grid.node_index(node)
    return integer(node, "node index (or an (x, y) point)", ge=0, le=grid.n_nodes - 1)


def _resolve_direction(grid: Grid2D, direction) -> int:
    """A direction given by its slot or by an integer vector of the fan."""
    if not isinstance(direction, _VECTORS):
        return integer(direction, "direction slot", ge=0, le=grid.K - 1)
    missing = f"{direction!r} is not in the stencil fan"
    vector = tuple(integer(c, f"direction component ({missing})") for c in direction)
    signed = grid.directions + tuple((-a, -b) for a, b in grid.directions)
    if vector not in signed:
        raise ConfigError(f"direction {missing}")
    return signed.index(vector) % grid.K


def discrete_second_difference(u: GridFunction, node, direction) -> float:
    """Three-point second difference along one stencil direction, the
    scheme's value (``_Scheme.second_differences``) at this node.

    Full arms give the uniform (u+ - 2 u0 + u-)/h_v^2; cut arms use the
    nonuniform weights against the zero boundary value at the cut point
    recorded in the grid.
    """
    grid = u.grid
    i = _resolve_node(grid, node)
    k = _resolve_direction(grid, direction)
    arms = [k, k + grid.K]
    cp, cm = _three_point_weights(grid.arm_lengths[arms, i])
    up, um = u.extended()[grid.arm_nodes[arms, i]]
    u0 = u.values[i]
    return float((up - u0) * cp + (um - u0) * cm)


def discrete_gradient(u: GridFunction, node) -> np.ndarray:
    """Centered gradient at a node along the axes, the scheme's value
    (``_Scheme.gradient``) there."""
    grid = u.grid
    i = _resolve_node(grid, node)
    axes = _split_slots(grid)[:2]
    arms = np.concatenate([axes, axes + grid.K])
    w_plus, w_minus, w_zero = _slope_weights(*grid.arm_lengths[arms, i].reshape(2, 2))
    up, um = u.extended()[grid.arm_nodes[arms, i]].reshape(2, 2)
    return w_plus * up + w_minus * um + w_zero * u.values[i]


def discrete_operator(spec: OperatorSpec, u: GridFunction, node) -> float:
    """F_h at one node, from the terms of ``_operator_terms`` there."""
    grid = u.grid
    i = _resolve_node(grid, node)
    d2 = np.array(
        [discrete_second_difference(u, i, k) for k in range(grid.K)]
    )
    terms = _operator_terms(spec, grid, grid.nodes_xy[i : i + 1])
    return float(sum(w[0] * _RULES[rule][0](d2[slots]) for slots, w, rule in terms))


def _initial_values(problem: GridProblem, grid: Grid2D, scheme):
    """The barrier at the forcing magnitude m_eff: with a gradient term the
    supersolution, whose construction is where `solve` refuses a radius
    above the existence threshold (``ThresholdError``), without one the
    paraboloid envelope, the negated subsolution, which needs no
    threshold."""
    if scheme.ham:
        barrier = build_supersolution(problem.domain, problem.params, scheme.m_eff)
        return np.asarray(evaluate_barrier(barrier, grid.nodes_xy), dtype=float)
    barrier = build_subsolution(problem.domain, problem.params, scheme.m_eff)
    return -np.asarray(evaluate_barrier(barrier, grid.nodes_xy), dtype=float)


class _StepLog:
    """The max residual of one solve's start and of each Newton iterate."""

    def __init__(self):
        self.history: list[float] = []

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    def failure(self, message: str) -> NumericError:
        """``message`` as a ``NumericError`` with this log as diagnostics;
        ``residual`` is the last iterate's."""
        return NumericError(
            message,
            diagnostics={
                "iterations": self.iterations,
                "residual": self.history[-1],
                "residual_history": self.history,
            },
        )


def _newton(
    evaluate: Callable,
    v_ext: np.ndarray,
    order: np.ndarray,
    stop: float,
    log: _StepLog,
    budget: int,
) -> np.ndarray:
    """Full Newton steps on ``evaluate`` (``_Scheme.accurate`` or ``fan``)
    from ``v_ext``, updated in place, until the max residual is at most
    ``stop``.

    ``log`` gets the start residual and one per step.  The Jacobian's
    pattern is the same at every step, so its structure in the numbering
    ``order`` is built once (``_assemble``).  Each step gathers its entries
    into it and factors it with symmetric-mode SuperLU in that order (see
    the module docstring); the entries go once the Jacobian is assembled,
    the Jacobian once it is factored and the factor once its step is
    solved, so one factor and one iterate are alive at a time.  A step may
    raise the residual: there is no line search.  A non-finite residual, a
    Jacobian that factors as exactly singular, or ``budget`` steps without
    reaching ``stop`` raise ``log.failure``.
    """
    from scipy.sparse.linalg import splu

    resid, (cols, slopes, diag) = evaluate(v_ext)
    assemble = _assemble(cols, order)
    log.history.append(float(np.max(np.abs(resid))))
    while not log.history[-1] <= stop:
        if not math.isfinite(log.history[-1]):
            raise log.failure("iteration blew up (non-finite residual)")
        if log.iterations == budget:
            raise log.failure(
                f"no convergence within {budget} iterations"
                f" (residual {log.history[-1]:.3e}, target {stop:.3e})"
            )
        jac = assemble(slopes, diag)
        del slopes, diag
        try:
            lu = splu(
                jac,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.1,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise log.failure(
                f"singular Newton Jacobian at step {log.iterations + 1} ({exc})"
            ) from exc
        del jac
        v_ext[order] += lu.solve(-resid[order])
        del lu
        with np.errstate(all="ignore"):
            resid, (_, slopes, diag) = evaluate(v_ext)
        log.history.append(float(np.max(np.abs(resid))))
    return v_ext


def solve(
    problem: GridProblem,
    grid: Grid2D,
    controls: SolveControls | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Solve F_A + H_h = f to the stop residual tol*(1 + sup|f|) in the max
    norm, by full Newton steps (``_newton``) from the barrier start.

    A blow-up, a singular Jacobian or an unmet stop within ``_step_budget``
    steps raises ``_StepLog.failure``.  The scheme set-up admits the
    envelope (``_Scheme._setup_hamiltonian``); with a gradient term the
    barrier start refuses a radius above the existence threshold at m_eff
    (``_initial_values``).
    """
    controls = controls or SolveControls()
    scheme = _Scheme(problem, grid)
    stop = controls.tol * (1.0 + scheme.f_sup)
    v_ext = np.append(_initial_values(problem, grid, scheme), 0.0)

    # the first solve in a process would otherwise time scipy's import
    import scipy.sparse.linalg  # noqa: F401

    start = time.perf_counter()
    log = _StepLog()
    order = _nested_dissection(grid)
    v_ext = _newton(scheme.accurate, v_ext, order, stop, log, _step_budget(grid))
    report = SolveReport(
        iterations=log.iterations,
        residual_norm=log.history[-1],
        wall_time=time.perf_counter() - start,
        stop_residual=stop,
    )
    return GridFunction(grid=grid, values=v_ext[: grid.n_nodes]), report


def sweep(
    problem: GridProblem,
    grid: Grid2D,
    values: np.ndarray,
    tau: float,
    steps: int = 1,
) -> np.ndarray:
    """Apply ``steps`` simultaneous updates u <- u + tau (F_A[u] + H_h[u] - f),
    the residual of `solve`; the scheme set-up and residual probes of
    ``perfbench/run.py`` call it with ``tau = 0``."""
    v_ext = GridFunction(grid=grid, values=values).extended()
    tau = real(tau, "sweep step tau", ge=0)
    steps = integer(steps, "number of sweep steps", ge=0)
    scheme = _Scheme(problem, grid)
    for _ in range(steps):
        v_ext[: grid.n_nodes] += tau * scheme.accurate(v_ext)[0]
    return v_ext[: grid.n_nodes].copy()


def residual_norm(problem: GridProblem, u: GridFunction) -> float:
    """max over in-domain nodes of |F_A[u] + H_h[u] - f|, the residual that
    `solve` drives below its stop."""
    scheme = _Scheme(problem, u.grid)
    return float(np.max(np.abs(scheme.accurate(u.extended())[0])))


def solution_to_csv(u: GridFunction, path) -> None:
    grid = u.grid
    comment = (
        f"h={grid.h:.17g} K={grid.K} nodes={grid.n_nodes}"
        f" radius={grid.domain.radius:.17g}"
    )
    write_csv(path, "x,y,u", zip(*grid.nodes_xy.T, u.values), comment)


def report_to_text(report: SolveReport) -> str:
    lines = [
        f"iterations: {report.iterations}",
        f"residual_norm: {report.residual_norm:.17g}",
        f"stop_residual: {report.stop_residual:.17g}",
        f"wall_time_s: {report.wall_time:.3f}",
    ]
    return "\n".join(lines) + "\n"
