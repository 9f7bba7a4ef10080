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
A = I, coef = b, and ``AnisotropicPower`` its own A with coef = 1.  The
centered form uses three-point centered differences along the axes and
rescales g onto the cap circle; it is second-order accurate but not
monotone.  The upwind form, after Rouy & Tourin (1992), takes per lattice
slot k the one-sided m_k = max((u+ - u0)/h+, (u- - u0)/h-, 0) on the
cut-cell arms and H_h = coef min(sum_k c_k m_k^2, cap^2)^(p/2), with c the
diagonally dominant split of A on the axes and one diagonal (a
non-dominant A is refused).  m_k is nondecreasing in every u_j - u0, so
F_h + H_h is degenerate elliptic in Oberman's sense (SIAM J. Numer. Anal.
44, 2006) and its solutions obey the discrete comparison principle.

The solver takes semismooth Newton steps (policy iteration, after
Bokanowski, Maroso & Zidani 2009): each step fixes every node's active slot
in each operator term (the argmin of a min term, the argmax of a max term)
and the active arm of each upwind slot, adds the exact slope of the capped
gradient term, and solves the assembled sparse linear system.  One pass
over the iterate (``_Scheme.linearize``) gives the residual, those choices
and the slopes, and the Jacobian is assembled from that record.  Newton
first steps on the upwind form from the initial iterate, down to the gap
between the two gradient forms, then polishes on the centered form from
the best upwind iterate; the result solves the centered scheme.  The
initial iterate is the paper's barrier: with a gradient term the
supersolution, the first-zero radial profile at the forcing magnitude,
which is the exact solution on a disc; without one the paraboloid envelope
(m / 2 beta)(R^2 - max_y |x - y|^2), which exists on every domain.  On the
unit disc this takes 1-2 upwind and 4-5 polish steps from h = 1/16 to 1/64,
2-4 of all steps factored (7-12 upwind steps from zero, where every fan
direction ties).  There is no fallback: a polish that misses the stop
residual within its step budget (``_step_budget``, the longer side of the
lattice box, per stage), or a Jacobian that factors as singular, ends the
solve with ``NumericError`` (``_StepLog.failure``).

Each Newton system is factored by SuperLU in symmetric mode: a minimum
degree order of J + J^T, with the diagonal pivot kept wherever it is at
least 0.1 of the largest entry in its column, and a row exchange where it
is not.  Partial pivoting would exchange rows throughout and undo the
symmetric fill-reducing order.  The threshold also exchanges rows on the
upwind form, although a degenerate elliptic scheme has an M-matrix
Jacobian (nonnegative off-diagonal slopes, weakly dominant negative
diagonal) and LU without row exchanges is stable for M-matrices: on the
unit disc at h = 1/64, K = 16 the two upwind factors exchange rows in 44
and 35 columns, where threshold 0 would exchange none and cut their
L + U entries from 863,767 to 735,740 and from 946,896 to 759,484.  The
centered first-order term breaks the M-matrix sign pattern, so the polish
Jacobians are not M-matrices, and there the threshold lets SuperLU pivot
off the diagonal where a pivot is too small.  With a gradient term every
upwind step factors afresh; any other step may instead reuse the last
factor with a low-rank update of the rows whose policy moved: exactly when
the residual elsewhere is below the stop, otherwise as a chord step of
modified Newton that must halve the residual (see ``_newton``).  Without a
gradient term a row is fixed by its policy, so the update restores the
current Jacobian.  On the disc the polish factors once or twice and then
takes chord steps to the stop.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

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
from .radial import c1_bound, rbar

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
    octant = []
    for k in range(m + 1):
        miss = {v: abs(math.atan2(v[1], v[0]) - math.pi * k / K) for v in cands}
        best = min(miss.values())
        ties = [v for v in cands if miss[v] <= best + 1e-12]
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
        x, y = float(point[0]), float(point[1])
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
    the two axes and both diagonals (see ``_direction_fan``).
    """
    if domain.dim != 2:
        raise ConfigError("grids are two-dimensional")
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ConfigError("grid spacing must be positive and finite")
    if h > domain.radius / 4.0:
        raise ConfigError(
            f"spacing {h:g} too coarse for radius {domain.radius:g}"
            " (need h <= R/4)"
        )
    try:
        K = operator.index(K)  # any integer type; a float such as 8.0 is refused
    except TypeError:
        K = 0
    if K < 4 or K % 4:
        raise ConfigError("need an integer K >= 4 direction pairs, a multiple of 4")
    directions = _direction_fan(K)

    centers = domain.center_array()
    lo = centers.min(axis=0) - domain.radius
    hi = centers.max(axis=0) + domain.radius
    ix0, ix1 = math.floor(lo[0] / h) - 1, math.ceil(hi[0] / h) + 1
    iy0, iy1 = math.floor(lo[1] / h) - 1, math.ceil(hi[1] / h) + 1
    xs = np.arange(ix0, ix1 + 1, dtype=float) * h
    ys = np.arange(iy0, iy1 + 1, dtype=float) * h
    nx, ny = xs.size, ys.size

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
    """Newton steps per stage: the longer side of the lattice box.  A policy
    front moves about one lattice row per step; the anisotropic lens takes
    10 + 16 steps of 171 at h = 1/64 and 16 + 42 of 337 at h = 1/128.  Chord
    steps count: the disc polish at h = 1/8 takes 5 of 19, one factored."""
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
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tolerance must be positive")


@dataclass(frozen=True)
class SolveReport:
    """``upwind_steps`` counts the Newton steps of the upwind stage; the
    polish took ``iterations - upwind_steps``.  ``factorizations`` counts
    the LU factorizations of the Newton steps, and ``policy_changes`` per
    step the nodes whose active policy it changed.  ``form_gap`` is the gap
    at which the upwind stage handed over (see `solve`).  A failed solve
    raises ``NumericError`` whose diagnostics hold the same counts
    (``_StepLog.failure``)."""

    iterations: int
    upwind_steps: int
    factorizations: int
    policy_changes: tuple[int, ...]
    residual_norm: float
    wall_time: float
    stop_residual: float
    form_gap: float


def _field_on_nodes(f: ForcingLike, pts: np.ndarray, what: str) -> np.ndarray:
    vals = _field_values(f, pts)
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{what} must be finite on the grid")
    return vals


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
        a1, a2 = map(float, spec.alphas)
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


@dataclass(frozen=True, eq=False)
class _Linearization:
    """F_h + H_h - f at one Newton iterate (``_Scheme.linearize``).

    ``policy`` has one row per node: the active slot of each operator term,
    then the gradient term's choices.  Nodes with equal rows at two iterates
    have Jacobian rows of the same form; only the gradient slopes differ.
    ``slopes`` (None without a gradient term) and ``h_vals`` are H_h's."""

    upwind: bool
    resid: np.ndarray
    policy: np.ndarray
    slopes: tuple | np.ndarray | None
    h_vals: float | np.ndarray


class _Scheme:
    """Precomputed discretization of F_h + H_h - f on one grid: F_h from
    the ``terms`` table, H_h from (A, h_coef, h_p, g_cap) alone."""

    def __init__(self, problem: GridProblem, grid: Grid2D):
        if problem.domain != grid.domain:
            raise ConfigError("problem and grid describe different domains")
        self.grid = grid
        self.problem = problem
        n, d = grid.n_nodes, grid.K
        self.n = n
        self.d = d

        # the grid's direction-major arm rows: 0..d-1 plus, d..2d-1 minus
        self.idx_t = grid.arm_nodes.astype(np.intp)
        self.cc_t = _three_point_weights(grid.arm_lengths)
        self.c0 = self.cc_t[:d] + self.cc_t[d:]
        self.terms = _operator_terms(problem.operator, grid, grid.nodes_xy)

        self.fvals = _field_on_nodes(problem.f, grid.nodes_xy, "forcing")
        self.f_sup = float(np.max(np.abs(self.fvals)))
        self.m_eff = float(np.max(np.maximum(problem.params.c - self.fvals, 0.0)))

        self._setup_hamiltonian(problem.hamiltonian)

        # refuse a node where no operator term and no centered gradient
        # weight (with a gradient term) reaches u_0
        d_node = np.zeros(n)
        for slots, w, _ in self.terms:
            d_node += w * self.c0[slots].max(axis=0)
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
        radius = self.problem.domain.radius
        # the envelope is superlinear (p = ham.p > 1): the largest forcing
        # magnitude this domain supports under it; the solution gradient is
        # capped by the worse of the actual forcing and that capacity value
        try:
            m_cap = (rbar(replace(params, M=1.0)) / radius) ** (
                params.p / (params.p - 1.0)
            )
        except OverflowError:
            raise ConfigError("gradient cap is unbounded for this envelope") from None
        levels = [m_cap]
        if 0.0 < self.m_eff < m_cap:
            levels.append(self.m_eff)
        self.g_cap = 2.0 * max(
            c1_bound(replace(params, M=m), radius) for m in levels
        )
        if not math.isfinite(self.g_cap):
            raise ConfigError("gradient cap is unbounded for this envelope")

        # centered gradient, rows x and y: g = g_plus u+ + g_minus u- +
        # g_zero u0 over the arms g_ip, g_im of the axis slots
        lengths = self.grid.arm_lengths
        plus = _split_slots(self.grid)[:2]
        minus = plus + self.d
        self.g_plus, self.g_minus, self.g_zero = _slope_weights(
            lengths[plus], lengths[minus]
        )
        self.g_ip, self.g_im = self.idx_t[plus], self.idx_t[minus]

        # upwind form: q = sum_k c_k m_k^2 over the lattice slots of A's
        # dominant split (ex and ey with c = 1 for A = I); rows of up_idx /
        # up_inv_h are the plus arms of those slots, then the minus arms
        weights = _lattice_split(self.A, "anisotropy matrix")
        slots = _split_slots(self.grid)[weights > 0.0]
        self.up_c = weights[weights > 0.0]
        arms = np.concatenate([slots, slots + self.d])
        self.up_idx = self.idx_t[arms]
        self.up_inv_h = 1.0 / lengths[arms]

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

    # -- evaluation ---------------------------------------------------------

    def second_differences(self, v_ext: np.ndarray) -> np.ndarray:
        # gathered direction-major: one contiguous take per stencil arm,
        # then updated in place (same arithmetic, no large temporaries)
        parts = np.take(v_ext, self.idx_t)
        parts -= v_ext[: self.n]
        parts *= self.cc_t
        return (parts[: self.d] + parts[self.d :]).T

    def gradient(self, v_ext: np.ndarray) -> np.ndarray:
        """Centered gradient, rows x and y."""
        g = self.g_plus * v_ext[self.g_ip] + self.g_minus * v_ext[self.g_im]
        return g + self.g_zero * v_ext[: self.n]

    def hamiltonian(self, v_ext: np.ndarray, upwind: bool = False):
        """H_h at ``v_ext``, its policy columns and its slopes; ``(0.0, [],
        None)`` without a gradient term.

        Upwind: per upwind slot (rows) m_k = max(d+_k, d-_k, 0) from the
        one-sided differences (u_arm - u_0) / h_arm on the cut-cell arms,
        nondecreasing in every u_arm - u_0, so H_h is degenerate elliptic.
        Its policy is each slot's active arm (0 where m_k = 0, 1 plus, 2
        minus) and whether q is below the cap; its slopes (m, minus, dH/dq).
        Centered: its policy is whether |g| is below the cap; its slope
        dH/dg.  Beyond the cap g is rescaled onto the cap circle, which
        leaves a tangential slope unless A is a multiple of I.
        """
        if not self.ham:
            return 0.0, [], None
        cap2, p = self.g_cap**2, self.h_p
        if upwind:
            diffs = np.take(v_ext, self.up_idx)
            diffs -= v_ext[: self.n]
            diffs *= self.up_inv_h
            plus, minus = np.split(diffs, 2)
            m = np.maximum(np.maximum(plus, minus), 0.0)
            q = self.up_c @ (m * m)
            h_vals = self.h_coef * np.minimum(q, cap2) ** (p / 2.0)
            minus = minus > plus
            live = (q > 0.0) & (q < cap2)
            dh_dq = np.zeros(self.n)
            dh_dq[live] = self.h_coef * p * q[live] ** (p / 2.0 - 1.0)
            arms = [*np.where(m > 0.0, 1 + minus, 0), q < cap2]
            return h_vals, arms, (m, minus, dh_dq)
        g = self.gradient(v_ext)
        ag = self.A @ g
        n2 = (g * g).sum(axis=0)
        shrink = np.divide(cap2, n2, out=np.ones(self.n), where=n2 > cap2)
        q = (g * ag).sum(axis=0)
        qs = q * shrink
        h_vals = self.h_coef * np.maximum(qs, 0.0) ** (p / 2.0)
        tilt = np.divide(q, n2, out=np.zeros(self.n), where=n2 > cap2)
        live = qs > 0.0
        coef = np.zeros(self.n)
        coef[live] = self.h_coef * p * qs[live] ** (p / 2.0 - 1.0) * shrink[live]
        return h_vals, [n2 < cap2], coef * (ag - tilt * g)

    def linearize(self, v_ext: np.ndarray, upwind: bool = False) -> _Linearization:
        """F_h + H_h - f (centered or upwind) with the policy and slopes of
        ``jacobian``, from one pass of second differences and one of the
        first-order term: the only evaluation of the scheme.  A term's
        active slot is the argmin of a min term, the argmax of a max term."""
        # the slopes outlive the second differences; allocating them first
        # kept grid-lens peak RSS 4 MB lower than the other order
        h_vals, h_cols, slopes = self.hamiltonian(v_ext, upwind)
        d2 = self.second_differences(v_ext)
        rows = np.arange(self.n)
        f_h = np.zeros(self.n)
        cols = []
        for slots, w, rule in self.terms:
            along = d2[:, slots]
            at = _RULES[rule][1](along, axis=1)
            f_h += w * along[rows, at]
            cols.append(slots[at])
        policy = np.array(cols + h_cols, dtype=np.int16).reshape(-1, self.n).T
        return _Linearization(upwind, f_h + h_vals - self.fvals, policy, slopes, h_vals)

    def jacobian(self, lin: _Linearization):
        """Sparse d(F_h + H_h)/du under the policy of ``lin``.

        Each node keeps only the active slot of each operator term, which
        makes this an element of the generalized derivative of the min/max
        scheme.  The upwind form adds one active arm per slot, the larger
        one-sided difference (none where m_k = 0 or q is capped).  Arms that
        end on the boundary slot carry no unknown and are dropped.
        """
        from scipy.sparse import csr_matrix

        n, d, rows = self.n, self.d, np.arange(self.n)
        diag = np.zeros(n)
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for k, (_, w, _) in zip(lin.policy.T, self.terms):
            cp, cm = self.cc_t[k, rows], self.cc_t[k + d, rows]
            cols += [self.idx_t[k, rows], self.idx_t[k + d, rows]]
            vals += [w * cp, w * cm]
            diag -= w * self.c0[k, rows]
        if lin.slopes is not None and lin.upwind:
            m, minus, dh_dq = lin.slopes
            plus_idx, minus_idx = np.split(self.up_idx, 2)
            plus_inv, minus_inv = np.split(self.up_inv_h, 2)
            # dH/dm_k times dm_k/du_arm = 1 / h_arm; dm_k/du_0 = -1 / h_arm
            arm_inv = np.where(minus, minus_inv, plus_inv)
            slope = dh_dq * self.up_c[:, None] * m * arm_inv
            cols += list(np.where(minus, minus_idx, plus_idx))
            vals += list(slope)
            diag -= slope.sum(axis=0)
        elif lin.slopes is not None:
            s = lin.slopes
            cols += [*self.g_ip, *self.g_im]
            vals += [*(s * self.g_plus), *(s * self.g_minus)]
            diag += (s * self.g_zero).sum(axis=0)
        cols.append(rows)
        vals.append(diag)
        r = np.tile(rows, len(cols))
        c = np.concatenate(cols)
        keep = c < n
        return csr_matrix(
            (np.concatenate(vals)[keep], (r[keep], c[keep])), shape=(n, n)
        )


def _resolve_node(grid: Grid2D, node) -> int:
    if isinstance(node, (int, np.integer)):
        idx = int(node)
        if not 0 <= idx < grid.n_nodes:
            raise ConfigError(f"node index {idx} out of range")
        return idx
    return grid.node_index(node)


def _resolve_direction(grid: Grid2D, direction) -> int:
    if isinstance(direction, (int, np.integer)):
        k = int(direction)
        if not 0 <= k < grid.K:
            raise ConfigError(f"direction slot {k} out of range")
        return k
    a, b = int(direction[0]), int(direction[1])
    for cand in ((a, b), (-a, -b)):
        if cand in grid.directions:
            return grid.directions.index(cand)
    raise ConfigError(f"direction {(a, b)} is not in the stencil fan")


def discrete_second_difference(u: GridFunction, node, direction) -> float:
    """Three-point second difference along one stencil direction, the
    scheme's value (``_Scheme.second_differences``) at this node.

    Full arms give the uniform (u+ - 2 u0 + u-)/h_v^2; cut arms use the
    nonuniform weights against the zero boundary value at the (floored)
    cut point recorded in the grid.
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
    """Over the stages of one solve: the nodes whose policy each Newton step
    changed (so the step count is ``len(policy_changes)``), the residual
    history (each stage's start residual, then one per step), the
    factorizations, the upwind steps (None until that stage ends), the best
    residual of the current stage and the last form gap (see ``_newton``)."""

    def __init__(self):
        self.policy_changes: list[int] = []
        self.history: list[float] = []
        self.factorizations = 0
        self.upwind_steps: int | None = None
        self.residual = math.inf
        self.form_gap = 0.0

    def failure(self, message: str) -> NumericError:
        """``message`` as a ``NumericError`` with this log as diagnostics."""
        return NumericError(
            message,
            diagnostics={
                "iterations": len(self.policy_changes),
                "factorizations": self.factorizations,
                "upwind_steps": self.upwind_steps,
                "residual": self.residual,
                "residual_history": self.history,
                "policy_changes": self.policy_changes,
                "form_gap": self.form_gap,
            },
        )


# a chord step (on the last factor, with the residual above the stop outside
# the changed rows) must cut the max residual by this ratio, as must the step
# before it: Kelley's rule for modified Newton (nsol, SIAM 2003)
_CHORD_RATIO = 0.5


def _reuse_rows(lu, policy0, policy, resid, stop, halved):
    """``(rows, exact)`` when the next step may reuse the last factor, rows
    the nodes whose policy differs from the factored Jacobian's; otherwise
    None.

    The step is exact when every node with |residual| > ``stop`` is among
    the rows, so the policy alone limits the step and the rest is solved to
    the stop.  Otherwise it is a chord step, tried only when the step before
    it ``halved`` the max residual.  Either needs at most ``lu.nnz // (2 n)``
    rows: about that many triangular solves cost one factorization.
    """
    if lu is None:
        return None
    rows = np.flatnonzero((policy != policy0).any(axis=1))
    if rows.size > lu.nnz // (2 * resid.size):
        return None
    outside = np.abs(resid) > stop
    outside[rows] = False
    exact = not outside.any()
    return (rows, exact) if exact or halved else None


def _row_update_solve(lu, jac0, jac, rows, rhs, cols):
    """Solve J x = rhs, where J is ``jac0`` with its rows ``rows`` replaced by
    those of ``jac``, from ``lu``, the factor of ``jac0``.

    J = jac0 + E D with E the unit columns of ``rows`` and D = (jac -
    jac0)[rows], so by the Woodbury identity (Hager, SIAM Review 31, 1989)
    x = y - Z (I + D Z)^-1 D y with y = jac0^-1 rhs and Z = jac0^-1 E.
    ``cols`` caches the columns of Z by node, one single right-hand-side
    solve each, for the steps that share ``lu``.  A singular J gives NaN.
    With no ``rows`` this is ``lu.solve(rhs)``, and ``jac`` is not read.
    """
    y = lu.solve(rhs)
    if not rows.size:
        return y
    for i in rows.tolist():
        if i not in cols:
            unit = np.zeros(rhs.size)
            unit[i] = 1.0
            cols[i] = lu.solve(unit)
    z = [cols[i] for i in rows.tolist()]
    d = jac[rows] - jac0[rows]
    capacitance = np.eye(rows.size) + np.column_stack([d @ zi for zi in z])
    try:
        weights = np.linalg.solve(capacitance, d @ y)
    except np.linalg.LinAlgError:  # J is singular
        return np.full(rhs.size, np.nan)
    for wi, zi in zip(weights, z):
        y -= wi * zi
    return y


def _newton(
    scheme: _Scheme,
    v_ext: np.ndarray,
    stop: float,
    upwind: bool,
    log: _StepLog,
    hand_over: bool = False,
) -> tuple[np.ndarray, float]:
    """Semismooth Newton (policy-iteration) steps on one form of the scheme,
    at most ``_step_budget`` of them past the steps already in ``log``.

    Returns the iterate with the smallest residual seen, the start included,
    and that residual, kept in ``log.residual``.  ``log`` gets the start
    residual, and per step the residual after it and its policy changes,
    and the factorizations.  Reaching ``stop`` ends the stage; so does a
    non-finite residual, which the caller reports.  With ``hand_over`` so
    does a residual at or below the form gap at the iterate (see `solve`),
    kept in ``log.form_gap``.

    Each iterate is linearized once (``_Scheme.linearize``); its residual,
    policy, form gap and any step's Jacobian come from that record, and the
    factored iterate keeps only its policy.  A step factors its Jacobian
    with symmetric-mode SuperLU (see the module docstring).  With a
    gradient term every upwind step does, as exact steps on that monotone
    convex form rise from the barrier to the discrete solution while a
    stale Jacobian may overshoot it.  Any other step may instead, when
    ``_reuse_rows`` allows, solve with the last factored Jacobian J0 after
    its rows at the nodes whose policy changed are replaced by the current
    ones (``_row_update_solve``).  J0's other rows differ only in gradient
    slopes, so without a gradient term that is the current Jacobian.
    Where the residual at J0's other rows is below the stop the step is
    exact and must lower the max residual.  Otherwise it is a chord step
    of modified Newton (Kelley, SIAM 2003), tried only right after a step
    that halved the max residual, and it must halve it too.  A reused step
    that fails its test is dropped and the step factors afresh at the same
    iterate.  On the disc the polish factors once or twice and takes 2-4
    chord steps to the stop.  The old factor, J0 and the cached columns go
    before the next factorization, so one factor is alive at a time.  A Jacobian that factors as exactly singular raises
    ``log.failure``.
    """
    from scipy.sparse.linalg import splu

    n = scheme.n
    cap = len(log.policy_changes) + _step_budget(scheme.grid)
    lin = scheme.linearize(v_ext, upwind)
    rmax = float(np.max(np.abs(lin.resid)))
    log.history.append(rmax)
    best, log.residual = v_ext, rmax
    lu = jac0 = policy0 = None
    halved = False
    cols: dict[int, np.ndarray] = {}

    def advance(du):
        trial = np.append(v_ext[:n] + du, 0.0)
        with np.errstate(all="ignore"):
            return trial, scheme.linearize(trial, upwind)

    def target():
        if not hand_over:
            return stop
        with np.errstate(all="ignore"):
            gap = lin.h_vals - scheme.hamiltonian(v_ext)[0]
        log.form_gap = float(np.max(np.abs(gap)))
        return max(stop, log.form_gap)

    while math.isfinite(rmax) and rmax > target() and len(log.policy_changes) < cap:
        step = None
        # an upwind step with a gradient term factors afresh; without one a
        # row is fixed by its policy, so the row update is a Newton step
        reuse = None if upwind and scheme.ham else _reuse_rows(
            lu, policy0, lin.policy, lin.resid, stop, halved
        )
        if reuse is not None:
            rows, exact = reuse
            jac = scheme.jacobian(lin) if rows.size else None
            du = _row_update_solve(lu, jac0, jac, rows, -lin.resid, cols)
            del jac
            step = advance(du)
            # an exact step must lower the residual, a chord step at least
            # halve it (a NaN one does neither)
            r_new = float(np.max(np.abs(step[1].resid)))
            if not (r_new < rmax if exact else r_new <= _CHORD_RATIO * rmax):
                step = None
        if step is None:
            lu = jac0 = None
            cols.clear()
            jac0, policy0 = scheme.jacobian(lin), lin.policy
            try:
                lu = splu(
                    jac0.tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.1,
                    options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:
                raise log.failure(
                    f"singular Newton Jacobian at step"
                    f" {len(log.policy_changes) + 1} ({exc})"
                ) from exc
            log.factorizations += 1
            step = advance(lu.solve(-lin.resid))
        log.policy_changes.append(int((step[1].policy != lin.policy).any(axis=1).sum()))
        v_ext, lin = step
        last, rmax = rmax, float(np.max(np.abs(lin.resid)))
        halved = rmax <= _CHORD_RATIO * last
        log.history.append(rmax)
        if rmax < log.residual:
            best, log.residual = v_ext, rmax
    return best, log.residual


def solve(
    problem: GridProblem,
    grid: Grid2D,
    controls: SolveControls | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Solve to the discrete solution; stop when the residual max-norm falls
    below tol*(1 + sup|f|).

    Semismooth Newton (policy iteration) steps in two stages, each capped
    at ``_step_budget`` steps.  The first works on the upwind form of the
    first-order term, which is degenerate elliptic, from the barrier start.
    It only picks the centered solution and starts the polish close to it,
    so it hands over at the larger of the stop and the form gap max
    |H_h^upwind - H_h^centered| at its iterate (0 without a gradient term),
    by which the centered residual differs from its own.  The second (the
    polish) works on the centered form from the best upwind iterate, so the
    result solves the centered scheme.  ``iterations`` counts the steps of
    both stages; ``upwind_steps`` is the upwind stage's share.  A blow-up,
    a singular Jacobian or an unmet stop raises ``_StepLog.failure``.  The
    scheme set-up admits the envelope (``_Scheme._setup_hamiltonian``); with
    a gradient term the barrier start refuses a radius above the existence
    threshold at m_eff (``_initial_values``).
    """
    controls = controls or SolveControls()
    scheme = _Scheme(problem, grid)
    stop = controls.tol * (1.0 + scheme.f_sup)
    n = grid.n_nodes
    v_ext = np.zeros(n + 1)
    v_ext[:n] = _initial_values(problem, grid, scheme)

    # the first solve in a process would otherwise time scipy's import
    import scipy.sparse.linalg  # noqa: F401

    start = time.perf_counter()
    log = _StepLog()
    v_ext, rmax = _newton(scheme, v_ext, stop, True, log, hand_over=True)
    log.upwind_steps = len(log.policy_changes)
    if math.isfinite(log.history[-1]):
        v_ext, rmax = _newton(scheme, v_ext, stop, False, log)
    iterations = len(log.policy_changes)
    if not math.isfinite(log.history[-1]):
        raise log.failure("iteration blew up (non-finite residual)")
    if rmax > stop:
        raise log.failure(
            f"no convergence within {iterations} iterations"
            f" (residual {rmax:.3e}, target {stop:.3e})"
        )
    wall = time.perf_counter() - start

    result = GridFunction(grid=grid, values=v_ext[:n])
    report = SolveReport(
        iterations=iterations,
        upwind_steps=log.upwind_steps,
        factorizations=log.factorizations,
        policy_changes=tuple(log.policy_changes),
        residual_norm=rmax,
        wall_time=wall,
        stop_residual=stop,
        form_gap=log.form_gap,
    )
    return result, report


def sweep(
    problem: GridProblem,
    grid: Grid2D,
    values: np.ndarray,
    tau: float,
    steps: int = 1,
) -> np.ndarray:
    """Apply ``steps`` simultaneous updates u <- u + tau (F_h[u] + H_h[u] - f)
    on the centered form; the scheme set-up and residual probes of
    ``perfbench/run.py`` call it with ``tau = 0``."""
    v_ext = GridFunction(grid=grid, values=values).extended()
    try:
        # a float or bool steps and a str or None tau are refused
        steps = -1 if isinstance(steps, bool) else operator.index(steps)
        finite = math.isfinite(tau)
    except TypeError:
        steps, finite = -1, False
    if not (finite and tau >= 0.0 and steps >= 0):
        raise ConfigError("sweep needs a finite tau >= 0 and steps >= 0")
    scheme = _Scheme(problem, grid)
    for _ in range(steps):
        v_ext[: grid.n_nodes] += tau * scheme.linearize(v_ext).resid
    return v_ext[: grid.n_nodes].copy()


def residual_norm(problem: GridProblem, u: GridFunction) -> float:
    """max over in-domain nodes of |F_h[u] + H_h[u] - f|."""
    scheme = _Scheme(problem, u.grid)
    return float(np.max(np.abs(scheme.linearize(u.extended()).resid)))


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
        f"upwind_steps: {report.upwind_steps}",
        f"factorizations: {report.factorizations}",
        "policy_changes: " + " ".join(map(str, report.policy_changes)),
        f"residual_norm: {report.residual_norm:.17g}",
        f"stop_residual: {report.stop_residual:.17g}",
        f"form_gap: {report.form_gap:.17g}",
        f"wall_time_s: {report.wall_time:.3f}",
    ]
    return "\n".join(lines) + "\n"
