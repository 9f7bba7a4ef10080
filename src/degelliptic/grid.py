"""Wide-stencil finite differences on ball-intersection domains.

Discretizes F(x, D^2 u) + H(Du) = f with zero Dirichlet data on a 2D
lattice.  Second derivatives are sampled along a fan of lattice directions
(one pair per requested angle).  F_h is one table of (slots, weights,
min|max) terms (``_operator_terms``), each a weighted minimum or maximum of
the second differences along its slots.  ``LambdaK(1|2)``, ``MinMax``,
two-weight ``WeightedEigenvalues`` and ``CoefficientLambdaN`` scan the fan;
``LinearDegenerate`` has one single-slot term per lattice direction of the
diagonally dominant split of Sigma^T Sigma.  Every other operator raises
``UnsupportedDiscretizationError``.  Nodes next to the boundary use
nonuniform three-point differences against the exact ray-circle cut
points.  The cut fractions are only clipped to [1e-14, 1]
(``_cut_fractions``); there is no larger floor, so a node almost on the
boundary gets an arm almost of length zero and the scale of its stencil
row (the slope bound D_i) is unbounded.

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
gradient term, and solves the assembled sparse linear system.  Newton
first solves the upwind form from the initial iterate, then polishes on
the centered form from the best upwind iterate; the result solves the
centered scheme.  The initial iterate is the paper's barrier: with a
gradient term the supersolution, the first-zero radial profile at the
forcing magnitude, which is the exact solution on a disc; without one the
paraboloid envelope (m / 2 beta)(R^2 - max_y |x - y|^2), which exists on
every domain.  On the unit disc this takes 2-4 upwind and 3-4 polish steps
from h = 1/16 to 1/64.  From zero it takes 10-15 upwind steps: there every
fan direction ties, so the first policy is arbitrary.  There is no
fallback: a polish that misses the stop residual within its step budget
(``_step_budget``, the longer side of the lattice box, per stage), or a
Jacobian that factors as singular, ends the solve with ``NumericError``.

Each Newton system is factored by SuperLU in symmetric mode: a minimum
degree order of J + J^T, with the diagonal pivot kept wherever it is at
least 0.1 of the largest entry in its column.  Partial pivoting would swap
rows and undo the symmetric fill-reducing order.  Keeping the diagonal is
safe for the upwind form: a degenerate elliptic scheme has an M-matrix
Jacobian (nonnegative off-diagonal slopes, weakly dominant negative
diagonal), and LU without row exchanges is stable for M-matrices.  The
centered first-order term breaks that sign pattern, so the polish
Jacobians are not M-matrices; the threshold lets SuperLU pivot off the
diagonal where a polish pivot is too small.  A step that moves the policy
at a few nodes only, with the residual elsewhere below the stop, reuses the
last factor through an exact low-rank row update (see ``_newton``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .barriers import build_subsolution, build_supersolution, evaluate_barrier
from .errors import (
    ConfigError,
    NumericError,
    ThresholdError,
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
    """Primitive lattice vectors nearest the angles k*pi/K, k = 0..K-1."""
    cap = max(2, -(-K // 4))
    cands: list[tuple[tuple[int, int], float]] = []
    for a in range(-cap, cap + 1):
        for b in range(cap + 1):
            if b == 0 and a <= 0:
                continue  # keep one representative per +-v pair
            if math.gcd(abs(a), b) != 1:
                continue
            cands.append(((a, b), math.atan2(b, a)))
    fan: list[tuple[int, int]] = []
    for k in range(K):
        target = math.pi * k / K
        best = min(
            cands,
            key=lambda c: min(abs(c[1] - target), math.pi - abs(c[1] - target)),
        )[0]
        if best not in fan:
            fan.append(best)
    return tuple(fan)


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Lattice over a ball-intersection domain with cut-distance data.

    ``mask`` is 0 outside, 1 at interior nodes whose stencil arms all end at
    in-domain nodes, and 2 at boundary-adjacent nodes (at least one arm
    crosses the boundary).  ``theta_plus``/``theta_minus`` hold the exact
    crossing fractions in (0, 1] per node and direction (1.0 = full arm);
    ``hp``/``hm`` are the corresponding arm lengths.  Neighbor indices point
    into the packed node array, with ``n_nodes`` standing for the zero-valued
    boundary slot.
    """

    domain: ConvexDomain
    h: float
    K: int
    directions: tuple[tuple[int, int], ...]
    op_mask: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray
    idx_grid: np.ndarray
    nodes_xy: np.ndarray
    nb_plus: np.ndarray
    nb_minus: np.ndarray
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    hv: np.ndarray
    hp: np.ndarray
    hm: np.ndarray
    slot_ex: int
    slot_ey: int
    slot_pp: int
    slot_mp: int

    @property
    def n_nodes(self) -> int:
        return self.nodes_xy.shape[0]

    @property
    def op_slots(self) -> np.ndarray:
        return np.flatnonzero(self.op_mask)

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

    The direction fan also always carries the two axes and both diagonals
    (needed for gradients and for anisotropic trace operators); extra slots
    beyond the requested K pairs are excluded from eigenvalue min/max scans.
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
    if not isinstance(K, int) or K < 4:
        raise ConfigError("need an integer K >= 4 direction pairs")

    fan = list(_direction_fan(K))
    op_count = len(fan)
    for extra in ((1, 0), (0, 1), (1, 1), (-1, 1)):
        if extra not in fan:
            fan.append(extra)
    directions = tuple(fan)
    op_mask = np.zeros(len(directions), dtype=bool)
    op_mask[:op_count] = True

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

    d = len(directions)
    nb_plus = np.full((n, d), n, dtype=np.int32)
    nb_minus = np.full((n, d), n, dtype=np.int32)
    theta_plus = np.ones((n, d))
    theta_minus = np.ones((n, d))

    for k, (a, b) in enumerate(directions):
        for sgn, nb, theta in (
            (1, nb_plus, theta_plus),
            (-1, nb_minus, theta_minus),
        ):
            jx = order[:, 1] + sgn * a
            jy = order[:, 0] + sgn * b
            ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
            hit = np.zeros(n, dtype=bool)
            hit[ok] = inside[jy[ok], jx[ok]]
            nb[hit, k] = idx_grid[jy[hit], jx[hit]]
            cut = ~hit
            if np.any(cut):
                step = h * sgn * np.array([a, b], dtype=float)
                theta[cut, k] = _cut_fractions(nodes_xy[cut], step, domain)

    cut_any = (theta_plus < 1.0).any(axis=1) | (theta_minus < 1.0).any(axis=1)
    mask = np.zeros((ny, nx), dtype=np.int8)
    mask[order[:, 0], order[:, 1]] = np.where(cut_any, 2, 1)

    hv = h * np.linalg.norm(np.asarray(directions, dtype=float), axis=1)
    hp = theta_plus * hv
    hm = theta_minus * hv

    for arr in (
        xs, ys, mask, idx_grid, nodes_xy, nb_plus, nb_minus,
        theta_plus, theta_minus, hv, hp, hm, op_mask,
    ):
        arr.flags.writeable = False

    return Grid2D(
        domain=domain,
        h=h,
        K=K,
        directions=directions,
        op_mask=op_mask,
        xs=xs,
        ys=ys,
        mask=mask,
        idx_grid=idx_grid,
        nodes_xy=nodes_xy,
        nb_plus=nb_plus,
        nb_minus=nb_minus,
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        hv=hv,
        hp=hp,
        hm=hm,
        slot_ex=directions.index((1, 0)),
        slot_ey=directions.index((0, 1)),
        slot_pp=directions.index((1, 1)),
        slot_mp=directions.index((-1, 1)),
    )


def _step_budget(grid: Grid2D) -> int:
    """Newton steps per stage: the longer side of the lattice box.  A policy
    front moves about one lattice row per step; the anisotropic lens takes
    25 upwind steps of 171 at h = 1/64 and 54 of 337 at h = 1/128."""
    return max(grid.mask.shape)


def _split_slots(grid: Grid2D) -> np.ndarray:
    """The ex, ey, (1, 1) and (-1, 1) slots, in ``_lattice_split`` order."""
    return np.array([grid.slot_ex, grid.slot_ey, grid.slot_pp, grid.slot_mp])


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
        try:
            vals = np.asarray(fn(grid.nodes_xy), dtype=float)
            if vals.shape != (grid.n_nodes,):
                raise TypeError
        except Exception:
            vals = np.array([float(fn(p)) for p in grid.nodes_xy])
        return cls(grid=grid, values=vals)

    def value_at(self, point) -> float:
        return float(self.values[self.grid.node_index(point)])

    def extended(self) -> np.ndarray:
        """Node values with the trailing zero slot for boundary arms."""
        return np.append(self.values, 0.0)

    def to_dense(self) -> np.ndarray:
        out = np.full(self.grid.mask.shape, np.nan)
        sel = self.grid.mask > 0
        out[sel] = self.values
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
    """Stopping tolerance on the scaled residual and initial iterate:
    "barrier" (the supersolution with a gradient term, the paraboloid
    envelope without one) or "zeros"."""

    tol: float = 1e-5
    init: str = "barrier"

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tolerance must be positive")
        if self.init not in ("zeros", "barrier"):
            raise ConfigError('init must be "zeros" or "barrier"')


@dataclass(frozen=True)
class SolveReport:
    """``upwind_steps`` counts the Newton steps of the upwind stage; the
    polish took ``iterations - upwind_steps``.  ``factorizations`` counts
    the LU factorizations of the Newton steps, and ``policy_changes`` per
    step the nodes whose active policy it changed.  ``d_max`` is the largest
    per-node bound on the diagonal slope |d(F_h + H_h)/du_0|."""

    iterations: int
    upwind_steps: int
    factorizations: int
    policy_changes: tuple[int, ...]
    residual_norm: float
    wall_time: float
    d_max: float
    f_sup: float
    stop_residual: float
    init: str


def _field_on_nodes(f: ForcingLike, pts: np.ndarray, what: str) -> np.ndarray:
    if isinstance(f, (int, float)):
        vals = np.full(pts.shape[0], float(f))
    else:
        try:
            vals = np.asarray(f(pts), dtype=float)
            if vals.ndim == 0:
                vals = np.full(pts.shape[0], float(vals))
            if vals.shape != (pts.shape[0],):
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([float(f(p)) for p in pts])
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
    fan = grid.op_slots
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


class _Scheme:
    """Precomputed discretization of F_h + H_h - f on one grid: F_h from
    the ``terms`` table, H_h from (A, h_coef, h_p, g_cap) alone."""

    def __init__(self, problem: GridProblem, grid: Grid2D):
        if problem.domain != grid.domain:
            raise ConfigError("problem and grid describe different domains")
        self.grid = grid
        self.problem = problem
        n, d = grid.nb_plus.shape
        self.n = n
        self.d = d

        hp, hm = grid.hp, grid.hm
        cp = 2.0 / (hp * (hp + hm))
        cm = 2.0 / (hm * (hp + hm))
        # direction-major (2d, n): rows 0..d-1 are the plus arms
        self.idx_t = np.ascontiguousarray(
            np.concatenate([grid.nb_plus, grid.nb_minus], axis=1).T, dtype=np.intp
        )
        self.cc_t = np.ascontiguousarray(np.concatenate([cp, cm], axis=1).T)
        self.c0 = cp + cm
        self.terms = _operator_terms(problem.operator, grid, grid.nodes_xy)

        self.fvals = _field_on_nodes(problem.f, grid.nodes_xy, "forcing")
        self.f_sup = float(np.max(np.abs(self.fvals))) if n else 0.0
        self.m_eff = float(np.max(np.maximum(problem.params.c - self.fvals, 0.0)))

        self._setup_hamiltonian(problem.hamiltonian)

        # exact per-node bound on |d(F_h + H_h)/du_0|, for the refusal of a
        # node with no diagonal slope and for the report's d_max
        d_node = np.zeros(n)
        for slots, w, _ in self.terms:
            d_node += w * self.c0[:, slots].max(axis=1)
        if self.ham:
            d_node += self.h_lip * np.hypot(*self.g_zero)
        if np.any(d_node <= 0.0):
            raise ConfigError("operator has no diagonal slope at some node")
        self.d_max = float(np.max(d_node))

    def _setup_hamiltonian(self, ham: HamiltonianSpec | None):
        """H(g) = h_coef <A g, g>^(h_p / 2): ``PowerNorm`` b |g|^p has A = I
        and h_coef = b, ``AnisotropicPower`` its own A and h_coef = 1.  This
        is the only place that dispatches on the Hamiltonian class."""
        self.ham = False
        self.h_lip = 0.0
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
        self.ham = True
        self.h_p = ham.p
        params = self.problem.params
        radius = self.problem.domain.radius
        if params.superlinear:
            # largest forcing magnitude this domain supports under the
            # envelope; the solution gradient is capped by the worse of the
            # actual forcing and that capacity value
            m_cap = (rbar(replace(params, M=1.0)) / radius) ** (
                params.p / (params.p - 1.0)
            )
            levels = [m_cap]
            if 0.0 < self.m_eff < m_cap:
                levels.append(self.m_eff)
        else:
            levels = [max(self.m_eff, 1.0 + self.f_sup)]
        self.g_cap = 2.0 * max(
            c1_bound(replace(params, M=m), radius) for m in levels
        )
        if not math.isfinite(self.g_cap):
            raise ConfigError("gradient cap is unbounded for this envelope")
        # b bounds h_coef <A g, g>^(p/2) by b |g|^p for both classes
        self.h_lip = ham.p * ham.b * self.g_cap ** (ham.p - 1.0)

        # centered gradient, rows x and y: g = g_plus u+ + g_minus u- +
        # g_zero u0 over the arms g_ip, g_im of the axis slots
        grid = self.grid
        axes = np.array([grid.slot_ex, grid.slot_ey])
        hp2, hm2 = grid.hp[:, axes].T, grid.hm[:, axes].T
        den = hp2 * hm2 * (hp2 + hm2)
        self.g_plus, self.g_minus = hm2 * hm2 / den, -hp2 * hp2 / den
        self.g_zero = (hp2 - hm2) / (hp2 * hm2)
        self.g_ip, self.g_im = self.idx_t[axes], self.idx_t[axes + self.d]

        # upwind form: q = sum_k c_k m_k^2 over the lattice slots of A's
        # dominant split (ex and ey with c = 1 for A = I); rows of up_idx /
        # up_inv_h are the plus arms of those slots, then the minus arms
        weights = _lattice_split(self.A, "anisotropy matrix")
        slots = _split_slots(grid)[weights > 0.0]
        self.up_c = weights[weights > 0.0]
        self.up_idx = self.idx_t[np.concatenate([slots, slots + self.d])]
        self.up_inv_h = 1.0 / np.concatenate([grid.hp[:, slots].T, grid.hm[:, slots].T])

    # -- evaluation ---------------------------------------------------------

    def second_differences(self, v_ext: np.ndarray) -> np.ndarray:
        # gathered direction-major: one contiguous take per stencil arm,
        # then updated in place (same arithmetic, no large temporaries)
        parts = np.take(v_ext, self.idx_t)
        parts -= v_ext[: self.n]
        parts *= self.cc_t
        return (parts[: self.d] + parts[self.d :]).T

    def operator_values(self, d2: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        for slots, w, rule in self.terms:
            out += w * _RULES[rule][0](d2[:, slots], axis=1)
        return out

    def gradient(self, v_ext: np.ndarray) -> np.ndarray:
        """Centered gradient, rows x and y."""
        g = self.g_plus * v_ext[self.g_ip] + self.g_minus * v_ext[self.g_im]
        return g + self.g_zero * v_ext[: self.n]

    def _centered_form(self, v_ext: np.ndarray):
        """The centered gradient g, A g, |g|^2, and the factor that rescales
        g onto the cap circle where |g| > g_cap (1 elsewhere)."""
        g = self.gradient(v_ext)
        n2 = (g * g).sum(axis=0)
        shrink = np.divide(
            self.g_cap**2, n2, out=np.ones(self.n), where=n2 > self.g_cap**2
        )
        return g, self.A @ g, n2, shrink

    def upwind_differences(self, v_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per upwind slot (rows): m_k = max(d+_k, d-_k, 0) from the one-sided
        differences (u_arm - u_0) / h_arm on the cut-cell arms, and where the
        minus arm is the larger one.  m_k is nondecreasing in every
        u_arm - u_0, which makes the upwind H_h degenerate elliptic."""
        diffs = np.take(v_ext, self.up_idx)
        diffs -= v_ext[: self.n]
        diffs *= self.up_inv_h
        plus, minus = np.split(diffs, 2)
        return np.maximum(np.maximum(plus, minus), 0.0), minus > plus

    def hamiltonian_values(
        self, v_ext: np.ndarray, upwind: bool = False
    ) -> float | np.ndarray:
        if not self.ham:
            return 0.0
        if upwind:
            m, _ = self.upwind_differences(v_ext)
            q = np.minimum(self.up_c @ (m * m), self.g_cap**2)
        else:
            g, ag, _, shrink = self._centered_form(v_ext)
            q = np.maximum((g * ag).sum(axis=0) * shrink, 0.0)
        return self.h_coef * q ** (self.h_p / 2.0)

    def hamiltonian_slopes(self, v_ext: np.ndarray) -> np.ndarray:
        """Exact derivative of the centered, capped H_h with respect to g,
        rows x and y.

        Beyond the cap g is rescaled onto the cap circle, which leaves a
        tangential slope unless A is a multiple of I; for A = I the tilt is
        exactly 1 there and the slope exactly 0.
        """
        g, ag, n2, shrink = self._centered_form(v_ext)
        q = (g * ag).sum(axis=0)
        tilt = np.divide(q, n2, out=np.zeros(self.n), where=n2 > self.g_cap**2)
        qs, p = q * shrink, self.h_p
        live = qs > 0.0
        coef = np.zeros(self.n)
        coef[live] = self.h_coef * p * qs[live] ** (p / 2.0 - 1.0) * shrink[live]
        return coef * (ag - tilt * g)

    def residual(self, v_ext: np.ndarray, upwind: bool = False) -> np.ndarray:
        """F_h + H_h - f with the centered or the upwind first-order term."""
        f_h = self.operator_values(self.second_differences(v_ext))
        return f_h + self.hamiltonian_values(v_ext, upwind) - self.fvals

    def residual_and_policy(
        self, v_ext: np.ndarray, upwind: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """``residual`` and the active policy of ``jacobian`` at ``v_ext``
        (see ``_policy``), from one pass of second differences."""
        d2 = self.second_differences(v_ext)
        f_h = self.operator_values(d2)
        resid = f_h + self.hamiltonian_values(v_ext, upwind) - self.fvals
        return resid, self._policy(v_ext, d2, upwind)

    def _fan_policy(self, d2: np.ndarray) -> list:
        """(slot, weights) per term at the second differences ``d2``: each
        node's active slot, the argmin or argmax over the term's slots."""
        return [
            (slots[_RULES[rule][1](d2[:, slots], axis=1)], w)
            for slots, w, rule in self.terms
        ]

    def _policy(self, v_ext: np.ndarray, d2: np.ndarray, upwind: bool) -> np.ndarray:
        """The choices behind ``jacobian``, one row per node: the active slot
        of each term with more than one slot, then with a gradient term the
        active arm of each upwind slot (0 where m_k = 0, 1 plus, 2 minus) and
        whether the gradient is below its cap.  Nodes with equal rows at two
        iterates have Jacobian rows of the same form; only the gradient
        slopes differ."""
        cols = [
            k
            for (k, _), (slots, _, _) in zip(self._fan_policy(d2), self.terms)
            if slots.size > 1
        ]
        if self.ham and upwind:
            m, minus = self.upwind_differences(v_ext)
            cols += list(np.where(m > 0.0, 1 + minus, 0))
            cols.append(self.up_c @ (m * m) < self.g_cap**2)
        elif self.ham:
            g = self.gradient(v_ext)
            cols.append((g * g).sum(axis=0) < self.g_cap**2)
        if not cols:
            return np.zeros((self.n, 0), dtype=np.int16)
        return np.column_stack(cols).astype(np.int16)

    def jacobian(self, v_ext: np.ndarray, upwind: bool = False):
        """Sparse d(F_h + H_h)/du at ``v_ext`` under the active policy.

        Each node keeps only the active slot of each operator term (see
        ``_fan_policy``), which makes this an element of the generalized
        derivative of the min/max scheme.  The upwind form adds one active
        arm per slot, the larger one-sided difference (none where m_k = 0 or
        q is capped).  Arms that end on the boundary slot carry no unknown
        and are dropped.
        """
        from scipy.sparse import csr_matrix

        n, d, rows = self.n, self.d, np.arange(self.n)
        diag = np.zeros(n)
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for k, w in self._fan_policy(self.second_differences(v_ext)):
            cp, cm = self.cc_t[k, rows], self.cc_t[k + d, rows]
            cols += [self.idx_t[k, rows], self.idx_t[k + d, rows]]
            vals += [w * cp, w * cm]
            diag -= w * self.c0[rows, k]
        if self.ham and upwind:
            m, minus = self.upwind_differences(v_ext)
            q = self.up_c @ (m * m)
            live = (q > 0.0) & (q < self.g_cap**2)
            coef = np.zeros(n)
            p = self.h_p
            coef[live] = self.h_coef * p * q[live] ** (p / 2.0 - 1.0)
            plus_idx, minus_idx = np.split(self.up_idx, 2)
            plus_inv, minus_inv = np.split(self.up_inv_h, 2)
            # dH/dm_k times dm_k/du_arm = 1 / h_arm; dm_k/du_0 = -1 / h_arm
            slope = coef * self.up_c[:, None] * m * np.where(minus, minus_inv, plus_inv)
            cols += list(np.where(minus, minus_idx, plus_idx))
            vals += list(slope)
            diag -= slope.sum(axis=0)
        elif self.ham:
            s = self.hamiltonian_slopes(v_ext)
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
        if not 0 <= k < len(grid.directions):
            raise ConfigError(f"direction slot {k} out of range")
        return k
    a, b = int(direction[0]), int(direction[1])
    for cand in ((a, b), (-a, -b)):
        if cand in grid.directions:
            return grid.directions.index(cand)
    raise ConfigError(f"direction {(a, b)} is not in the stencil fan")


def discrete_second_difference(u: GridFunction, node, direction) -> float:
    """Three-point second difference along one stencil direction.

    Full arms give the uniform (u+ - 2 u0 + u-)/h_v^2; cut arms use the
    nonuniform weights against the zero boundary value at the (floored)
    cut point recorded in the grid.
    """
    grid = u.grid
    i = _resolve_node(grid, node)
    k = _resolve_direction(grid, direction)
    v_ext = u.extended()
    hp, hm = grid.hp[i, k], grid.hm[i, k]
    u0 = v_ext[i]
    up = v_ext[grid.nb_plus[i, k]]
    um = v_ext[grid.nb_minus[i, k]]
    return float(
        2.0 * ((up - u0) / hp + (um - u0) / hm) / (hp + hm)
    )


def discrete_gradient(u: GridFunction, node) -> np.ndarray:
    """Centered two-point gradient estimate at a node."""
    grid = u.grid
    i = _resolve_node(grid, node)
    v_ext = u.extended()
    out = np.empty(2)
    for j, slot in enumerate((grid.slot_ex, grid.slot_ey)):
        hp, hm = grid.hp[i, slot], grid.hm[i, slot]
        up = v_ext[grid.nb_plus[i, slot]]
        um = v_ext[grid.nb_minus[i, slot]]
        u0 = v_ext[i]
        out[j] = (hm * hm * up - hp * hp * um + (hp * hp - hm * hm) * u0) / (
            hp * hm * (hp + hm)
        )
    return out


def discrete_operator(spec: OperatorSpec, u: GridFunction, node) -> float:
    """F_h at one node, from the terms of ``_operator_terms`` there."""
    grid = u.grid
    i = _resolve_node(grid, node)
    d2 = np.array(
        [discrete_second_difference(u, i, k) for k in range(len(grid.directions))]
    )
    terms = _operator_terms(spec, grid, grid.nodes_xy[i : i + 1])
    return float(sum(w[0] * _RULES[rule][0](d2[slots]) for slots, w, rule in terms))


def _check_envelope(problem: GridProblem, scheme: _Scheme):
    ham = problem.hamiltonian
    if not scheme.ham:
        return
    params = problem.params
    beta = ellipticity_constant(problem.operator)
    if params.beta > beta * (1.0 + 1e-12):
        raise ConfigError(
            f"declared ellipticity {params.beta} exceeds the operator's"
            f" constant {beta}"
        )
    if abs(ham.p - params.p) > 1e-12:
        raise ConfigError(
            f"Hamiltonian exponent {ham.p} mismatches the declared envelope"
            f" exponent {params.p}"
        )
    if ham.b > params.b * (1.0 + 1e-12):
        raise ConfigError(
            f"Hamiltonian growth {ham.b} exceeds the declared envelope {params.b}"
        )
    if params.superlinear and scheme.m_eff > 0.0:
        threshold = rbar(replace(params, M=scheme.m_eff))
        if problem.domain.radius > threshold * (1.0 + 1e-12):
            raise ThresholdError(
                f"domain radius {problem.domain.radius} exceeds the existence"
                f" threshold {threshold} at forcing magnitude {scheme.m_eff}"
            )


def _initial_values(problem: GridProblem, grid: Grid2D, scheme, init: str):
    """Zeros, or the barrier at the forcing magnitude m_eff: with a gradient
    term the supersolution (``_check_envelope`` has already refused a radius
    above its threshold), without one the paraboloid envelope, the negated
    subsolution, which needs no threshold."""
    if init == "zeros":
        return np.zeros(grid.n_nodes)
    if scheme.ham:
        barrier = build_supersolution(problem.domain, problem.params, scheme.m_eff)
        return np.asarray(evaluate_barrier(barrier, grid.nodes_xy), dtype=float)
    barrier = build_subsolution(problem.domain, problem.params, scheme.m_eff)
    return -np.asarray(evaluate_barrier(barrier, grid.nodes_xy), dtype=float)


class _StepLog:
    """Per Newton step, the nodes whose policy it changed; and the
    factorizations, counted over the stages of one solve."""

    def __init__(self):
        self.policy_changes: list[int] = []
        self.factorizations = 0


def _reuse_rows(lu, policy0, policy, resid, stop):
    """The nodes whose policy differs from the factored Jacobian's, when the
    next step may reuse that factor; otherwise None.

    A step reuses the factor when every node with |residual| > ``stop`` is
    among them, so the policy alone limits the step and the rest is solved
    to the stop, and when there are at most ``lu.nnz // (2 n)`` of them:
    about that many triangular solves cost one factorization.
    """
    if lu is None:
        return None
    rows = np.flatnonzero((policy != policy0).any(axis=1))
    if rows.size > lu.nnz // (2 * resid.size):
        return None
    outside = np.abs(resid) > stop
    outside[rows] = False
    return None if outside.any() else rows


def _row_update_solve(lu, jac0, jac, rows, rhs, cols):
    """Solve J x = rhs, where J is ``jac0`` with its rows ``rows`` replaced by
    those of ``jac``, from ``lu``, the factor of ``jac0``.

    J = jac0 + E D with E the unit columns of ``rows`` and D = (jac -
    jac0)[rows], so by the Woodbury identity (Hager, SIAM Review 31, 1989)
    x = y - Z (I + D Z)^-1 D y with y = jac0^-1 rhs and Z = jac0^-1 E.
    ``cols`` caches the columns of Z by node, one single right-hand-side
    solve each, for the steps that share ``lu``.  A singular J gives NaN.
    """
    y = lu.solve(rhs)
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
    steps: int,
    cap: int,
    history: list[float],
    upwind: bool,
    log: _StepLog | None = None,
) -> tuple[np.ndarray, float, int]:
    """Semismooth Newton (policy-iteration) steps on one form of the scheme,
    counting on from ``steps`` until the count reaches ``cap``.

    Returns the iterate with the smallest residual seen, the start included,
    that residual, and the step count.  ``history`` gets the start residual
    and the residual after each step, ``log`` the policy changes of each
    step and the factorizations.  Reaching ``stop`` ends the stage; so does
    a non-finite residual, which the caller reports.

    A step factors its Jacobian with symmetric-mode SuperLU (see the module
    docstring), or, when ``_reuse_rows`` allows, solves exactly with the
    last factored Jacobian J0 after its rows at the nodes whose policy
    changed are replaced by the current ones (``_row_update_solve``); J0's
    other rows differ only in gradient slopes, where the residual is below
    the stop.  A reused step that does not lower the max residual is
    dropped and the step factors afresh.  The old factor, J0 and the cached
    columns go before the next factorization, so one factor is alive at a
    time.  A Jacobian that factors as exactly singular raises
    ``NumericError`` with the step count and the residual history.
    """
    from scipy.sparse.linalg import splu

    log = log if log is not None else _StepLog()
    n = scheme.n
    resid, policy = scheme.residual_and_policy(v_ext, upwind)
    rmax = float(np.max(np.abs(resid)))
    history.append(rmax)
    best, best_r = v_ext, rmax
    lu = jac0 = policy0 = None
    cols: dict[int, np.ndarray] = {}

    def advance(du):
        trial = np.append(v_ext[:n] + du, 0.0)
        with np.errstate(all="ignore"):
            return (trial, *scheme.residual_and_policy(trial, upwind))

    while steps < cap and rmax > stop and math.isfinite(rmax):
        step = None
        rows = _reuse_rows(lu, policy0, policy, resid, stop)
        if rows is not None:
            jac = scheme.jacobian(v_ext, upwind)
            du = _row_update_solve(lu, jac0, jac, rows, -resid, cols)
            del jac
            step = advance(du)
            # a reused step must lower the residual (a NaN one does not)
            if not float(np.max(np.abs(step[1]))) < rmax:
                step = None
        if step is None:
            lu = jac0 = None
            cols.clear()
            jac0, policy0 = scheme.jacobian(v_ext, upwind), policy
            try:
                lu = splu(
                    jac0.tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.1,
                    options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:
                raise NumericError(
                    f"singular Newton Jacobian at step {steps + 1} ({exc})",
                    diagnostics={
                        "iterations": steps,
                        "residual_history": history,
                        "policy_changes": log.policy_changes,
                    },
                ) from exc
            log.factorizations += 1
            step = advance(lu.solve(-resid))
        steps += 1
        log.policy_changes.append(int((step[2] != policy).any(axis=1).sum()))
        v_ext, resid, policy = step
        rmax = float(np.max(np.abs(resid)))
        history.append(rmax)
        if rmax < best_r:
            best, best_r = v_ext, rmax
    return best, best_r, steps


def solve(
    problem: GridProblem,
    grid: Grid2D,
    controls: SolveControls | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Solve to the discrete solution; stop when the residual max-norm falls
    below tol*(1 + sup|f|).

    Semismooth Newton (policy iteration) steps in two stages, each capped
    at ``_step_budget`` steps.  The first works on the upwind form of the
    first-order term; that form is degenerate elliptic, and Newton reaches
    its solution from ``controls.init`` (the default barrier start is within
    a few steps of it on a disc).  The second (the polish) works on the
    centered form, from the best upwind iterate, so the result solves the
    centered scheme; the upwind stage picks which centered solution that is
    and starts Newton close enough to it.  ``iterations`` counts the steps
    of both stages; ``upwind_steps`` is the upwind stage's share.  An unmet
    stop raises ``NumericError`` with the iterations, the residual and the
    residual history (the start residual of each stage, then one per step).
    """
    controls = controls or SolveControls()
    scheme = _Scheme(problem, grid)
    _check_envelope(problem, scheme)

    stop = controls.tol * (1.0 + scheme.f_sup)
    n = grid.n_nodes
    v_ext = np.zeros(n + 1)
    v_ext[:n] = _initial_values(problem, grid, scheme, controls.init)

    start = time.perf_counter()
    history: list[float] = []
    log = _StepLog()
    budget = _step_budget(grid)
    v_ext, rmax, iterations = _newton(
        scheme, v_ext, stop, 0, budget, history, True, log
    )
    upwind_steps = iterations
    if math.isfinite(history[-1]):
        v_ext, rmax, iterations = _newton(
            scheme, v_ext, stop, iterations, iterations + budget, history, False, log
        )
    if not math.isfinite(history[-1]):
        raise NumericError(
            "iteration blew up (non-finite residual)",
            diagnostics={
                "iterations": iterations,
                "policy_changes": log.policy_changes,
            },
        )
    if rmax > stop:
        raise NumericError(
            f"no convergence within {iterations} iterations"
            f" (residual {rmax:.3e}, target {stop:.3e})",
            diagnostics={
                "iterations": iterations,
                "residual": rmax,
                "residual_history": history,
                "policy_changes": log.policy_changes,
            },
        )
    wall = time.perf_counter() - start

    result = GridFunction(grid=grid, values=v_ext[:n])
    report = SolveReport(
        iterations=iterations,
        upwind_steps=upwind_steps,
        factorizations=log.factorizations,
        policy_changes=tuple(log.policy_changes),
        residual_norm=rmax,
        wall_time=wall,
        d_max=scheme.d_max,
        f_sup=scheme.f_sup,
        stop_residual=stop,
        init=controls.init,
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
    if not (math.isfinite(tau) and tau >= 0.0 and steps >= 0):
        raise ConfigError("sweep needs a finite tau >= 0 and steps >= 0")
    scheme = _Scheme(problem, grid)
    for _ in range(steps):
        v_ext[: grid.n_nodes] += tau * scheme.residual(v_ext)
    return v_ext[: grid.n_nodes].copy()


def residual_norm(problem: GridProblem, u: GridFunction) -> float:
    """max over in-domain nodes of |F_h[u] + H_h[u] - f|."""
    scheme = _Scheme(problem, u.grid)
    if u.grid.n_nodes == 0:
        return 0.0
    return float(np.max(np.abs(scheme.residual(u.extended()))))


def solution_to_csv(u: GridFunction, path) -> None:
    grid = u.grid
    with open(path, "w", encoding="utf-8") as out:
        out.write(
            f"# h={grid.h:.17g} K={grid.K} nodes={grid.n_nodes}"
            f" radius={grid.domain.radius:.17g}\n"
        )
        out.write("x,y,u\n")
        for (x, y), v in zip(grid.nodes_xy, u.values):
            out.write(f"{x:.17g},{y:.17g},{v:.17g}\n")


def report_to_text(report: SolveReport) -> str:
    lines = [
        f"iterations: {report.iterations}",
        f"upwind_steps: {report.upwind_steps}",
        f"factorizations: {report.factorizations}",
        "policy_changes: " + " ".join(map(str, report.policy_changes)),
        f"residual_norm: {report.residual_norm:.17g}",
        f"stop_residual: {report.stop_residual:.17g}",
        f"init: {report.init}",
        f"wall_time_s: {report.wall_time:.3f}",
    ]
    return "\n".join(lines) + "\n"
