"""Wide-stencil finite differences on ball-intersection domains.

Discretizes F(x, D^2 u) + H(Du) = f with zero Dirichlet data on a 2D
lattice.  Second derivatives are sampled along a fan of lattice directions
(one pair per requested angle); eigenvalue operators take minima and maxima
over the fan.  Nodes next to the boundary use nonuniform three-point
differences against the exact ray-circle cut points.  The cut fractions
are only clipped to [1e-14, 1] (``_cut_fractions``); there is no larger
floor, so a node almost on the boundary gets an arm almost of length zero
and the scale of its stencil row (the slope bound D_i) is unbounded.

The first-order term has two forms.  The centered form uses three-point
centered differences along the axes; it is second-order accurate but not
monotone.  The upwind form, after Rouy & Tourin (1992), takes per lattice
slot k the one-sided m_k = max((u+ - u0)/h+, (u- - u0)/h-, 0) on the
cut-cell arms and H_h = b min(sum_k c_k m_k^2, cap^2)^(p/2): the axes with
c = 1 for ``PowerNorm``, and for ``AnisotropicPower`` the axes and one
diagonal of the diagonally dominant split of A (b = 1; a non-dominant A is
refused).  m_k is nondecreasing in every u_j - u0, so F_h + H_h is
degenerate elliptic in Oberman's sense (SIAM J. Numer. Anal. 44, 2006) and
its solutions obey the discrete comparison principle.

The solver takes semismooth Newton steps (policy iteration, after
Bokanowski, Maroso & Zidani 2009): each step fixes every node's active fan
direction (argmin for the lambda_1 weight, argmax for the lambda_2 weight,
the fixed weights for a linear diffusion) and the active arm of each upwind
slot, adds the exact slope of the capped gradient term, and solves the
assembled sparse linear system.  Newton first solves the upwind form from
the initial iterate, then polishes on the centered form from the best
upwind iterate; the result solves the centered scheme.  On the unit disc
this takes 10-14 upwind and 3-4 polish steps from h = 1/16 to 1/64.  There
is no fallback: a polish that misses the stop residual within its step
budget ends the solve with ``NumericError``.  Passing an explicit ``tau``
selects the scalar-step Jacobi iteration u <- u + tau (F_h[u] + H_h[u] - f)
on the centered form instead; its update is simultaneous, so results do not
depend on sweep order.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .barriers import build_supersolution, evaluate_barrier
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

_TAU_SAFETY = 0.95
# Newton steps per stage; the anisotropic lens at h = 1/64 needs 36 upwind
# steps and 16 polish steps
_NEWTON_STEPS = 60


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


def _split_slots(grid: Grid2D) -> np.ndarray:
    """The ex, ey, (1, 1) and (-1, 1) slots, in ``_lattice_split`` order."""
    return np.array([grid.slot_ex, grid.slot_ey, grid.slot_pp, grid.slot_mp])


def _lattice_split(a: np.ndarray, what: str) -> np.ndarray:
    """Nonnegative weights w on the ``_split_slots`` directions with
    a = sum_k w_k e_k e_k^T over their unit vectors e_k.

    The diagonal takes 2|a01| on (1, sign a01); the axes keep the rest of
    the diagonal entries, which is nonnegative exactly when ``a`` is
    diagonally dominant.
    """
    off = float(a[0, 1])
    wx, wy = float(a[0, 0]) - abs(off), float(a[1, 1]) - abs(off)
    scale = max(1.0, abs(a).max())
    if wx < -1e-12 * scale or wy < -1e-12 * scale:
        raise UnsupportedDiscretizationError(
            f"{what} is not diagonally dominant on the lattice"
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
    refusal and the optional barrier initialization, and must dominate the
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
    """Explicit Jacobi step (None = Newton: an upwind stage, then a centered
    polish), stopping tolerance on the scaled residual, cap on the Newton
    steps of both stages or on the Jacobi sweeps, and initial iterate
    ("zeros" or "barrier")."""

    tau: float | None = None
    tol: float = 1e-5
    max_iter: int = 500_000
    init: str = "zeros"

    def __post_init__(self):
        if self.tau is not None and not (self.tau > 0 and math.isfinite(self.tau)):
            raise ConfigError("tau must be positive and finite")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tolerance must be positive")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be >= 0")
        if self.init not in ("zeros", "barrier"):
            raise ConfigError('init must be "zeros" or "barrier"')


@dataclass(frozen=True)
class SolveReport:
    """``tau`` is the explicit Jacobi step, or the largest stable scalar step
    0.95 / D_max; ``update_norm`` is tau times the final residual."""

    iterations: int
    update_norm: float
    residual_norm: float
    tau: float
    wall_time: float
    tau_bound: float
    k_factor: float
    d_max: float
    f_sup: float
    stop_residual: float
    init: str


def _field_on_nodes(f: ForcingLike, pts: np.ndarray) -> np.ndarray:
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
        raise ConfigError("forcing must be finite on the grid")
    return vals


_EIGEN_SUPPORTED = (LambdaK, MinMax, WeightedEigenvalues, CoefficientLambdaN)


class _Scheme:
    """Precomputed discretization of F_h + H_h - f on one grid."""

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
        self.op_cols = grid.op_slots

        spec = problem.operator
        self.lindeg_w = None
        self.wmin = self.wmax = 0.0
        if isinstance(spec, LambdaK):
            if spec.index == 1:
                self.wmin, self.wmax = 1.0, 0.0
            elif spec.index == 2:
                self.wmin, self.wmax = 0.0, 1.0
            else:
                raise UnsupportedDiscretizationError(
                    "only the extreme eigenvalues are discretized in 2D"
                )
        elif isinstance(spec, MinMax):
            self.wmin = self.wmax = 1.0
        elif isinstance(spec, WeightedEigenvalues):
            if len(spec.alphas) != 2:
                raise UnsupportedDiscretizationError(
                    "eigenvalue weights must be two-dimensional here"
                )
            self.wmin, self.wmax = float(spec.alphas[0]), float(spec.alphas[1])
        elif isinstance(spec, CoefficientLambdaN):
            self.wmin = 0.0
            self.wmax = _field_on_nodes(spec.a, grid.nodes_xy)
            if np.any(self.wmax < spec.a.lower - 1e-12):
                raise ConfigError("coefficient drops below its declared infimum")
        elif isinstance(spec, LinearDegenerate):
            self.lindeg_w = self._lindeg_weights(spec)
        else:
            raise UnsupportedDiscretizationError(
                f"operator {type(spec).__name__} has no monotone stencil here"
            )

        self.fvals = _field_on_nodes(problem.f, grid.nodes_xy)
        self.f_sup = float(np.max(np.abs(self.fvals))) if n else 0.0
        self.m_eff = float(np.max(np.maximum(problem.params.c - self.fvals, 0.0)))

        self._setup_hamiltonian(problem.hamiltonian)

        # exact per-node bound on |d(F_h + H_h)/du_0|; its maximum sets the
        # stability bound of the explicit Jacobi step
        if self.lindeg_w is not None:
            d_f = np.einsum("ij,ij->i", self.lindeg_w, self.c0[:, self.lin_slots])
        else:
            c0_max = self.c0[:, self.op_cols].max(axis=1)
            d_f = (self.wmin + self.wmax) * c0_max
        d_h = self.h_lip * np.hypot(self.g0x, self.g0y) if self.ham else 0.0
        d_node = d_f + d_h
        if np.any(d_node <= 0.0):
            raise ConfigError("operator has no diagonal slope at some node")
        self.d_max = float(np.max(d_node))

    def _lindeg_weights(self, spec: LinearDegenerate) -> np.ndarray:
        grid = self.grid
        self.lin_slots = _split_slots(grid)
        w = np.zeros((self.n, 4))
        for i, x in enumerate(grid.nodes_xy):
            s = np.asarray(spec.sigma(x), dtype=float)
            w[i] = _lattice_split(s.T @ s, f"diffusion matrix at x = {tuple(x)}")
        return w

    def _setup_hamiltonian(self, ham: HamiltonianSpec | None):
        self.ham = None
        self.h_lip = 0.0
        if ham is None:
            return
        if isinstance(ham, PowerNorm):
            hb, hp_ = ham.b, ham.p
        elif isinstance(ham, AnisotropicPower):
            if ham.A.n != 2:
                raise ConfigError("anisotropy matrix must be 2x2 on grids")
            hb, hp_ = ham.b, ham.p
        else:
            raise UnsupportedDiscretizationError(
                "compactly perturbed Hamiltonians are certified on radial"
                " forms only, not on grids"
            )
        if hb == 0.0:
            return
        if hp_ < 1.0:
            raise UnsupportedDiscretizationError(
                "sublinear gradient terms have no bounded-slope discretization;"
                " move them into the forcing or set b = 0"
            )
        self.ham = ham
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
        self.h_lip = hp_ * hb * self.g_cap ** (hp_ - 1.0)

        grid = self.grid
        for axis in ("x", "y"):
            slot = grid.slot_ex if axis == "x" else grid.slot_ey
            hp2, hm2 = grid.hp[:, slot], grid.hm[:, slot]
            den = hp2 * hm2 * (hp2 + hm2)
            setattr(self, f"gp{axis}", hm2 * hm2 / den)
            setattr(self, f"gm{axis}", -hp2 * hp2 / den)
            setattr(self, f"g0{axis}", (hp2 - hm2) / (hp2 * hm2))
            setattr(self, f"ip{axis}", grid.nb_plus[:, slot])
            setattr(self, f"im{axis}", grid.nb_minus[:, slot])

        # upwind form: q = sum_k c_k m_k^2 over the lattice slots of A's
        # dominant split (ex and ey with c = 1 for the power norm); rows of
        # up_idx / up_inv_h are the plus arms of those slots, then the minus
        # arms
        if isinstance(ham, PowerNorm):
            weights, self.h_coef = np.array([1.0, 1.0, 0.0, 0.0]), hb
        else:
            weights, self.h_coef = _lattice_split(ham.A.a, "anisotropy matrix"), 1.0
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
        if self.lindeg_w is not None:
            return np.einsum("ij,ij->i", self.lindeg_w, d2[:, self.lin_slots])
        dop = d2[:, self.op_cols]
        out = 0.0
        if np.any(self.wmin != 0.0):
            out = self.wmin * dop.min(axis=1)
        if np.any(self.wmax != 0.0):
            out = out + self.wmax * dop.max(axis=1)
        return out if isinstance(out, np.ndarray) else np.zeros(self.n)

    def gradient(self, v_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u0 = v_ext[: self.n]
        gx = self.gpx * v_ext[self.ipx] + self.gmx * v_ext[self.imx] + self.g0x * u0
        gy = self.gpy * v_ext[self.ipy] + self.gmy * v_ext[self.imy] + self.g0y * u0
        return gx, gy

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
            return self.h_coef * q ** (self.ham.p / 2.0)
        gx, gy = self.gradient(v_ext)
        if isinstance(self.ham, PowerNorm):
            norm = np.minimum(np.hypot(gx, gy), self.g_cap)
            return self.ham.b * norm**self.ham.p
        a = self.ham.A.a
        q = a[0, 0] * gx * gx + 2.0 * a[0, 1] * gx * gy + a[1, 1] * gy * gy
        n2 = gx * gx + gy * gy
        with np.errstate(invalid="ignore", divide="ignore"):
            shrink = np.where(n2 > self.g_cap**2, self.g_cap**2 / n2, 1.0)
        return np.maximum(q * shrink, 0.0) ** (self.ham.p / 2.0)

    def hamiltonian_slopes(self, v_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact derivative of the capped H_h with respect to (gx, gy).

        PowerNorm is constant where |g| >= g_cap, so its slope vanishes
        there.  AnisotropicPower is rescaled onto the cap circle instead,
        which leaves a tangential slope unless A is a multiple of I.
        """
        gx, gy = self.gradient(v_ext)
        p = self.ham.p
        n2 = gx * gx + gy * gy
        if isinstance(self.ham, PowerNorm):
            live = (n2 > 0.0) & (np.hypot(gx, gy) < self.g_cap)
            coef = np.zeros(self.n)
            coef[live] = self.ham.b * p * n2[live] ** (p / 2.0 - 1.0)
            return coef * gx, coef * gy
        a = self.ham.A.a
        ax = a[0, 0] * gx + a[0, 1] * gy
        ay = a[0, 1] * gx + a[1, 1] * gy
        q = gx * ax + gy * ay
        capped = n2 > self.g_cap**2
        shrink = np.ones(self.n)
        tilt = np.zeros(self.n)
        shrink[capped] = self.g_cap**2 / n2[capped]
        tilt[capped] = q[capped] / n2[capped]
        qs = q * shrink
        live = qs > 0.0
        coef = np.zeros(self.n)
        coef[live] = p * qs[live] ** (p / 2.0 - 1.0) * shrink[live]
        return coef * (ax - tilt * gx), coef * (ay - tilt * gy)

    def residual(self, v_ext: np.ndarray, upwind: bool = False) -> np.ndarray:
        """F_h + H_h - f with the centered or the upwind first-order term."""
        f_h = self.operator_values(self.second_differences(v_ext))
        return f_h + self.hamiltonian_values(v_ext, upwind) - self.fvals

    def jacobian(self, v_ext: np.ndarray, upwind: bool = False):
        """Sparse d(F_h + H_h)/du at ``v_ext`` under the active policy.

        Each node keeps only its active fan directions (the argmin for the
        ``wmin`` part, the argmax for the ``wmax`` part; the fixed weights
        for a linear diffusion), which makes this an element of the
        generalized derivative of the min/max scheme.  The upwind form adds
        one active arm per slot, the larger one-sided difference (none where
        m_k = 0 or q is capped).  Arms that end on the boundary slot carry no
        unknown and are dropped.
        """
        from scipy.sparse import csr_matrix

        n, d, rows = self.n, self.d, np.arange(self.n)
        if self.lindeg_w is not None:
            policy = list(zip(self.lin_slots, self.lindeg_w.T))
        else:
            dop = self.second_differences(v_ext)[:, self.op_cols]
            policy = []
            if np.any(self.wmin != 0.0):
                policy.append((self.op_cols[dop.argmin(axis=1)], self.wmin))
            if np.any(self.wmax != 0.0):
                policy.append((self.op_cols[dop.argmax(axis=1)], self.wmax))
        diag = np.zeros(n)
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for k, w in policy:
            cp, cm = self.cc_t[k, rows], self.cc_t[k + d, rows]
            cols += [self.idx_t[k, rows], self.idx_t[k + d, rows]]
            vals += [w * cp, w * cm]
            diag -= w * self.c0[rows, k]
        if self.ham and upwind:
            m, minus = self.upwind_differences(v_ext)
            q = self.up_c @ (m * m)
            live = (q > 0.0) & (q < self.g_cap**2)
            coef = np.zeros(n)
            p = self.ham.p
            coef[live] = self.h_coef * p * q[live] ** (p / 2.0 - 1.0)
            plus_idx, minus_idx = np.split(self.up_idx, 2)
            plus_inv, minus_inv = np.split(self.up_inv_h, 2)
            # dH/dm_k times dm_k/du_arm = 1 / h_arm; dm_k/du_0 = -1 / h_arm
            slope = coef * self.up_c[:, None] * m * np.where(minus, minus_inv, plus_inv)
            cols += list(np.where(minus, minus_idx, plus_idx))
            vals += list(slope)
            diag -= slope.sum(axis=0)
        elif self.ham:
            sx, sy = self.hamiltonian_slopes(v_ext)
            cols += [self.ipx, self.imx, self.ipy, self.imy]
            vals += [sx * self.gpx, sx * self.gmx, sy * self.gpy, sy * self.gmy]
            diag += sx * self.g0x + sy * self.g0y
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
    """F_h at one node: eigenvalue scans over the direction fan, or the
    weighted trace stencil for linear diffusions."""
    grid = u.grid
    i = _resolve_node(grid, node)
    x = grid.nodes_xy[i]
    d2 = np.array(
        [discrete_second_difference(u, i, k) for k in range(len(grid.directions))]
    )
    dop = d2[grid.op_slots]
    if isinstance(spec, LambdaK):
        if spec.index == 1:
            return float(dop.min())
        if spec.index == 2:
            return float(dop.max())
        raise UnsupportedDiscretizationError(
            "only the extreme eigenvalues are discretized in 2D"
        )
    if isinstance(spec, MinMax):
        return float(dop.min() + dop.max())
    if isinstance(spec, WeightedEigenvalues):
        if len(spec.alphas) != 2:
            raise UnsupportedDiscretizationError(
                "eigenvalue weights must be two-dimensional here"
            )
        return float(spec.alphas[0] * dop.min() + spec.alphas[1] * dop.max())
    if isinstance(spec, CoefficientLambdaN):
        return float(spec.a(x)) * float(dop.max())
    if isinstance(spec, LinearDegenerate):
        s = np.asarray(spec.sigma(x), dtype=float)
        w = _lattice_split(s.T @ s, "diffusion matrix")
        return float(sum(w * d2[_split_slots(grid)]))
    raise UnsupportedDiscretizationError(
        f"operator {type(spec).__name__} has no monotone stencil here"
    )


def _check_envelope(problem: GridProblem, scheme: _Scheme):
    ham = problem.hamiltonian
    if ham is None or scheme.ham is None:
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
    if init == "zeros":
        return np.zeros(grid.n_nodes)
    barrier = build_supersolution(problem.domain, problem.params, scheme.m_eff)
    return np.asarray(evaluate_barrier(barrier, grid.nodes_xy), dtype=float)


def _newton(
    scheme: _Scheme,
    v_ext: np.ndarray,
    stop: float,
    budget: int,
    history: list[float],
    upwind: bool,
) -> tuple[np.ndarray, float, int]:
    """Up to ``budget`` semismooth Newton (policy-iteration) steps on one
    form of the scheme.

    Returns the iterate with the smallest residual seen, the start included,
    that residual, and the number of steps taken.  ``history`` gets the
    start residual and the residual after each step.  Reaching ``stop`` ends
    the stage; so does a non-finite residual, which the caller reports.
    """
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    n = scheme.n
    resid = scheme.residual(v_ext, upwind)
    rmax = float(np.max(np.abs(resid)))
    history.append(rmax)
    best, best_r = v_ext, rmax
    steps = 0
    while steps < budget and rmax > stop and math.isfinite(rmax):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MatrixRankWarning)
            du = spsolve(scheme.jacobian(v_ext, upwind).tocsc(), -resid)
        steps += 1
        v_ext = np.append(v_ext[:n] + du, 0.0)
        with np.errstate(all="ignore"):
            resid = scheme.residual(v_ext, upwind)
        rmax = float(np.max(np.abs(resid)))
        history.append(rmax)
        if rmax < best_r:
            best, best_r = v_ext, rmax
    return best, best_r, steps


def _jacobi(
    scheme: _Scheme,
    v_ext: np.ndarray,
    stop: float,
    tau: float,
    max_iter: int,
    history: list[float],
) -> tuple[np.ndarray, float, int]:
    """Scalar-step Jacobi ``u <- u + tau * (F_h[u] + H_h[u] - f)`` on the
    centered form until ``stop`` or ``max_iter`` sweeps; ``history`` gets
    about 256 residuals spread over the cap, and the last one."""
    stride = max(1, max_iter // 256)
    iterations = 0
    while True:
        resid = scheme.residual(v_ext)
        rmax = float(np.max(np.abs(resid)))
        if not math.isfinite(rmax) or rmax <= stop or iterations >= max_iter:
            history.append(rmax)
            return v_ext, rmax, iterations
        if iterations % stride == 0:
            history.append(rmax)
        v_ext[: scheme.n] += tau * resid
        iterations += 1


def solve(
    problem: GridProblem,
    grid: Grid2D,
    controls: SolveControls | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Solve to the discrete solution; stop when the residual max-norm falls
    below tol*(1 + sup|f|).

    With no explicit tau the solve takes semismooth Newton (policy
    iteration) steps in two stages, each capped at ``_NEWTON_STEPS``.  The
    first works on the upwind form of the first-order term; that form is
    degenerate elliptic, and Newton reaches its solution from the initial
    iterate.  The second (the polish) works on the centered form, from the
    best upwind iterate.  The result solves the centered scheme; the upwind
    stage picks which centered solution that is and starts Newton close
    enough to it.  Passing ``tau`` selects the literal scalar-step Jacobi
    iteration on the centered form instead.
    ``iterations`` counts the Newton steps of both stages, or the Jacobi
    sweeps, and ``max_iter`` caps it.  ``tau`` reports the explicit step, or
    without one the largest stable scalar step 0.95 / D_max.  An unmet stop
    raises ``NumericError`` with the iterations, the residual and the
    residual history (the start residual of each stage or run, then one per
    Newton step, or about 256 spread over the Jacobi sweeps).
    """
    controls = controls or SolveControls()
    scheme = _Scheme(problem, grid)
    _check_envelope(problem, scheme)

    tau_bound = 1.0 / scheme.d_max
    if controls.tau is None:
        tau = _TAU_SAFETY * tau_bound
    elif controls.tau > tau_bound * (1.0 + 1e-12):
        raise ConfigError(
            f"tau = {controls.tau:g} violates the stability bound"
            f" {tau_bound:g}"
        )
    else:
        tau = controls.tau
    k_factor = grid.h**2 * scheme.d_max / (4.0 * problem.params.beta)

    stop = controls.tol * (1.0 + scheme.f_sup)
    n = grid.n_nodes
    v_ext = np.zeros(n + 1)
    v_ext[:n] = _initial_values(problem, grid, scheme, controls.init)

    start = time.perf_counter()
    history: list[float] = []
    if controls.tau is None:
        budget = min(_NEWTON_STEPS, controls.max_iter)
        v_ext, rmax, iterations = _newton(scheme, v_ext, stop, budget, history, True)
        if math.isfinite(history[-1]):
            budget = min(_NEWTON_STEPS, controls.max_iter - iterations)
            v_ext, rmax, polish = _newton(scheme, v_ext, stop, budget, history, False)
            iterations += polish
    else:
        v_ext, rmax, iterations = _jacobi(
            scheme, v_ext, stop, tau, controls.max_iter, history
        )
    if not math.isfinite(history[-1]):
        raise NumericError(
            "iteration blew up (non-finite residual)",
            diagnostics={"iterations": iterations},
        )
    if rmax > stop:
        raise NumericError(
            f"no convergence within {iterations} iterations"
            f" (residual {rmax:.3e}, target {stop:.3e})",
            diagnostics={
                "iterations": iterations,
                "residual": rmax,
                "residual_history": history,
            },
        )
    wall = time.perf_counter() - start

    result = GridFunction(grid=grid, values=v_ext[:n])
    report = SolveReport(
        iterations=iterations,
        update_norm=tau * rmax,
        residual_norm=rmax,
        tau=tau,
        wall_time=wall,
        tau_bound=tau_bound,
        k_factor=k_factor,
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
    """Apply ``steps`` damped Jacobi updates to raw node values."""
    scheme = _Scheme(problem, grid)
    n = grid.n_nodes
    v_ext = np.zeros(n + 1)
    v_ext[:n] = np.asarray(values, dtype=float)
    for _ in range(steps):
        v_ext[:n] += tau * scheme.residual(v_ext)
    return v_ext[:n].copy()


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
        f"tau: {report.tau:.17g}",
        f"tau_bound: {report.tau_bound:.17g}",
        f"k_factor: {report.k_factor:.17g}",
        f"update_norm: {report.update_norm:.17g}",
        f"residual_norm: {report.residual_norm:.17g}",
        f"stop_residual: {report.stop_residual:.17g}",
        f"init: {report.init}",
        f"wall_time_s: {report.wall_time:.3f}",
    ]
    return "\n".join(lines) + "\n"
