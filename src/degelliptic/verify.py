"""Independent cross-checks of everything checkable.

Four layers: pointwise residuals of radial candidates against the catalog
operators, the two perturbation certificates (convex combination with a
strict supersolution; scaling of a sublinear solution), existence-threshold
probes, and grid refinement studies against radial oracles.

Radial candidates are evaluated through the Hessian eigenvalue pair
{u''(r), u'(r)/r with multiplicity N-1}.  Every candidate (a
``RadialProfile``, an ``ExplicitSublinearForm`` or a ``ClosedFormRadial``)
is read through one interface: its ball radius ``R`` and ``value``, ``du``
and ``ddu`` at arbitrary radii.  Profiles differentiate themselves exactly
(see ``RadialProfile``), so certificate margins stay at rounding level and
nothing here re-roots the profile function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._args import integer, real
from ._table import write_csv
from .errors import ConfigError, DomainViolationError, ThresholdError
from .grid import GridProblem, SolveControls, build_grid, solve
from .model import (
    CoefficientLambdaN,
    HamiltonianSpec,
    OperatorSpec,
    Params,
    PowerNorm,
    ScalarField,
    _field_values,
    _hamiltonian_values,
    _operator_values,
)
from .radial import (
    ExplicitSublinearForm,
    RadialProfile,
    _exact_u,
    check_threshold,
    first_zero,
)

__all__ = [
    "ClosedFormRadial",
    "ConvergenceRow",
    "ConvergenceTable",
    "EpsilonCertificate",
    "ResidualReport",
    "SigmaCertificate",
    "ThresholdVerdict",
    "VerifyProblem",
    "convergence_study",
    "epsilon_scaling",
    "residual_check_radial",
    "residual_report_to_csv",
    "sigma_perturbation",
    "threshold_probe",
]

ENDPOINT_MARGIN = 1e-3  # sample radii must stay this far from 0 and R
SLACK_TOL = 1e-10  # recomputed margins may undershoot a slack by this much
_PROBE_COUNT = 64  # radii per threshold probe grid (0, R]


# ---------------------------------------------------------------------------
# radial candidates


@dataclass(frozen=True)
class ClosedFormRadial:
    """Analytic radial candidate: value and derivatives as callables."""

    value: Callable
    du: Callable
    ddu: Callable
    R: float

    def __post_init__(self):
        object.__setattr__(self, "R", real(self.R, "ball radius R", gt=0))


RadialCandidate = Union[RadialProfile, ExplicitSublinearForm, ClosedFormRadial]


# ---------------------------------------------------------------------------
# problems and residuals


@dataclass(frozen=True)
class VerifyProblem:
    """F(x, D^2 u) + sign * H(Du) = f on the ball of radius R in R^N.

    ``hamiltonian_sign`` = -1 places the gradient term on the right-hand
    side, as in the determinant-form identity (det D^2 u)^(1/N) = |Du|^p.
    ``f`` is a constant or a function of the radius.
    """

    operator: OperatorSpec
    hamiltonian: HamiltonianSpec | None
    f: Union[float, Callable]
    N: int = 2
    R: float = 1.0
    hamiltonian_sign: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "N", integer(self.N, "dimension N", ge=2, le=8))
        sign = real(self.hamiltonian_sign, "hamiltonian_sign")
        if sign not in (1.0, -1.0):
            raise ConfigError(f"hamiltonian_sign must be +1 or -1, got {sign!r}")
        object.__setattr__(self, "hamiltonian_sign", sign)
        object.__setattr__(self, "R", real(self.R, "ball radius R", gt=0))


def _radial_residuals(
    problem: VerifyProblem, r: np.ndarray, du: np.ndarray, ddu: np.ndarray
) -> np.ndarray:
    """F + sign * H - f at each radius, in one kernel call per term: the
    Hessian is diag(u'', u'/r, ..., u'/r) at x = (r, 0, ..., 0), and the
    gradient is (u', 0, ..., 0)."""
    n = problem.N
    fvals = _field_values(problem.f, r, what="forcing")
    if not np.all(np.isfinite(fvals)):
        raise ConfigError("forcing returned non-finite values")
    hess = np.zeros((r.size, n, n))
    hess[:, 0, 0] = ddu
    hess[:, range(1, n), range(1, n)] = (du / r)[:, None]
    x = np.zeros((r.size, n))
    x[:, 0] = r
    # + 0.0 turns -0.0 into +0.0, as SymMatrix does
    value = _operator_values(problem.operator, x, hess + 0.0)
    if problem.hamiltonian is not None:
        xi = np.zeros((r.size, n))
        xi[:, 0] = du
        value = value + problem.hamiltonian_sign * _hamiltonian_values(
            problem.hamiltonian, xi
        )
    return value - fvals


@dataclass(frozen=True)
class ResidualReport:
    radii: np.ndarray
    residuals: np.ndarray
    max_abs: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        for arr in (self.radii, self.residuals):
            arr.flags.writeable = False

    def to_text(self) -> str:
        lines = [
            f"samples: {self.radii.size}",
            f"max_abs_residual: {self.max_abs:.17g}",
            f"tolerance: {self.tolerance:.17g}",
            f"passed: {self.passed}",
        ]
        return "\n".join(lines) + "\n"


def residual_check_radial(
    candidate: RadialCandidate,
    problem: VerifyProblem,
    radii,
    tolerance: float = 1e-6,
) -> ResidualReport:
    """Pointwise residual of F + sign*H - f for a radial candidate.

    Radii must keep an absolute margin of 1e-3 from both the center and the
    ball radius (the singular endpoints of the tabulated branches).
    """
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    if r.size == 0 or not np.all(np.isfinite(r)):
        raise ConfigError("need at least one sample radius, each finite")
    radius = candidate.R
    if np.any(r < ENDPOINT_MARGIN) or np.any(r > radius - ENDPOINT_MARGIN):
        raise DomainViolationError(
            f"sample radii must lie in [{ENDPOINT_MARGIN},"
            f" {radius - ENDPOINT_MARGIN}] (margin from singular endpoints)"
        )
    tolerance = real(tolerance, "tolerance", gt=0)
    res = _radial_residuals(problem, r, candidate.du(r), candidate.ddu(r))
    max_abs = float(np.max(np.abs(res)))
    return ResidualReport(
        radii=r.copy(),
        residuals=res,
        max_abs=max_abs,
        tolerance=tolerance,
        passed=max_abs <= tolerance,
    )


def residual_report_to_csv(report: ResidualReport, path) -> None:
    comment = (
        f"max_abs={report.max_abs:.17g}"
        f" tolerance={report.tolerance:.17g} passed={report.passed}"
    )
    write_csv(path, "r,residual", zip(report.radii, report.residuals), comment)


# ---------------------------------------------------------------------------
# perturbation certificates


def _sample_radii(v: RadialCandidate, count: int) -> np.ndarray:
    count = integer(count, "sample count", ge=1)
    return np.linspace(ENDPOINT_MARGIN, v.R - ENDPOINT_MARGIN, count)


@dataclass(frozen=True)
class SigmaCertificate:
    """Convex combination sigma*v + (1-sigma)*varphi with certified slack.

    ``slack`` = (1-sigma)*epsilon, where epsilon is the strict slack of
    varphi; ``margins`` are the recomputed values f - (F+H)[combination] at
    the sample radii and must not undershoot the slack by more than 1e-10.
    """

    sigma: float
    epsilon: float
    slack: float
    u: Callable
    radii: np.ndarray
    margins: np.ndarray
    min_margin: float
    passed: bool

    def __post_init__(self):
        for arr in (self.radii, self.margins):
            arr.flags.writeable = False

    def to_text(self) -> str:
        lines = [
            f"sigma: {self.sigma:.17g}",
            f"epsilon: {self.epsilon:.17g}",
            f"certified_slack: {self.slack:.17g}",
            f"min_margin: {self.min_margin:.17g}",
            f"samples: {self.radii.size}",
            f"passed: {self.passed}",
        ]
        return "\n".join(lines) + "\n"


def sigma_perturbation(
    v: RadialCandidate,
    varphi: RadialCandidate,
    sigma: float,
    *,
    epsilon: float,
    problem: VerifyProblem,
    sample_count: int = 200,
) -> SigmaCertificate:
    """Certify sigma*v + (1-sigma)*varphi as a strict supersolution.

    ``varphi`` must satisfy F + H <= f - epsilon (e.g. a profile built at
    forcing magnitude M + epsilon); for operators and gradient terms convex
    in their arguments the combination then has slack (1-sigma)*epsilon.
    """
    sigma = real(sigma, "sigma", gt=0, lt=1)
    epsilon = real(epsilon, "slack epsilon", gt=0)

    r = _sample_radii(v, sample_count)
    du = sigma * v.du(r) + (1.0 - sigma) * varphi.du(r)
    ddu = sigma * v.ddu(r) + (1.0 - sigma) * varphi.ddu(r)
    margins = -_radial_residuals(problem, r, du, ddu)
    slack = (1.0 - sigma) * epsilon
    min_margin = float(np.min(margins))

    def combined(rr):
        rr = np.asarray(rr, dtype=float)
        out = np.asarray(sigma * v.value(rr) + (1.0 - sigma) * varphi.value(rr))
        return float(out) if out.ndim == 0 else out

    return SigmaCertificate(
        sigma=sigma,
        epsilon=epsilon,
        slack=slack,
        u=combined,
        radii=r,
        margins=margins,
        min_margin=min_margin,
        passed=min_margin >= slack - SLACK_TOL,
    )


@dataclass(frozen=True)
class EpsilonCertificate:
    """Scaled field (1+epsilon)*v with certified slack -epsilon*sup_f.

    Valid on the sublinear branch, where positive scaling only weakens the
    gradient term (epsilon*H(xi) <= H(epsilon*xi) for the power terms with
    exponent < 1); ``h2_min_margin`` records the sampled validation of that
    scaling inequality.
    """

    epsilon: float
    sup_f: float
    slack: float
    u: Callable
    radii: np.ndarray
    margins: np.ndarray
    min_margin: float
    h2_min_margin: float
    passed: bool

    def __post_init__(self):
        for arr in (self.radii, self.margins):
            arr.flags.writeable = False

    def to_text(self) -> str:
        lines = [
            f"epsilon: {self.epsilon:.17g}",
            f"sup_f: {self.sup_f:.17g}",
            f"certified_slack: {self.slack:.17g}",
            f"min_margin: {self.min_margin:.17g}",
            f"h2_min_margin: {self.h2_min_margin:.17g}",
            f"samples: {self.radii.size}",
            f"passed: {self.passed}",
        ]
        return "\n".join(lines) + "\n"


def _h2_scaling_margin(ham: PowerNorm) -> float:
    """min over sampled (eps, xi) of H(eps*xi) - eps*H(xi), with
    H(xi) = b |xi|^p evaluated on the whole sample array at once."""
    eps = np.linspace(0.05, 1.0, 20)[:, None, None]
    scales = np.logspace(-3.0, 3.0, 13)[:, None]
    angles = np.linspace(0.0, math.pi, 7)
    xi = scales[..., None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)

    def h(x):
        return ham.b * np.linalg.norm(x, axis=-1) ** ham.p

    return float(np.min(h(eps[..., None] * xi) - eps * h(xi)))


def epsilon_scaling(
    v: RadialCandidate,
    epsilon: float,
    sup_f: float,
    *,
    problem: VerifyProblem,
    sample_count: int = 200,
) -> EpsilonCertificate:
    """Certify (1+epsilon)*v as a strict supersolution of the sublinear
    problem, with slack -epsilon*sup_f > 0.  Requires sup_f < 0."""
    epsilon = real(epsilon, "epsilon", gt=0)
    sup_f = real(sup_f, "sup f", lt=0)
    ham = problem.hamiltonian
    if ham is None or not isinstance(ham, PowerNorm) or ham.p >= 1.0:
        raise ConfigError(
            "scaling certificate applies to sublinear power gradient terms"
        )

    r = _sample_radii(v, sample_count)
    scale = 1.0 + epsilon
    margins = -_radial_residuals(problem, r, scale * v.du(r), scale * v.ddu(r))
    slack = -epsilon * sup_f
    min_margin = float(np.min(margins))
    h2 = _h2_scaling_margin(ham)

    def scaled(rr):
        rr = np.asarray(rr, dtype=float)
        out = np.asarray(scale * v.value(rr))
        return float(out) if out.ndim == 0 else out

    return EpsilonCertificate(
        epsilon=epsilon,
        sup_f=sup_f,
        slack=slack,
        u=scaled,
        radii=r,
        margins=margins,
        min_margin=min_margin,
        h2_min_margin=h2,
        passed=(min_margin >= slack - SLACK_TOL) and (h2 >= -1e-12),
    )


# ---------------------------------------------------------------------------
# threshold probes


@dataclass(frozen=True)
class ThresholdVerdict:
    """Existence verdict for one ball radius.

    ``exists`` mirrors whether the bounded root branch covers (0, R];
    ``endpoint`` flags R at the threshold radius itself (double root, root
    finding switches to the closed-form critical point).  When existence
    fails, ``fails_at``/``gap`` witness a radius where the profile stays
    strictly above zero.
    """

    R: float
    exists: bool
    endpoint: bool
    fails_at: float | None = None
    gap: float | None = None

    def to_text(self) -> str:
        if self.exists:
            tag = "Exists (endpoint)" if self.endpoint else "Exists"
            return f"R={self.R:.17g}: {tag}"
        return (
            f"R={self.R:.17g}: FailsAt(r*={self.fails_at:.17g},"
            f" gap={self.gap:.17g})"
        )


def threshold_probe(params: Params, R_values) -> tuple[ThresholdVerdict, ...]:
    """Existence verdict per radius for the superlinear bounded branch."""
    if not params.superlinear:
        raise ConfigError("threshold probes require a superlinear exponent")
    radii = np.atleast_1d(np.asarray(R_values, dtype=float))
    if radii.size == 0 or np.any(~np.isfinite(radii)) or np.any(radii <= 0.0):
        raise ConfigError("radii must be positive and finite")

    verdicts = []
    for R in radii:
        try:
            endpoint = check_threshold(params, R)
        except ThresholdError as err:
            verdicts.append(
                ThresholdVerdict(
                    R=float(R),
                    exists=False,
                    endpoint=False,
                    fails_at=err.radius,
                    gap=err.gap,
                )
            )
            continue
        verdicts.append(ThresholdVerdict(R=float(R), exists=True, endpoint=endpoint))
    admissible = np.array([v.R for v in verdicts if v.exists])
    if admissible.size:
        # the probe grids (0, R] of every admissible radius in one root call,
        # which raises NumericError where a root fails
        grids = np.linspace(
            admissible / _PROBE_COUNT, admissible, _PROBE_COUNT, axis=-1
        )
        first_zero(grids.ravel(), params)
    return tuple(verdicts)


# ---------------------------------------------------------------------------
# refinement studies


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    error: float
    order: float  # log2 ratio vs the previous row; nan on the first


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]

    def to_text(self) -> str:
        lines = [f"{'h':>12} {'Linf_error':>14} {'order':>7}"]
        for row in self.rows:
            order = "-" if math.isnan(row.order) else f"{row.order:7.3f}"
            lines.append(f"{row.h:12.6g} {row.error:14.6e} {order:>7}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        rows = [
            (row.h, row.error, None if math.isnan(row.order) else row.order)
            for row in self.rows
        ]
        write_csv(path, "h,error,order", rows)


def _auto_oracle(problem: GridProblem) -> Callable:
    """Radial oracle for the benchmark family, or the zero field.

    Covers constant forcing on a single ball: f == 0 gives the zero
    solution; f = -M with a constant-coefficient max-eigenvalue operator
    and a power gradient term matching the declared envelope gives the
    bounded radial branch.
    """
    params = problem.params
    if len(problem.domain.centers) != 1:
        raise ConfigError("no built-in oracle off the single-ball domain")
    if callable(problem.f):
        raise ConfigError("no built-in oracle for non-constant forcing")
    fval = real(problem.f, "constant forcing")
    if fval == 0.0:
        return lambda r: np.zeros_like(np.asarray(r, dtype=float))
    op = problem.operator
    ham = problem.hamiltonian
    if not (
        isinstance(op, CoefficientLambdaN)
        and isinstance(op.a, ScalarField)
        and op.a.lower == op.a.upper == params.beta
        and isinstance(ham, PowerNorm)
        and ham.b == params.b
        and ham.p == params.p
        and abs(-fval - params.M) <= 1e-12 * (1.0 + params.M)
    ):
        raise ConfigError(
            "no built-in radial oracle for this problem; pass oracle="
        )
    R = problem.domain.radius

    def oracle(r):
        return _exact_u(np.minimum(np.asarray(r, dtype=float), R), R, params)[1]

    check_threshold(params, R)  # refuse a radius past it before any solve
    return oracle


def convergence_study(
    problem: GridProblem,
    h_list,
    *,
    K: int = 8,
    tol: float = 1e-5,
    oracle: Callable | None = None,
) -> ConvergenceTable:
    """Solve per spacing and tabulate max-norm errors vs a radial oracle.

    ``oracle`` maps node radii to exact values; omitted, it is derived for
    the constant-forcing benchmark family.  Every grid is built, and so
    every spacing and K admitted, before the first solve.  Solver
    non-convergence propagates.
    """
    grids = [build_grid(problem.domain, h, K) for h in h_list]
    if not grids:
        raise ConfigError("need at least one grid spacing")
    controls = SolveControls(tol=tol)
    fn = oracle if oracle is not None else _auto_oracle(problem)

    rows = []
    prev = None
    for grid in grids:
        u, _ = solve(problem, grid, controls)
        centers = np.asarray(problem.domain.centers, dtype=float)
        if centers.shape[0] == 1:
            r = np.hypot(
                grid.nodes_xy[:, 0] - centers[0, 0],
                grid.nodes_xy[:, 1] - centers[0, 1],
            )
        else:
            r = np.hypot(grid.nodes_xy[:, 0], grid.nodes_xy[:, 1])
        err = float(np.max(np.abs(u.values - np.asarray(fn(r), dtype=float))))
        if prev is None or err == 0.0 or prev[1] == 0.0:
            order = math.nan
        else:
            order = math.log2(prev[1] / err) / math.log2(prev[0] / grid.h)
        rows.append(ConvergenceRow(h=grid.h, error=err, order=order))
        prev = (grid.h, err)
    return ConvergenceTable(rows=tuple(rows))
