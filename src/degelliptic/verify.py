"""Independent cross-checks of everything checkable.

Four layers: pointwise residuals of radial candidates against the catalog
operators, the two perturbation certificates (convex combination with a
strict supersolution; scaling of a sublinear solution), existence-threshold
probes, and grid refinement studies against radial oracles.

Radial candidates are evaluated through the Hessian eigenvalue pair
{u''(r), u'(r)/r with multiplicity N-1}, so a candidate only has to expose
first and second radial derivatives.  Tabulated profiles get them exactly
at arbitrary radii: the root is recomputed there (u' = -s) and u'' comes
from the implicit derivative of the profile equation on the root curve,
which keeps certificate margins at rounding level.  Closed forms carry
analytic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, DomainViolationError, NoRootError
from .grid import GridProblem, SolveControls, build_grid, solve
from .model import (
    CoefficientLambdaN,
    HamiltonianSpec,
    OperatorSpec,
    Params,
    PowerNorm,
    ScalarField,
    SymMatrix,
    evaluate_hamiltonian,
    evaluate_operator,
)
from .radial import (
    ENDPOINT_RTOL,
    ExplicitSublinearForm,
    ProfileBranch,
    RadialProfile,
    _exact_u,
    critical_s1,
    first_zero,
    phi,
    rbar,
    second_zero,
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


# ---------------------------------------------------------------------------
# radial candidates


@dataclass(frozen=True)
class ClosedFormRadial:
    """Analytic radial candidate: value and derivatives as callables."""

    u: Callable
    du: Callable
    ddu: Callable
    R: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ConfigError("ball radius must be positive and finite")


RadialCandidate = Union[RadialProfile, ExplicitSublinearForm, ClosedFormRadial]


def _candidate_radius(candidate: RadialCandidate) -> float:
    return float(candidate.R)


def _candidate_value(candidate: RadialCandidate, r: np.ndarray) -> np.ndarray:
    if isinstance(candidate, RadialProfile):
        return np.asarray(candidate.interpolate_u(r), dtype=float)
    if isinstance(candidate, ExplicitSublinearForm):
        return np.asarray(candidate.value(r), dtype=float)
    return np.asarray(candidate.u(r), dtype=float)


def _candidate_derivatives(candidate: RadialCandidate, r: np.ndarray):
    """(u', u'') at the sample radii.

    Profiles are re-rooted at the requested radii (no interpolation), then
    differentiated implicitly on the root curve phi(r, s(r)) = 0:
        s' = phi_r / (-phi_s) = (beta s / r^2) / (beta/r - p b s^(p-1)),
    which is exact up to the root accuracy wherever phi_s != 0.
    """
    if isinstance(candidate, RadialProfile):
        p = candidate.params
        second = candidate.branch is ProfileBranch.SECOND_ZERO_SUPERLINEAR or (
            candidate.branch is ProfileBranch.ZERO_M and p.superlinear
        )
        s = (second_zero if second else first_zero)(r, p)
        s = np.atleast_1d(np.asarray(s, dtype=float))
        denom = p.beta / r - p.p * p.b * np.where(s > 0.0, s, 1.0) ** (p.p - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sprime = np.where(
                s > 0.0, (p.beta * s / r**2) / denom, p.M / p.beta
            )
        if not np.all(np.isfinite(sprime)):
            raise DomainViolationError(
                "sample radius sits at the threshold endpoint where the"
                " profile derivative is unbounded"
            )
        return -s, -sprime
    return (
        np.asarray(candidate.du(r), dtype=float),
        np.asarray(candidate.ddu(r), dtype=float),
    )


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
        if not 2 <= self.N <= 8:
            raise ConfigError(f"dimension {self.N} outside [2, 8]")
        if self.hamiltonian_sign not in (1.0, -1.0):
            raise ConfigError("hamiltonian_sign must be +1 or -1")
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ConfigError("ball radius must be positive and finite")


def _forcing_values(f, r: np.ndarray) -> np.ndarray:
    if isinstance(f, (int, float)):
        return np.full(r.shape, float(f))
    try:
        vals = np.asarray(f(r), dtype=float)
        if vals.shape != r.shape:
            raise TypeError
    except Exception:
        vals = np.array([float(f(ri)) for ri in r])
    if not np.all(np.isfinite(vals)):
        raise ConfigError("forcing returned non-finite values")
    return vals


def _radial_residuals(
    problem: VerifyProblem, r: np.ndarray, du: np.ndarray, ddu: np.ndarray
) -> np.ndarray:
    n = problem.N
    fvals = _forcing_values(problem.f, r)
    out = np.empty(r.shape)
    x = np.zeros(n)
    xi = np.zeros(n)
    for i, ri in enumerate(r):
        x[0] = ri
        eigs = [float(ddu[i])] + [float(du[i] / ri)] * (n - 1)
        value = evaluate_operator(problem.operator, x, SymMatrix.diag(eigs))
        if problem.hamiltonian is not None:
            xi[0] = du[i]
            value += problem.hamiltonian_sign * evaluate_hamiltonian(
                problem.hamiltonian, xi
            )
        out[i] = value - fvals[i]
    return out


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
    if r.size == 0:
        raise ConfigError("need at least one sample radius")
    radius = _candidate_radius(candidate)
    if np.any(r < ENDPOINT_MARGIN) or np.any(r > radius - ENDPOINT_MARGIN):
        raise DomainViolationError(
            f"sample radii must lie in [{ENDPOINT_MARGIN},"
            f" {radius - ENDPOINT_MARGIN}] (margin from singular endpoints)"
        )
    if not (tolerance > 0.0):
        raise ConfigError("tolerance must be positive")
    du, ddu = _candidate_derivatives(candidate, r)
    res = _radial_residuals(problem, r, du, ddu)
    max_abs = float(np.max(np.abs(res)))
    return ResidualReport(
        radii=r.copy(),
        residuals=res,
        max_abs=max_abs,
        tolerance=tolerance,
        passed=max_abs <= tolerance,
    )


def residual_report_to_csv(report: ResidualReport, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(
            f"# max_abs={report.max_abs:.17g}"
            f" tolerance={report.tolerance:.17g} passed={report.passed}\n"
        )
        out.write("r,residual\n")
        for r, v in zip(report.radii, report.residuals):
            out.write(f"{r:.17g},{v:.17g}\n")


# ---------------------------------------------------------------------------
# perturbation certificates


def _sample_radii(v: RadialCandidate, count: int) -> np.ndarray:
    radius = _candidate_radius(v)
    return np.linspace(ENDPOINT_MARGIN, radius - ENDPOINT_MARGIN, count)


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
    if not 0.0 < sigma < 1.0:
        raise ConfigError(f"sigma must lie in (0, 1), got {sigma}")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ConfigError("epsilon must be a positive slack")
    if sample_count < 1:
        raise ConfigError("need at least one sample point")

    r = _sample_radii(v, sample_count)
    du_v, ddu_v = _candidate_derivatives(v, r)
    du_p, ddu_p = _candidate_derivatives(varphi, r)
    du = sigma * du_v + (1.0 - sigma) * du_p
    ddu = sigma * ddu_v + (1.0 - sigma) * ddu_p
    margins = -_radial_residuals(problem, r, du, ddu)
    slack = (1.0 - sigma) * epsilon
    min_margin = float(np.min(margins))

    def combined(rr):
        rr = np.asarray(rr, dtype=float)
        out = sigma * _candidate_value(v, rr) + (1.0 - sigma) * _candidate_value(
            varphi, rr
        )
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


def _h2_scaling_margin(ham: HamiltonianSpec) -> float:
    """min over sampled (eps, xi) of H(eps*xi) - eps*H(xi)."""
    eps_grid = np.linspace(0.05, 1.0, 20)
    scales = np.logspace(-3.0, 3.0, 13)
    angles = np.linspace(0.0, math.pi, 7)
    worst = math.inf
    for eps in eps_grid:
        for s in scales:
            for a in angles:
                xi = np.array([s * math.cos(a), s * math.sin(a)])
                worst = min(
                    worst,
                    evaluate_hamiltonian(ham, eps * xi)
                    - eps * evaluate_hamiltonian(ham, xi),
                )
    return float(worst)


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
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ConfigError("epsilon must be positive")
    if not sup_f < 0.0:
        raise ConfigError(
            f"scaling certificate needs sup f < 0, got sup_f = {sup_f}"
        )
    ham = problem.hamiltonian
    if ham is None or not isinstance(ham, PowerNorm) or ham.p >= 1.0:
        raise ConfigError(
            "scaling certificate applies to sublinear power gradient terms"
        )
    if sample_count < 1:
        raise ConfigError("need at least one sample point")

    r = _sample_radii(v, sample_count)
    du_v, ddu_v = _candidate_derivatives(v, r)
    scale = 1.0 + epsilon
    margins = -_radial_residuals(problem, r, scale * du_v, scale * ddu_v)
    slack = -epsilon * sup_f
    min_margin = float(np.min(margins))
    h2 = _h2_scaling_margin(ham)

    def scaled(rr):
        rr = np.asarray(rr, dtype=float)
        out = scale * _candidate_value(v, rr)
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


def threshold_probe(
    params: Params, R_values, probe_count: int = 64
) -> tuple[ThresholdVerdict, ...]:
    """Existence verdict per radius for the superlinear bounded branch."""
    if not params.superlinear:
        raise ConfigError("threshold probes require a superlinear exponent")
    if probe_count < 2:
        raise ConfigError("probe grid needs at least two radii")
    radii = np.atleast_1d(np.asarray(R_values, dtype=float))
    if radii.size == 0 or np.any(~np.isfinite(radii)) or np.any(radii <= 0.0):
        raise ConfigError("radii must be positive and finite")

    threshold = rbar(params)
    tol = ENDPOINT_RTOL * (1.0 + params.M)
    verdicts = []
    for R in radii:
        endpoint = math.isfinite(threshold) and abs(R - threshold) <= tol * threshold
        if R <= threshold * (1.0 + tol):
            probe = np.linspace(R / probe_count, R, probe_count)
            try:
                first_zero(probe, params)
                verdicts.append(
                    ThresholdVerdict(R=float(R), exists=True, endpoint=endpoint)
                )
                continue
            except NoRootError as err:
                verdicts.append(
                    ThresholdVerdict(
                        R=float(R),
                        exists=False,
                        endpoint=endpoint,
                        fails_at=err.radius,
                        gap=err.gap,
                    )
                )
                continue
        gap = float(phi(R, critical_s1(R, params), params))
        verdicts.append(
            ThresholdVerdict(
                R=float(R),
                exists=False,
                endpoint=False,
                fails_at=float(R),
                gap=gap,
            )
        )
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
        with open(path, "w", encoding="utf-8") as out:
            out.write("h,error,order\n")
            for row in self.rows:
                order = "" if math.isnan(row.order) else f"{row.order:.17g}"
                out.write(f"{row.h:.17g},{row.error:.17g},{order}\n")


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
    if not isinstance(problem.f, (int, float)):
        raise ConfigError("no built-in oracle for non-constant forcing")
    fval = float(problem.f)
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

    oracle(R)  # a radius past the threshold raises here, before any solve
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
    the constant-forcing benchmark family.  Solver non-convergence
    propagates.
    """
    hs = [float(h) for h in h_list]
    if not hs or any(not (h > 0.0 and math.isfinite(h)) for h in hs):
        raise ConfigError("need positive finite spacings")
    fn = oracle if oracle is not None else _auto_oracle(problem)

    rows = []
    prev = None
    for h in hs:
        grid = build_grid(problem.domain, h, K)
        u, _ = solve(problem, grid, SolveControls(tol=tol))
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
            order = math.log2(prev[1] / err) / math.log2(prev[0] / h)
        rows.append(ConvergenceRow(h=h, error=err, order=order))
        prev = (h, err)
    return ConvergenceTable(rows=tuple(rows))
