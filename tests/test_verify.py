import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degelliptic.barriers import build_supersolution, evaluate_barrier
from degelliptic.errors import ConfigError, DomainViolationError, ThresholdError
from degelliptic.grid import GridProblem, build_grid, solve
from degelliptic.model import (
    AnisotropicPower,
    CoefficientLambdaN,
    ConvexDomain,
    LambdaK,
    LinearDegenerate,
    MatrixField,
    MinMax,
    MongeAmpere,
    Params,
    PowerNorm,
    ScalarField,
    SymMatrix,
    WeightedEigenvalues,
    evaluate_hamiltonian,
    evaluate_operator,
)
from degelliptic.radial import (
    _exact_u,
    c1_bound,
    check_threshold,
    explicit_sublinear_form,
    first_zero,
    radial_profile,
    rbar,
)
from degelliptic.verify import (
    ClosedFormRadial,
    ThresholdVerdict,
    VerifyProblem,
    _PROBE_COUNT,
    _h2_scaling_margin,
    _radial_residuals,
    convergence_study,
    epsilon_scaling,
    residual_check_radial,
    residual_report_to_csv,
    sigma_perturbation,
    threshold_probe,
)

MODEL = Params(beta=2.0, b=1.0, p=2.0, M=1.0)  # threshold radius exactly 1
SUB = Params(beta=1.0, b=1.0, p=0.5, M=1.0)
DISC = ConvexDomain(radius=1.0, centers=((0.0, 0.0),))

MODEL_PROBLEM = VerifyProblem(
    operator=CoefficientLambdaN(ScalarField.constant(2.0)),
    hamiltonian=PowerNorm(1.0, 2.0),
    f=-1.0,
    N=2,
)


def _w(r):
    return np.sqrt(1.0 - np.asarray(r, dtype=float) ** 2)


def model_closed_form() -> ClosedFormRadial:
    # u0(r) = w - log(1+w), w = sqrt(1-r^2); u0' = -(1-w)/r
    return ClosedFormRadial(
        value=lambda r: _w(r) - np.log1p(_w(r)),
        du=lambda r: -(1.0 - _w(r)) / np.asarray(r, dtype=float),
        ddu=lambda r: -(1.0 - _w(r)) / (np.asarray(r, dtype=float) ** 2 * _w(r)),
        R=1.0,
    )


@pytest.fixture(scope="module")
def model_form():
    return model_closed_form()


@pytest.fixture(scope="module")
def model_profile():
    return radial_profile("FirstZeroSuperlinear", 1.0, MODEL, node_count=512)


@pytest.fixture(scope="module")
def sigma_v():
    return radial_profile("FirstZeroSuperlinear", 0.9, MODEL, node_count=512)


@pytest.fixture(scope="module")
def sigma_varphi():
    bumped = Params(beta=2.0, b=1.0, p=2.0, M=1.1)
    return radial_profile("FirstZeroSuperlinear", 0.9, bumped, node_count=512)


@pytest.fixture(scope="module")
def sub_profile():
    return radial_profile("FirstZeroSublinear", 1.0, SUB, node_count=512)


class TestResidualModelCase:
    def test_closed_form_machine_level(self, model_form):
        report = residual_check_radial(
            model_form, MODEL_PROBLEM, (0.2, 0.5, 0.8), tolerance=1e-8
        )
        assert report.passed
        assert report.max_abs <= 1e-12
        assert report.max_abs == np.max(np.abs(report.residuals))

    def test_profile_rerooted_anywhere(self, model_profile):
        # off-node radii too: roots are recomputed, not interpolated
        radii = np.linspace(0.01, 0.97, 193)
        report = residual_check_radial(
            model_profile, MODEL_PROBLEM, radii, tolerance=1e-9
        )
        assert report.passed
        assert report.max_abs <= 1e-12

    def test_intermediate_eigenvalue_rows_match(self, model_form):
        # in N >= 3 the same radial field solves the lambda_i equation
        # for every i = 2..N: those eigenvalues all equal u'/r
        for n in (3, 5):
            for i in range(2, n + 1):
                weights = tuple(2.0 if k == i else 0.0 for k in range(1, n + 1))
                problem = VerifyProblem(
                    operator=WeightedEigenvalues(weights),
                    hamiltonian=PowerNorm(1.0, 2.0),
                    f=-1.0,
                    N=n,
                )
                report = residual_check_radial(model_form, problem, (0.2, 0.5, 0.8))
                assert report.max_abs <= 1e-12

    def test_lambda_1_row_fails(self, model_form):
        # the bottom eigenvalue is u'', not u'/r; the identity breaks
        problem = VerifyProblem(
            operator=WeightedEigenvalues((2.0, 0.0)),
            hamiltonian=PowerNorm(1.0, 2.0),
            f=-1.0,
            N=2,
        )
        report = residual_check_radial(model_form, problem, (0.5,))
        assert not report.passed
        assert report.max_abs > 0.1

    def test_forcing_callable_of_radius(self, model_form):
        problem = VerifyProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(1.0, 2.0),
            f=lambda r: -np.ones_like(r),
            N=2,
        )
        report = residual_check_radial(model_form, problem, (0.3, 0.7))
        assert report.max_abs <= 1e-12

    def test_model_identity_at_random_radii(self):
        # 2*(-s0(r))/r + s0(r)^2 = -1 on (0, 1)
        rng = np.random.default_rng(7)
        r = rng.uniform(1e-3, 1.0 - 1e-9, size=10_000)
        s0 = (1.0 - np.sqrt(1.0 - r * r)) / r
        assert np.max(np.abs(2.0 * (-s0) / r + s0**2 + 1.0)) <= 1e-10


def _per_radius_residuals(problem, r, du, ddu):
    # one SymMatrix and one operator call per radius, as residuals were
    # evaluated before the stacked kernel
    fvals = [
        float(problem.f) if isinstance(problem.f, float) else float(problem.f(ri))
        for ri in r
    ]
    out = np.empty(r.shape)
    for i, ri in enumerate(r):
        x = np.zeros(problem.N)
        x[0] = ri
        eigs = [float(ddu[i])] + [float(du[i] / ri)] * (problem.N - 1)
        value = evaluate_operator(problem.operator, x, SymMatrix.diag(eigs))
        if problem.hamiltonian is not None:
            xi = np.zeros(problem.N)
            xi[0] = du[i]
            value += problem.hamiltonian_sign * evaluate_hamiltonian(
                problem.hamiltonian, xi
            )
        out[i] = value - fvals[i]
    return out


class TestRadialResidualsBatched:
    @pytest.mark.parametrize(
        "problem",
        [
            MODEL_PROBLEM,
            VerifyProblem(LambdaK(2), PowerNorm(1.0, 0.5), -1.0, N=2,
                          hamiltonian_sign=-1.0),
            VerifyProblem(WeightedEigenvalues((0.5, 0.7, 0.8)), PowerNorm(1.0, 2.0),
                          lambda r: -1.0 - r**2, N=3),
            VerifyProblem(MinMax(), None, lambda r: -1.0 - math.sin(r), N=5),
            VerifyProblem(
                CoefficientLambdaN(
                    ScalarField(fn=lambda x: 1.5 + x[0] ** 2, lower=1.5, upper=3.0)
                ),
                AnisotropicPower(SymMatrix([[0.8, 0.2], [0.2, 0.5]]), 2.0),
                -1.0,
                N=2,
            ),
            VerifyProblem(
                LinearDegenerate(MatrixField.constant([[1.0, 0.2], [0.3, 1.1]])),
                PowerNorm(1.0, 2.0),
                -1.0,
                N=2,
            ),
        ],
    )
    def test_bit_identical_to_per_radius_loop(self, problem, model_profile):
        rng = np.random.default_rng(3)
        r = np.sort(rng.uniform(1e-3, 0.999, 257))
        for du, ddu in (
            (model_profile.du(r), model_profile.ddu(r)),
            (rng.standard_normal(r.size) * 10.0, rng.standard_normal(r.size) * 10.0),
        ):
            got = _radial_residuals(problem, r, du, ddu)
            ref = _per_radius_residuals(problem, r, du, ddu)
            assert got.tobytes() == ref.tobytes()


class TestResidualValidation:
    def test_radius_too_small(self, model_form):
        with pytest.raises(DomainViolationError, match="margin"):
            residual_check_radial(model_form, MODEL_PROBLEM, (1e-4, 0.5))

    def test_radius_too_close_to_boundary(self, model_form):
        with pytest.raises(DomainViolationError, match="margin"):
            residual_check_radial(model_form, MODEL_PROBLEM, (0.5, 0.9995))

    def test_empty_radii(self, model_form):
        with pytest.raises(ConfigError, match="at least one"):
            residual_check_radial(model_form, MODEL_PROBLEM, ())

    def test_nan_radius_is_a_config_error(self, model_form):
        # an input error, not a failed verification (passed=False)
        with pytest.raises(ConfigError, match="got nan at index 1"):
            residual_check_radial(model_form, MODEL_PROBLEM, (0.5, math.nan))

    def test_bad_tolerance(self, model_form):
        with pytest.raises(ConfigError, match="tolerance"):
            residual_check_radial(model_form, MODEL_PROBLEM, (0.5,), tolerance=0.0)

    @pytest.mark.parametrize(
        "f", [np.int64(-1), np.float32(-1.0), Fraction(-1)],
        ids=["int64", "float32", "fraction"],
    )
    def test_forcing_of_any_real_type_is_a_constant(self, model_form, f):
        want = residual_check_radial(model_form, MODEL_PROBLEM, (0.2, 0.5, 0.8))
        got = residual_check_radial(
            model_form, replace(MODEL_PROBLEM, f=f), (0.2, 0.5, 0.8)
        )
        assert np.array_equal(got.residuals, want.residuals)

    @pytest.mark.parametrize("f", ["abc", None, True], ids=["str", "none", "bool"])
    def test_forcing_neither_number_nor_callable_refused(self, model_form, f):
        with pytest.raises(ConfigError, match="number or a callable"):
            residual_check_radial(model_form, replace(MODEL_PROBLEM, f=f), (0.5,))

    def test_bad_dimension(self):
        with pytest.raises(ConfigError, match="dimension"):
            VerifyProblem(operator=MongeAmpere(), hamiltonian=None, f=0.0, N=1)

    def test_bad_sign(self):
        with pytest.raises(ConfigError, match="sign"):
            VerifyProblem(
                operator=MongeAmpere(), hamiltonian=None, f=0.0, N=2,
                hamiltonian_sign=0.5,
            )

    def test_report_csv_round_trip(self, model_form, tmp_path):
        report = residual_check_radial(model_form, MODEL_PROBLEM, (0.2, 0.5, 0.8))
        path = tmp_path / "residuals.csv"
        residual_report_to_csv(report, path)
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        assert np.array_equal(data[:, 0], report.radii)
        assert np.array_equal(data[:, 1], report.residuals)
        assert "passed=True" in path.read_text().splitlines()[0]

    def test_report_text(self, model_form):
        report = residual_check_radial(model_form, MODEL_PROBLEM, (0.5,))
        text = report.to_text()
        assert "samples: 1" in text
        assert "passed: True" in text


SUBLINEAR_CASES = [
    ("Lambda1", lambda n: LambdaK(1), 1.0),
    ("LambdaI", lambda n: LambdaK(2), 1.0),
    ("Laplacian", lambda n: WeightedEigenvalues((1.0,) * n), 1.0),
    ("MongeAmpere", lambda n: MongeAmpere(), -1.0),
]


class TestSublinearClosedForms:
    @pytest.mark.parametrize("kind,make_op,hsign", SUBLINEAR_CASES)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_zero_forcing_forms(self, kind, make_op, hsign, n, p):
        form = explicit_sublinear_form(kind, p, 1.0, n)
        problem = VerifyProblem(
            operator=make_op(n),
            hamiltonian=PowerNorm(1.0, p),
            f=0.0,
            N=n,
            hamiltonian_sign=hsign,
        )
        report = residual_check_radial(form, problem, (0.3, 0.6, 0.9))
        assert report.passed
        assert report.max_abs <= 1e-10

    def test_lambda_i_row_valid_for_any_upper_index(self):
        # the u'/r eigenvalue carries multiplicity N-1
        form = explicit_sublinear_form("LambdaI", 0.5, 1.0, 4)
        for i in (2, 3, 4):
            problem = VerifyProblem(
                operator=LambdaK(i), hamiltonian=PowerNorm(1.0, 0.5), f=0.0, N=4
            )
            report = residual_check_radial(form, problem, (0.3, 0.6, 0.9))
            assert report.max_abs <= 1e-10

    def test_monge_ampere_rejects_concave_candidate(self):
        # Lambda1 form is concave; det^(1/N) only accepts the convex cone
        form = explicit_sublinear_form("Lambda1", 0.5, 1.0, 2)
        problem = VerifyProblem(
            operator=MongeAmpere(), hamiltonian=PowerNorm(1.0, 0.5), f=0.0,
            N=2, hamiltonian_sign=-1.0,
        )
        with pytest.raises(DomainViolationError):
            residual_check_radial(form, problem, (0.5,))


class TestSigmaPerturbation:
    # v solves the model problem at M=1 on the 0.9-ball; varphi comes from
    # an M=1.1 run and is a strict supersolution with slack 0.1 there
    PROBLEM = VerifyProblem(
        operator=CoefficientLambdaN(ScalarField.constant(2.0)),
        hamiltonian=PowerNorm(1.0, 2.0),
        f=-1.0,
        N=2,
        R=0.9,
    )

    def test_certified_slack_formula(self, sigma_v, sigma_varphi):
        cert = sigma_perturbation(
            sigma_v, sigma_varphi, 0.9, epsilon=0.1, problem=self.PROBLEM
        )
        assert cert.slack == pytest.approx(0.01, abs=1e-15)

    def test_margins_reproduce_slack(self, sigma_v, sigma_varphi):
        cert = sigma_perturbation(
            sigma_v, sigma_varphi, 0.9, epsilon=0.1, problem=self.PROBLEM, sample_count=200
        )
        assert cert.passed
        assert cert.radii.size == 200
        assert cert.min_margin >= cert.slack - 1e-10
        assert cert.min_margin >= 0.009
        assert cert.min_margin == np.min(cert.margins)

    def test_sigma_near_one_slack_vanishes(self, sigma_v, sigma_varphi):
        # only the formula is pinned here: at slack ~1e-10 the pass flag
        # sits inside the recomputation tolerance
        cert = sigma_perturbation(
            sigma_v, sigma_varphi, 1.0 - 1e-9, epsilon=0.1, problem=self.PROBLEM,
            sample_count=50,
        )
        assert cert.slack == pytest.approx(1e-10, rel=1e-6)

    def test_combination_values(self, sigma_v, sigma_varphi):
        cert = sigma_perturbation(
            sigma_v, sigma_varphi, 0.9, epsilon=0.1, problem=self.PROBLEM, sample_count=50
        )
        # the closed form on each branch, not the interpolated table
        r = 0.45
        expected = (
            0.9 * _exact_u(r, sigma_v.R, sigma_v.params)[1]
            + 0.1 * _exact_u(r, sigma_varphi.R, sigma_varphi.params)[1]
        )
        assert cert.u(r) == pytest.approx(expected, abs=1e-15)

    def test_sigma_bounds(self, sigma_v, sigma_varphi):
        for sigma in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigError, match="sigma"):
                sigma_perturbation(
                    sigma_v, sigma_varphi, sigma, epsilon=0.1, problem=self.PROBLEM
                )

    def test_epsilon_positive(self, sigma_v, sigma_varphi):
        with pytest.raises(ConfigError, match="epsilon"):
            sigma_perturbation(sigma_v, sigma_varphi, 0.9, epsilon=0.0, problem=self.PROBLEM)

    def test_report_text(self, sigma_v, sigma_varphi):
        cert = sigma_perturbation(
            sigma_v, sigma_varphi, 0.9, epsilon=0.1, problem=self.PROBLEM, sample_count=50
        )
        text = cert.to_text()
        assert "certified_slack: 0.0099999999999999" in text
        assert "passed: True" in text


class TestProblemBall:
    # a candidate is checked on the problem's ball: one on another ball is
    # refused, naming both radii, not checked on its own R
    WANT = r"^candidate ball radius R = 1\.0 differs from the problem's R = 0\.9$"

    def test_residual_check(self, model_form):
        with pytest.raises(ConfigError, match=self.WANT):
            residual_check_radial(model_form, replace(MODEL_PROBLEM, R=0.9), (0.5,))

    def test_sigma_perturbation_checks_both_candidates(
        self, sigma_v, sigma_varphi, model_profile
    ):
        problem = TestSigmaPerturbation.PROBLEM
        for v, varphi in ((model_profile, sigma_varphi), (sigma_v, model_profile)):
            with pytest.raises(ConfigError, match=self.WANT):
                sigma_perturbation(v, varphi, 0.9, epsilon=0.1, problem=problem)

    def test_epsilon_scaling(self, sub_profile):
        problem = replace(TestEpsilonScaling.PROBLEM, R=0.9)
        with pytest.raises(ConfigError, match=self.WANT):
            epsilon_scaling(sub_profile, 0.1, -1.0, problem=problem)


class TestEpsilonScaling:
    PROBLEM = VerifyProblem(
        operator=LambdaK(2), hamiltonian=PowerNorm(1.0, 0.5), f=-1.0, N=2
    )

    @pytest.fixture(scope="class")
    def v(self):
        return radial_profile("FirstZeroSublinear", 1.0, SUB, node_count=512)

    def test_certified_slack_formula(self, sub_profile):
        cert = epsilon_scaling(sub_profile, 0.1, -1.0, problem=self.PROBLEM)
        assert cert.slack == pytest.approx(0.1, abs=1e-15)

    def test_margins_reproduce_slack(self, sub_profile):
        cert = epsilon_scaling(
            sub_profile, 0.1, -1.0, problem=self.PROBLEM, sample_count=200
        )
        assert cert.passed
        assert cert.radii.size == 200
        assert cert.min_margin >= cert.slack - 1e-10
        assert cert.min_margin >= 0.099

    def test_scaling_inequality_sampled(self, sub_profile):
        # eps*H(xi) <= H(eps*xi) for the sublinear power, equality at eps=1
        cert = epsilon_scaling(sub_profile, 0.1, -1.0, problem=self.PROBLEM, sample_count=20)
        assert cert.h2_min_margin >= -1e-12
        assert cert.h2_min_margin <= 1e-12  # equality case is sampled

    def test_small_epsilon_slack_vanishes(self, sub_profile):
        cert = epsilon_scaling(sub_profile, 1e-9, -1.0, problem=self.PROBLEM, sample_count=20)
        assert cert.slack == pytest.approx(1e-9, rel=1e-12)
        assert cert.passed

    def test_scaled_values(self, sub_profile):
        cert = epsilon_scaling(sub_profile, 0.1, -1.0, problem=self.PROBLEM, sample_count=20)
        exact = _exact_u(0.5, sub_profile.R, sub_profile.params)[1]
        assert cert.u(0.5) == pytest.approx(1.1 * exact, abs=1e-15)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9, 1.5])
    @pytest.mark.parametrize("b", [1.0, 2.5])
    def test_scaling_margin_matches_scalar_loop(self, p, b):
        # the sampled (eps, xi) set of _h2_scaling_margin, one vector at a
        # time; p = 1.5 violates the inequality, so the minimum is not 0
        ham = PowerNorm(b=b, p=p)
        worst = math.inf
        for eps in np.linspace(0.05, 1.0, 20):
            for s in np.logspace(-3.0, 3.0, 13):
                for a in np.linspace(0.0, math.pi, 7):
                    xi = np.array([s * math.cos(a), s * math.sin(a)])
                    worst = min(
                        worst,
                        evaluate_hamiltonian(ham, eps * xi)
                        - eps * evaluate_hamiltonian(ham, xi),
                    )
        assert _h2_scaling_margin(ham) == pytest.approx(worst, rel=1e-12, abs=1e-12)

    def test_nonnegative_sup_f_rejected(self, sub_profile):
        with pytest.raises(ConfigError, match="sup f < 0"):
            epsilon_scaling(sub_profile, 0.1, 0.0, problem=self.PROBLEM)

    def test_superlinear_gradient_rejected(self, sub_profile):
        problem = VerifyProblem(
            operator=LambdaK(2), hamiltonian=PowerNorm(1.0, 2.0), f=-1.0, N=2
        )
        with pytest.raises(ConfigError, match="sublinear"):
            epsilon_scaling(sub_profile, 0.1, -1.0, problem=problem)

    def test_missing_gradient_term_rejected(self, sub_profile):
        problem = VerifyProblem(
            operator=LambdaK(2), hamiltonian=None, f=-1.0, N=2
        )
        with pytest.raises(ConfigError, match="sublinear"):
            epsilon_scaling(sub_profile, 0.1, -1.0, problem=problem)

    def test_report_text(self, sub_profile):
        cert = epsilon_scaling(sub_profile, 0.1, -1.0, problem=self.PROBLEM, sample_count=20)
        text = cert.to_text()
        assert "certified_slack: 0.1" in text
        assert "h2_min_margin:" in text


def _agreement_sets():
    # the model plus random superlinear envelopes down to the p - 1 >= 1e-5
    # floor of rbar, log-spread in p - 1
    rng = np.random.default_rng(20201)
    sets = [MODEL]
    for _ in range(3):
        beta, b, M = rng.uniform(0.5, 2.0, 3)
        p = 1.0 + 10.0 ** rng.uniform(-5.0, 0.5)
        sets.append(Params(beta=beta, b=b, p=p, M=M))
    return sets


def _admits(call):
    """(True, result) when the call admits the radius, (False, gap) when it
    refuses it with a ThresholdError."""
    try:
        return True, call()
    except ThresholdError as err:
        return False, err.gap


def _ref_threshold_probe(params, radii):
    """The verdicts with one root call per admissible radius: the loop that
    the one batched call replaced, kept as the reference."""
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
        first_zero(np.linspace(R / _PROBE_COUNT, R, _PROBE_COUNT), params)
        verdicts.append(ThresholdVerdict(R=float(R), exists=True, endpoint=endpoint))
    return tuple(verdicts)


class TestThresholdProbe:
    @pytest.mark.parametrize("params", _agreement_sets())
    @pytest.mark.parametrize("eps", [-1e-9, 0.0, 5e-11, 1.5e-10, 5e-10, 1e-9])
    def test_one_verdict_everywhere(self, params, eps):
        # every module asks the same question of a radius near the threshold
        R = rbar(params) * (1.0 + eps)
        disc = ConvexDomain(radius=R, centers=((0.0, 0.0),))
        problem = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(params.beta)),
            hamiltonian=PowerNorm(params.b, params.p),
            params=params,
            domain=disc,
            f=-params.M,
        )
        (probe,) = threshold_probe(params, [R])
        outcomes = [
            _admits(
                lambda: radial_profile(
                    "FirstZeroSuperlinear", R, params, node_count=64
                ).at_threshold
            ),
            _admits(lambda: c1_bound(params, R)),
            _admits(
                lambda: evaluate_barrier(
                    build_supersolution(disc, params, params.M), [[0.0, 0.0], [R, 0.0]]
                )
            ),
            _admits(lambda: solve(problem, build_grid(disc, R / 8.0, 8))),
            (True, probe.endpoint) if probe.exists else (False, probe.gap),
        ]
        admitted = {ok for ok, _ in outcomes}
        assert len(admitted) == 1, outcomes
        if admitted == {True}:
            assert outcomes[0][1] == probe.endpoint
        else:
            assert len({gap for _, gap in outcomes}) == 1, outcomes
            assert probe.gap > 0.0 and probe.fails_at == R

    def test_model_verdicts(self):
        threshold = rbar(MODEL)  # exactly 1
        verdicts = threshold_probe(
            MODEL, [0.99 * threshold, threshold, 1.01 * threshold]
        )
        below, at, above = verdicts
        assert below.exists and not below.endpoint
        assert at.exists and at.endpoint
        assert not above.exists
        assert above.fails_at == pytest.approx(1.01 * threshold)
        assert above.gap > 0.0

    def test_failure_gap_is_min_of_phi(self):
        from degelliptic.radial import critical_s1, phi

        (verdict,) = threshold_probe(MODEL, [1.5])
        assert verdict.gap == pytest.approx(
            float(phi(1.5, critical_s1(1.5, MODEL), MODEL)), abs=1e-15
        )

    def test_monotone_in_radius(self):
        params = Params(beta=1.3, b=0.7, p=2.5, M=0.9)
        threshold = rbar(params)
        radii = np.linspace(0.2, 2.0, 25) * threshold
        verdicts = threshold_probe(params, radii)
        flags = [v.exists for v in verdicts]
        # once existence fails it stays failed
        assert flags == sorted(flags, reverse=True)

    @given(
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
        st.floats(1.1, 4.0),
        st.floats(0.2, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_envelopes(self, beta, b, p, M):
        params = Params(beta=beta, b=b, p=p, M=M)
        threshold = rbar(params)
        below, at, above = threshold_probe(
            params, [0.99 * threshold, threshold, 1.01 * threshold]
        )
        assert below.exists and not below.endpoint
        assert at.exists and at.endpoint
        assert not above.exists and above.gap > 0.0

    @given(
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.floats(1.0 + 1e-5, 6.0),
        st.floats(0.3, 3.0),
        st.lists(st.floats(0.01, 1.5), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    @example(beta=2.0, b=1.0, p=1.005, M=1.0, fracs=[1.2, 0.002, 0.5])  # s1 overflows
    # b s1^p overflows while s1 is finite: the gap once read +inf and
    # refused R = 0.01 rbar as above the threshold
    @example(beta=1.0, b=0.5, p=1.01, M=2.0, fracs=[0.01])
    def test_one_root_call_gives_the_per_radius_verdicts(self, beta, b, p, M, fracs):
        params = Params(beta=beta, b=b, p=p, M=M)
        radii = rbar(params) * np.array(fracs + [1.0])
        ref = _ref_threshold_probe(params, radii)
        assert threshold_probe(params, radii) == ref

    def test_zero_forcing_never_fails(self):
        params = Params(beta=2.0, b=1.0, p=2.0, M=0.0)
        verdicts = threshold_probe(params, [1.0, 10.0, 1e6])
        assert all(v.exists and not v.endpoint for v in verdicts)

    def test_sublinear_rejected(self):
        with pytest.raises(ConfigError, match="superlinear"):
            threshold_probe(SUB, [1.0])

    def test_bad_radii(self):
        with pytest.raises(ConfigError, match="R > 0, got -1.0 at index 1"):
            threshold_probe(MODEL, [0.5, -1.0])
        with pytest.raises(ConfigError, match="R > 0, got nan at index 1"):
            threshold_probe(MODEL, [0.5, math.nan])
        with pytest.raises(ConfigError, match="at least one"):
            threshold_probe(MODEL, [])

    def test_text_rendering(self):
        exists, fails = threshold_probe(MODEL, [0.5, 2.0])
        assert exists.to_text() == "R=0.5: Exists"
        assert "FailsAt(r*=2" in fails.to_text()
        at = threshold_probe(MODEL, [1.0])[0]
        assert "(endpoint)" in at.to_text()


class TestConvergenceStudy:
    def test_zero_forcing_exact(self):
        problem = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(1.0, 2.0),
            params=MODEL,
            domain=DISC,
            f=0.0,
        )
        table = convergence_study(problem, [1 / 8, 1 / 16])
        assert [row.error for row in table.rows] == [0.0, 0.0]
        assert all(math.isnan(row.order) for row in table.rows)

    def test_benchmark_errors_decrease(self):
        problem = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(1.0, 2.0),
            params=MODEL,
            domain=DISC,
            f=-1.0,
        )
        table = convergence_study(problem, [1 / 8, 1 / 16])
        errors = [row.error for row in table.rows]
        assert errors[1] < errors[0]
        assert errors[1] <= 0.009
        assert math.isnan(table.rows[0].order)
        assert table.rows[1].order > 0.0

    def test_second_order_below_the_threshold(self):
        # on a disc of radius 0.6 rbar the solution is smooth up to the rim,
        # and the nine-point Hessian scheme converges at second order:
        # measured 4.52e-5, 1.17e-5, 2.90e-6, orders 1.95 and 2.02 (the fan
        # scheme plateaued at 2.3e-4, 1.8e-4, 1.7e-4 at K = 8)
        R = 0.6 * rbar(MODEL)
        problem = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(1.0, 2.0),
            params=MODEL,
            domain=ConvexDomain(radius=R, centers=((0.0, 0.0),)),
            f=-1.0,
        )
        table = convergence_study(problem, [R / 16, R / 32, R / 64], tol=1e-7)
        assert table.rows[0].error <= 1e-4
        assert all(row.order >= 1.8 for row in table.rows[1:])

    def test_numpy_scalar_forcing_gets_the_radial_oracle(self):
        # a float32 forcing is the constant -1, not a non-constant field
        problem = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(1.0, 2.0),
            params=MODEL,
            domain=DISC,
            f=-1.0,
        )
        want = convergence_study(problem, [1 / 8])
        got = convergence_study(replace(problem, f=np.float32(-1.0)), [1 / 8])
        assert [row.error for row in got.rows] == [row.error for row in want.rows]

    def test_sublinear_benchmark_against_callable_oracle(self):
        # lambda_1(D^2 u) = -r/2 on the unit disc has u = (1 - r^3)/12
        params = Params(beta=1.0, b=1.0, p=0.5, M=0.5)
        problem = GridProblem(
            operator=LambdaK(1),
            hamiltonian=None,
            params=params,
            domain=DISC,
            f=lambda x: -np.hypot(x[..., 0], x[..., 1]) / 2.0,
        )
        table = convergence_study(
            problem, [1 / 8, 1 / 16], oracle=lambda r: (1.0 - r**3) / 12.0
        )
        errors = [row.error for row in table.rows]
        assert errors[1] < 0.35 * errors[0]
        assert table.rows[1].order > 1.5

    def test_no_oracle_for_odd_problem(self):
        problem = GridProblem(
            operator=LambdaK(1),
            hamiltonian=None,
            params=SUB,
            domain=DISC,
            f=lambda x: -np.hypot(x[..., 0], x[..., 1]) / 2.0,
        )
        with pytest.raises(ConfigError, match="oracle"):
            convergence_study(problem, [1 / 8])

    def test_bad_spacings(self):
        problem = GridProblem(
            operator=LambdaK(1), hamiltonian=None, params=SUB, domain=DISC, f=0.0
        )
        with pytest.raises(ConfigError, match="spacing"):
            convergence_study(problem, [])
        with pytest.raises(ConfigError, match="spacing"):
            convergence_study(problem, [0.125, -0.1])

    def test_table_serialization(self, tmp_path):
        problem = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(1.0, 2.0),
            params=MODEL,
            domain=DISC,
            f=0.0,
        )
        table = convergence_study(problem, [1 / 8])
        text = table.to_text()
        assert "Linf_error" in text and "0.125" in text
        path = tmp_path / "table.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "h,error,order"
        assert lines[1].startswith("0.125,0,")


class TestProfileDerivativeFormula:
    # the implicit derivative on the root curve backs every residual above;
    # pin it against the model closed form and a finite difference
    def test_matches_model_closed_form(self, model_profile):
        r = np.linspace(0.05, 0.95, 61)
        ddu = model_profile.ddu(r)
        w = np.sqrt(1.0 - r * r)
        s0 = (1.0 - w) / r
        assert np.max(np.abs(ddu + s0 / (r * w))) <= 1e-11

    def test_matches_finite_difference(self):
        params = Params(beta=1.4, b=0.6, p=2.7, M=0.8)
        prof = radial_profile(
            "FirstZeroSuperlinear", 0.8 * rbar(params), params, node_count=128
        )
        r = np.linspace(0.1, 0.7 * rbar(params), 23)
        ddu = prof.ddu(r)
        h = 1e-6
        fd = -(first_zero(r + h, params) - first_zero(r - h, params)) / (2 * h)
        assert np.max(np.abs(ddu - fd)) <= 1e-7
