import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from degelliptic.errors import ConfigError, DomainViolationError, NumericError
from degelliptic.model import (
    MA_CONE_TOL,
    PASS_MARGIN,
    AnisotropicPower,
    CoefficientLambdaN,
    CompactPerturbation,
    ConvexDomain,
    LambdaK,
    LinearDegenerate,
    MatrixField,
    MinMax,
    MongeAmpere,
    NonconvexPair,
    Params,
    PowerNorm,
    ScalarField,
    SupInf,
    SymMatrix,
    TruncatedLower,
    TruncatedUpper,
    WeightedEigenvalues,
    _field_values,
    _hamiltonian_values,
    _operator_values,
    check_structural_conditions,
    compact_perturbation_constant,
    eigenvalues_sorted,
    ellipticity_constant,
    evaluate_hamiltonian,
    evaluate_operator,
)
from degelliptic.verify import ClosedFormRadial, VerifyProblem, residual_check_radial


class TestParams:
    def test_defaults(self):
        p = Params(beta=2.0, b=1.0)
        assert p.p == 2.0 and p.M == 1.0 and p.superlinear

    @pytest.mark.parametrize(
        "kw",
        [
            dict(beta=0.0, b=1.0),
            dict(beta=1.0, b=0.0),
            dict(beta=1.0, b=1.0, c=-0.1),
            dict(beta=1.0, b=1.0, M=-1.0),
            dict(beta=1.0, b=1.0, p=0.0),
            dict(beta=1.0, b=1.0, p=1.0),
            dict(beta=1.0, b=1.0, p=1.0 + 1e-9),
            dict(beta=math.inf, b=1.0),
            # inside the guard |p - 1| < 1e-5; at p - 1 = 2e-6 the roots at
            # the threshold radius can miss their tolerance
            dict(beta=1.0, b=1.0, p=1.0 + 5e-6),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            Params(**kw)

    def test_branch_flag(self):
        assert not Params(beta=1.0, b=1.0, p=0.5).superlinear


class TestSymMatrix:
    def test_mirrors_upper_triangle(self):
        m = SymMatrix([[1.0, 2.0], [999.0, 3.0]])
        assert m.a[1, 0] == 2.0  # lower triangle of the input is ignored

    def test_immutable(self):
        m = SymMatrix.identity(3)
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0
        with pytest.raises(AttributeError):
            m.n = 4

    @pytest.mark.parametrize("n", [1, 9])
    def test_dimension_bounds(self, n):
        with pytest.raises(ConfigError):
            SymMatrix(np.eye(n))

    def test_matches_triu_mirror_bytes(self):
        # the mirrored upper triangle, -0.0 normalised to +0.0 as triu's
        # zero-padded sum does
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for _ in range(20):
                a = rng.standard_normal((n, n))
                a[rng.random((n, n)) < 0.3] = -0.0
                ref = np.triu(a) + np.triu(a, 1).T
                assert SymMatrix(a).a.tobytes() == ref.tobytes()

    def test_lower_triangle_ignored(self):
        rng = np.random.default_rng(8)
        for n in range(2, 9):
            a = rng.standard_normal((n, n))
            kept = a.copy()
            assert SymMatrix(a).a.tobytes() == SymMatrix(np.triu(a)).a.tobytes()
            assert np.array_equal(a, kept)  # the input is not written to

    def test_arithmetic(self):
        a = SymMatrix.diag([1.0, 2.0])
        b = SymMatrix.identity(2)
        assert np.array_equal((a + b).a, np.diag([2.0, 3.0]))
        assert np.array_equal((2.0 * a).a, np.diag([2.0, 4.0]))


class TestFieldEquality:
    """Coefficient fields compare and hash by their declared bounds and name;
    the callable ``fn`` takes no part."""

    def test_scalar_fields(self):
        one = ScalarField(fn=lambda x: 1.0 + x[0] ** 2, lower=1.0, upper=2.0)
        two = ScalarField(fn=lambda x: 1.5, lower=1.0, upper=2.0)
        assert one == two and hash(one) == hash(two)
        assert one != ScalarField(fn=one.fn, lower=1.0, upper=2.0, name="a")
        assert one != ScalarField(fn=one.fn, lower=1.1, upper=2.0)
        assert one != ScalarField(fn=one.fn, lower=1.0, upper=2.5)
        assert CoefficientLambdaN(one) == CoefficientLambdaN(two)
        assert hash(CoefficientLambdaN(one)) == hash(CoefficientLambdaN(two))
        assert ScalarField.constant(2.0) == ScalarField.constant(2.0)

    def test_matrix_fields(self):
        bounds = dict(lambda_min_sts=1.0, lambda_max_sts=1.0)
        one = MatrixField(fn=lambda x: np.eye(2), **bounds)
        two = MatrixField(fn=lambda x: -np.eye(2), **bounds)
        assert one == two and hash(one) == hash(two)
        assert one != MatrixField(fn=one.fn, **bounds, name="a")
        assert one != MatrixField(fn=one.fn, lambda_min_sts=0.5, lambda_max_sts=1.0)
        assert one != MatrixField(fn=one.fn, lambda_min_sts=1.0, lambda_max_sts=2.0)
        assert LinearDegenerate(one) == LinearDegenerate(two)
        assert hash(LinearDegenerate(one)) == hash(LinearDegenerate(two))
        rows = ((1.0, 0.0), (0.4, 0.8))
        assert MatrixField.constant(rows) == MatrixField.constant(rows)


class TestFieldBounds:
    """The declared bounds are admitted as Python floats with lower <= upper:
    a NaN infimum would compare false against every envelope test, so a
    coefficient with no stated ellipticity would pass them all."""

    @pytest.mark.parametrize("lower", [math.nan, -math.inf, "1", None, True])
    def test_scalar_lower_refused(self, lower):
        with pytest.raises(ConfigError, match="declared bound lower"):
            ScalarField(fn=lambda x: 2.0, lower=lower, upper=2.0)

    def test_scalar_lower_above_upper_refused(self):
        with pytest.raises(ConfigError, match=r"upper >= 3\.0, got 1"):
            ScalarField(fn=lambda x: 2.0, lower=3, upper=1)

    def test_matrix_min_above_max_refused(self):
        with pytest.raises(ConfigError, match="lambda_max_sts >= 2.0"):
            MatrixField(fn=lambda x: np.eye(2), lambda_min_sts=2.0, lambda_max_sts=1.0)
        with pytest.raises(ConfigError, match="lambda_max_sts"):
            MatrixField(fn=lambda x: np.eye(2), lambda_min_sts=0.0, lambda_max_sts=math.inf)

    def test_unbounded_coefficient_declares_sup_inf(self):
        a = ScalarField(fn=lambda x: 1.5 + x[0] ** 2, lower=1.5, upper=math.inf)
        assert a.upper == math.inf
        with pytest.raises(ConfigError, match="declared bound upper"):
            ScalarField(fn=a.fn, lower=1.5, upper=-math.inf)

    def test_bounds_stored_as_python_floats(self):
        a = ScalarField(fn=lambda x: 2.0, lower=np.float32(0.5), upper=Fraction(5, 2))
        assert (type(a.lower), type(a.upper)) == (float, float)
        assert (a.lower, a.upper) == (0.5, 2.5)
        assert ellipticity_constant(CoefficientLambdaN(a)) == 0.5
        s = MatrixField.constant([[1.0, 0.0], [0.0, 2.0]])
        assert (type(s.lambda_min_sts), type(s.lambda_max_sts)) == (float, float)


class TestEigenvalues:
    def test_against_lapack(self):
        # np.linalg.eigvalsh as reference oracle only
        rng = np.random.default_rng(42)
        for n in range(2, 9):
            for _ in range(25):
                g = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 2)
                m = SymMatrix(0.5 * (g + g.T))
                ref = np.linalg.eigvalsh(m.a)
                got = eigenvalues_sorted(m)
                tol = 1e-12 * max(1.0, float(np.abs(ref).max()))
                assert np.allclose(got, ref, atol=tol)

    def test_known_spectrum(self):
        rng = np.random.default_rng(9)
        for n in range(3, 9):
            for _ in range(25):
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                d = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
                d[0] = d[-1]  # a repeated eigenvalue
                got = eigenvalues_sorted(SymMatrix(q @ np.diag(d) @ q.T))
                scale = max(1.0, float(np.abs(d).max()))
                assert np.all(np.abs(got - np.sort(d)) <= 1e-12 * scale)

    def test_solver_failure_is_numeric_error(self, monkeypatch):
        def fail(_a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericError, match="did not converge"):
            eigenvalues_sorted(SymMatrix.identity(3))

    def test_sorted(self):
        lam = eigenvalues_sorted(SymMatrix.diag([3.0, -1.0, 2.0]))
        assert list(lam) == sorted(lam)

    def test_2x2_exact(self):
        lam = eigenvalues_sorted(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert lam[0] == pytest.approx(1.0, abs=1e-15)
        assert lam[1] == pytest.approx(3.0, abs=1e-15)

    @given(
        st.lists(st.floats(-100, 100), min_size=6, max_size=6),
        st.lists(st.floats(0, 10), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_under_psd_increment(self, entries, diag):
        # lambda_i(X + Y) >= lambda_i(X) + lambda_1(Y) for Y >= 0
        x = SymMatrix(
            [
                [entries[0], entries[1], entries[2]],
                [0.0, entries[3], entries[4]],
                [0.0, 0.0, entries[5]],
            ]
        )
        y = SymMatrix.diag(diag)
        lam_x = eigenvalues_sorted(x)
        lam_xy = eigenvalues_sorted(x + y)
        lam1_y = min(diag)
        tol = 1e-10 * max(1.0, float(np.abs(lam_x).max()), max(diag, default=1.0))
        assert np.all(lam_xy >= lam_x + lam1_y - tol)


class TestOperators:
    def test_weighted(self):
        op = WeightedEigenvalues((1.0, 2.0))
        assert evaluate_operator(op, None, SymMatrix.diag([3.0, 1.0])) == 7.0

    def test_weighted_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            evaluate_operator(
                WeightedEigenvalues((1.0, 1.0)), None, SymMatrix.identity(3)
            )

    def test_lambda_k(self):
        m = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert evaluate_operator(LambdaK(1), None, m) == pytest.approx(1.0)
        assert evaluate_operator(LambdaK(2), None, m) == pytest.approx(3.0)
        with pytest.raises(ConfigError):
            evaluate_operator(LambdaK(3), None, m)

    def test_truncated(self):
        m = SymMatrix.diag([5.0, -1.0, 2.0])
        assert evaluate_operator(TruncatedLower(2), None, m) == pytest.approx(1.0)
        assert evaluate_operator(TruncatedUpper(2), None, m) == pytest.approx(7.0)

    def test_minmax(self):
        assert evaluate_operator(
            MinMax(), None, SymMatrix.diag([-3.0, 4.0])
        ) == pytest.approx(1.0)

    def test_nonconvex_pair(self):
        op = NonconvexPair(1, 2)
        assert evaluate_operator(op, None, SymMatrix.diag([-1.0, -1.0])) == -2.0
        assert evaluate_operator(op, None, SymMatrix.diag([2.0, 5.0])) == 2.0

    def test_linear_degenerate(self):
        sig = MatrixField.constant([[1.0, 0.0], [0.0, 0.0]])
        op = LinearDegenerate(sig)
        m = SymMatrix([[4.0, 1.0], [1.0, 7.0]])
        assert evaluate_operator(op, np.zeros(2), m) == pytest.approx(4.0)

    def test_coefficient(self):
        op = CoefficientLambdaN(ScalarField.constant(2.0))
        assert evaluate_operator(op, np.zeros(2), SymMatrix.diag([1.0, 3.0])) == 6.0

    def test_monge_ampere(self):
        assert evaluate_operator(
            MongeAmpere(), None, SymMatrix.diag([4.0, 9.0])
        ) == pytest.approx(6.0)
        with pytest.raises(DomainViolationError):
            evaluate_operator(MongeAmpere(), None, SymMatrix.diag([-1.0, 1.0]))

    def test_monge_ampere_clamps_roundoff(self):
        val = evaluate_operator(MongeAmpere(), None, SymMatrix.diag([-1e-12, 1.0]))
        assert val == 0.0

    def test_sup_inf(self):
        op = SupInf(((LambdaK(1), LambdaK(2)), (MinMax(),)))
        m = SymMatrix.diag([-1.0, 2.0])
        # rows give min(-1, 2) = -1 and 1; sup is 1
        assert evaluate_operator(op, None, m) == pytest.approx(1.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3))
        m = SymMatrix(0.5 * (g + g.T))
        for op in [LambdaK(2), MinMax(), TruncatedLower(2), NonconvexPair(1, 3)]:
            v = evaluate_operator(op, None, m)
            assert evaluate_operator(op, None, 3.0 * m) == pytest.approx(3.0 * v)


class TestEllipticityConstant:
    @pytest.mark.parametrize(
        "op,beta",
        [
            (WeightedEigenvalues((0.5, 1.5)), 2.0),
            (LambdaK(1), 1.0),
            (TruncatedLower(3), 3.0),
            (TruncatedUpper(2), 2.0),
            (MinMax(), 2.0),
            (NonconvexPair(1, 2), 1.0),
            (CoefficientLambdaN(ScalarField.constant(0.7)), 0.7),
            (MongeAmpere(), 1.0),
        ],
    )
    def test_catalog(self, op, beta):
        assert ellipticity_constant(op) == pytest.approx(beta)

    def test_linear_degenerate_uses_top_eigenvalue(self):
        sig = MatrixField.constant([[2.0, 0.0], [0.0, 1.0]])
        assert ellipticity_constant(LinearDegenerate(sig)) == pytest.approx(4.0)

    def test_sup_inf_takes_min(self):
        op = SupInf(((MinMax(), LambdaK(1)), (TruncatedUpper(3),)))
        assert ellipticity_constant(op) == pytest.approx(1.0)


class TestHamiltonians:
    def test_power_norm(self):
        h = PowerNorm(b=2.0, p=3.0)
        assert evaluate_hamiltonian(h, [3.0, 4.0]) == pytest.approx(250.0)

    def test_power_norm_zero_coefficient(self):
        assert evaluate_hamiltonian(PowerNorm(0.0, 2.0), [5.0, 5.0]) == 0.0

    def test_anisotropic_reduces_to_power(self):
        h = AnisotropicPower(SymMatrix.identity(2), p=1.5)
        xi = [1.0, 2.0]
        assert evaluate_hamiltonian(h, xi) == pytest.approx(
            np.linalg.norm(xi) ** 1.5
        )
        assert h.b == pytest.approx(1.0)

    def test_anisotropic_bound_enforced(self):
        a = SymMatrix.diag([4.0, 1.0])
        with pytest.raises(ConfigError):
            AnisotropicPower(a, p=2.0, b=1.0)  # needs b >= 4
        assert AnisotropicPower(a, p=2.0).b == pytest.approx(4.0)

    def test_compact_perturbation(self):
        # bump a(1 - |xi|^2)^2 on the unit ball: sup = a, sup|D| = 8a/(3 sqrt 3)
        a = 1.0
        bump = ScalarField(
            fn=lambda xi: a * (1.0 - float(np.dot(xi, xi))) ** 2,
            lower=0.0,
            upper=a,
            name="bump",
        )
        h = CompactPerturbation(
            p=2.0,
            bump=bump,
            norm_inf=a,
            dnorm_inf=8.0 * a / (3.0 * math.sqrt(3.0)),
            support_radius=1.0,
        )
        assert evaluate_hamiltonian(h, [0.0, 0.0]) == pytest.approx(1.0)
        assert evaluate_hamiltonian(h, [2.0, 0.0]) == pytest.approx(4.0)
        assert h.R == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert h.d_lower == a


class TestCompactPerturbationConstant:
    def test_reference_value(self):
        r, c = compact_perturbation_constant(2.0, (1.0, 1.0, 1.0))
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert c == pytest.approx(2.0 * math.sqrt(2.0) + 1.0, abs=1e-11)

    def test_radius_dominates_growth(self):
        for p in (1.5, 2.0, 3.0):
            for norms in [(0.3, 2.0, 0.5), (5.0, 0.1, 2.0)]:
                r, c = compact_perturbation_constant(p, norms)
                assert r >= norms[2]
                assert r**p >= norms[2] ** p + norms[0] - 1e-9
                assert c >= r**p - 1e-12
                assert c >= 2 * r * norms[1] + norms[0] - 1e-12

    def test_zero_bump_keeps_support_radius(self):
        r, c = compact_perturbation_constant(2.0, (0.0, 0.0, 1.5))
        assert r == 1.5 and c == pytest.approx(2.25)

    def test_sublinear_rejected(self):
        with pytest.raises(ConfigError):
            compact_perturbation_constant(0.5, (1.0, 1.0, 1.0))


class TestConvexDomain:
    def test_single_ball(self):
        d = ConvexDomain(radius=1.0, centers=((0.0, 0.0),))
        assert d.contains([0.0, 0.0])
        assert not d.contains([1.0, 0.0])
        assert d.contains_closure([1.0, 0.0])
        assert d.max_center_distance([0.6, 0.8]) == pytest.approx(1.0)

    def test_lens(self):
        d = ConvexDomain(radius=1.0, centers=((-0.5, 0.0), (0.5, 0.0)))
        assert d.contains([0.0, 0.0])
        assert not d.contains([0.6, 0.0])  # only 1.1 from the left center
        assert d.max_center_distance([0.0, 0.0]) == pytest.approx(0.5)

    def test_vectorized(self):
        d = ConvexDomain(radius=1.0, centers=((0.0, 0.0),))
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert list(d.contains(pts)) == [True, False]

    def test_empty_intersection_rejected(self):
        with pytest.raises(ConfigError):
            ConvexDomain(radius=1.0, centers=((0.0, 0.0), (2.0, 0.0)))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ConfigError):
            ConvexDomain(radius=1.0, centers=((0.0, 0.0), (0.0, 0.0, 0.0)))

    @given(
        st.integers(2, 5),
        st.integers(1, 4),
        st.integers(0, 50),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_center_distance_matches_norm_reference(self, N, k, n, seed):
        # the one-pass-per-center distance against the norm over the
        # (n, k, N) difference array it replaced, bit for bit
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-0.3, 0.3, (k, N)) * 10.0 ** rng.uniform(-3, 0)
        d = ConvexDomain(radius=1.0, centers=tuple(map(tuple, centers)))
        x = rng.standard_normal((n, N)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        ref = np.linalg.norm(x[..., None, :] - d.center_array(), axis=-1).max(axis=-1)
        assert np.array_equal(d.max_center_distance(x), ref)
        for point, want in zip(x[:3], ref):  # a single point
            got = d.max_center_distance(point)
            assert np.ndim(got) == 0 and got == want


class TestStructuralConditions:
    @pytest.mark.parametrize(
        "op,n",
        [
            (WeightedEigenvalues((0.5, 1.5)), 2),
            (LambdaK(1), 2),
            (LambdaK(2), 2),
            (TruncatedLower(2), 3),
            (TruncatedUpper(2), 3),
            (MinMax(), 2),
            (NonconvexPair(1, 2), 2),
            (CoefficientLambdaN(ScalarField.constant(1.3)), 2),
            (LinearDegenerate(MatrixField.constant([[1.0, 0.2], [0.0, 0.8]])), 2),
            (MongeAmpere(), 3),
            (SupInf(((LambdaK(1), MinMax()), (LambdaK(2),))), 2),
        ],
    )
    def test_catalog_passes_with_stated_beta(self, op, n):
        params = Params(beta=ellipticity_constant(op), b=1.0, p=2.0, M=1.0)
        rep = check_structural_conditions(
            op, PowerNorm(1.0, 2.0), params, sample_count=250, seed=17, n=n
        )
        for r in rep.results:
            assert r.passed, (r.name, r.worst_margin)
        assert rep.all_passed

    def test_nonconvex_pair_violates_extended_bound(self):
        params = Params(beta=1.0, b=1.0, p=2.0, M=1.0)
        rep = check_structural_conditions(
            NonconvexPair(1, 2),
            PowerNorm(1.0, 2.0),
            params,
            sample_count=100,
            seed=3,
            extended_ellipticity=True,
        )
        r = rep.result("extended_ellipticity")
        assert not r.passed
        # canonical probe at X=0, Y=-I certifies a violation of at least 2 - beta
        assert r.worst_margin >= 2.0 - params.beta - 1e-12
        assert rep.result("F1").passed and rep.result("deg2").passed

    def test_overstated_beta_detected(self):
        # the bounds hold for any beta <= the true constant, so only an
        # overstated beta is falsifiable; MinMax tops out at 2
        params = Params(beta=3.0, b=1.0, p=2.0, M=1.0)
        rep = check_structural_conditions(
            MinMax(), PowerNorm(1.0, 2.0), params, sample_count=250, seed=2
        )
        assert not rep.result("F1").passed
        assert not rep.result("deg2").passed

    def test_sublinear_scaling_condition(self):
        params = Params(beta=1.0, b=1.0, p=0.5, M=1.0)
        rep = check_structural_conditions(
            LambdaK(1), PowerNorm(1.0, 0.5), params, sample_count=250, seed=9
        )
        assert rep.result("H2").passed

    def test_growth_violation_detected(self):
        # declared growth smaller than the actual coefficient
        params = Params(beta=1.0, b=0.5, p=2.0, M=1.0)
        rep = check_structural_conditions(
            LambdaK(1), PowerNorm(1.0, 2.0), params, sample_count=250, seed=9
        )
        assert not rep.result("H1").passed

    def test_deterministic_in_seed(self):
        params = Params(beta=2.0, b=1.0, p=2.0, M=1.0)
        reps = [
            check_structural_conditions(
                MinMax(), PowerNorm(1.0, 2.0), params, sample_count=50, seed=123
            )
            for _ in range(2)
        ]
        assert [r.worst_margin for r in reps[0].results] == [
            r.worst_margin for r in reps[1].results
        ]

    def test_comparison_principle_is_assumed_not_checked(self):
        params = Params(beta=2.0, b=1.0, p=2.0, M=1.0)
        rep = check_structural_conditions(
            MinMax(), PowerNorm(1.0, 2.0), params, sample_count=10, seed=0
        )
        assert rep.comparison_principle == "assumed"


# ---------------------------------------------------------------------------
# the stacked kernels against the per-sample evaluation they replaced, kept
# here as the reference: one SymMatrix, one eigen-solve and one float per
# sample


def _ref_eigenvalues(a):
    if a.shape[0] == 2:
        half_tr = 0.5 * (a[0, 0] + a[1, 1])
        half_gap = 0.5 * (a[0, 0] - a[1, 1])
        rad = math.hypot(half_gap, a[0, 1])
        return np.array([half_tr - rad, half_tr + rad])
    return np.linalg.eigvalsh(a)


def _ref_operator(spec, x, a):
    lam = _ref_eigenvalues(a)
    n = a.shape[0]
    if isinstance(spec, WeightedEigenvalues):
        return float(np.dot(spec.alphas, lam))
    if isinstance(spec, LambdaK):
        return float(lam[spec.index - 1])
    if isinstance(spec, TruncatedLower):
        return float(np.sum(lam[: spec.k]))
    if isinstance(spec, TruncatedUpper):
        return float(np.sum(lam[n - spec.k :]))
    if isinstance(spec, MinMax):
        return float(lam[0] + lam[-1])
    if isinstance(spec, NonconvexPair):
        return float(lam[spec.i - 1] - max(-lam[spec.j - 1], 0.0))
    if isinstance(spec, LinearDegenerate):
        s = spec.sigma(x)
        return float(np.trace(s.T @ s @ a))
    if isinstance(spec, CoefficientLambdaN):
        return float(spec.a(x)) * float(lam[-1])
    if isinstance(spec, MongeAmpere):
        if lam[0] < -MA_CONE_TOL:
            raise DomainViolationError(
                f"matrix outside the nonnegative cone (lambda_1 = {lam[0]:.3e})"
            )
        return float(np.prod(np.maximum(lam, 0.0)) ** (1.0 / n))
    if isinstance(spec, SupInf):
        return max(min(_ref_operator(m, x, a) for m in row) for row in spec.rows)
    raise AssertionError(spec)


def _ref_hamiltonian(spec, xi):
    if isinstance(spec, PowerNorm):
        return float(spec.b * np.linalg.norm(xi) ** spec.p)
    if isinstance(spec, AnisotropicPower):
        return float(max(float(xi @ spec.A.a @ xi), 0.0) ** (spec.p / 2.0))
    r = float(np.linalg.norm(xi))
    bump = _ref_field(spec.bump, xi) if r < spec.support_radius else 0.0
    return r**spec.p + bump


def _ref_field(field, x):
    # as _field_values: a vectorised field is called on a stack, here of the
    # one point, and a point-wise one on the point.  The two can differ in
    # the last bit: numpy squares an array by x * x but a scalar by C pow
    try:
        vals = np.asarray(field(x[None]), dtype=float)
        if vals.shape == (1,):
            return float(vals[0])
    except (TypeError, ValueError, IndexError):
        pass
    return float(field(x))


def _fields(n):
    """Coefficient fields of each calling convention: constant, point-wise
    only (an x[0] or a whole-array reduction would misread a stack), and
    vectorised."""
    scalars = [
        ScalarField.constant(1.3),
        ScalarField(fn=lambda x: 1.5 + x[0] ** 2, lower=1.5, upper=math.inf),
        ScalarField(fn=lambda x: 1.5 + np.linalg.norm(x), lower=1.5, upper=math.inf),
        ScalarField(fn=lambda x: 1.5 + np.sin(x[..., -1]), lower=0.5, upper=2.5),
    ]
    matrices = [
        MatrixField.constant(np.eye(n) + 0.1),
        MatrixField(
            fn=lambda x: np.eye(n) + np.outer(x, x),
            lambda_min_sts=0.0,
            lambda_max_sts=1.0,
        ),
        MatrixField(
            fn=lambda x: np.eye(n) + x[..., :, None] * x[..., None, :],
            lambda_min_sts=0.0,
            lambda_max_sts=1.0,
        ),
    ]
    return scalars, matrices


def _catalog(n):
    scalars, matrices = _fields(n)
    return (
        [
            WeightedEigenvalues(tuple(0.25 * (i + 1) for i in range(n))),
            LambdaK(1),
            LambdaK(n),
            LambdaK((n + 1) // 2),
            TruncatedLower(1),
            TruncatedLower(n - 1),
            TruncatedUpper(2),
            MinMax(),
            NonconvexPair(1, n),
            NonconvexPair(n, 1),
            SupInf(((LambdaK(1), MinMax()), (LambdaK(n), TruncatedUpper(1)))),
        ]
        + [CoefficientLambdaN(a) for a in scalars]
        + [LinearDegenerate(s) for s in matrices]
    )


@st.composite
def _samples(draw):
    """(x, X): k points and k symmetric matrices (as SymMatrix stores them),
    with k = n among the sizes drawn."""
    n = draw(st.integers(2, 8))
    k = draw(st.sampled_from([1, 2, 3, n, n + 1]))
    entries = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    x = draw(arrays(np.float64, (k, n), elements=entries))
    raw = draw(arrays(np.float64, (k, n, n), elements=entries))
    return x, np.array([SymMatrix(a).a for a in raw])


class TestKernels:
    @given(_samples())
    @settings(max_examples=60, deadline=None)
    def test_operator_stack_matches_per_sample_reference(self, sample):
        x, X = sample
        for spec in _catalog(X.shape[-1]):
            got = _operator_values(spec, x, X)
            ref = [_ref_operator(spec, xi, a) for xi, a in zip(x, X)]
            assert np.array_equal(got, ref), spec
            one = [evaluate_operator(spec, xi, SymMatrix(a)) for xi, a in zip(x, X)]
            assert np.array_equal(got, one), spec

    def test_operator_stack_matches_reference_on_many_samples(self):
        # the rounding of every step (closed-form 2x2 eigenvalues, dot
        # products, traces, powers) shows only over many generic samples
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            scale = 10.0 ** rng.uniform(-1.0, 1.0, (150, 1, 1))
            g = rng.standard_normal((150, n, n)) * scale
            x = rng.uniform(-1.0, 1.0, (150, n))
            for X in (g + np.swapaxes(g, 1, 2), g @ np.swapaxes(g, 1, 2)):
                X = np.array([SymMatrix(a).a for a in X])
                psd = np.all(_ref_eigenvalues(X[0]) >= 0.0)
                for spec in _catalog(n) + ([MongeAmpere()] if psd else []):
                    ref = [_ref_operator(spec, xi, a) for xi, a in zip(x, X)]
                    assert np.array_equal(_operator_values(spec, x, X), ref), spec

    @given(_samples())
    @settings(max_examples=60, deadline=None)
    def test_monge_ampere_matches_reference_and_names_first_violation(self, sample):
        x, X = sample
        psd = X @ X  # symmetric with nonnegative spectrum
        for stack in (psd, X, np.concatenate([psd, X])):
            for spec in (MongeAmpere(), SupInf(((MongeAmpere(),), (LambdaK(1),)))):
                try:
                    ref = [_ref_operator(spec, None, a) for a in stack]
                except DomainViolationError as err:
                    with pytest.raises(DomainViolationError) as got:
                        _operator_values(spec, None, stack)
                    assert str(got.value) == str(err)
                    continue
                assert np.array_equal(_operator_values(spec, None, stack), ref)

    def test_monge_ampere_refusal_message(self):
        X = np.array([np.diag(d) for d in ([1.0, 2.0], [-0.5, 1.0], [-3.0, 1.0])])
        with pytest.raises(
            DomainViolationError,
            match=r"^matrix outside the nonnegative cone \(lambda_1 = -5\.000e-01\)$",
        ):
            _operator_values(MongeAmpere(), None, X)

    @given(
        st.integers(2, 8),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    @example(n=2, k=3, seed=175)  # the vectorised bump's last bit
    def test_hamiltonian_stack_matches_per_sample_reference(self, n, k, seed):
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-2, 2, (k, 1))
        xi[rng.random(k) < 0.3] *= 1e-3  # some inside the bump's support
        g = rng.standard_normal((n, n))
        bump = dict(norm_inf=1.0, dnorm_inf=1.6, support_radius=1.0)
        specs = [
            PowerNorm(1.0, 2.0),
            PowerNorm(0.7, 0.5),
            PowerNorm(2.0, 1.7),
            AnisotropicPower(SymMatrix(g @ g.T), p=1.5),
            AnisotropicPower(SymMatrix(g @ g.T), p=0.5),
            CompactPerturbation(
                p=2.0,
                bump=ScalarField(
                    fn=lambda v: (1.0 - float(np.dot(v, v))) ** 2, lower=0.0, upper=1.0
                ),
                **bump,
            ),
            CompactPerturbation(
                p=3.0,
                bump=ScalarField(
                    fn=lambda v: (1.0 - np.sum(v * v, axis=-1)) ** 2,
                    lower=0.0,
                    upper=1.0,
                ),
                **bump,
            ),
        ]
        for spec in specs:
            got = _hamiltonian_values(spec, xi)
            assert np.array_equal(got, [_ref_hamiltonian(spec, v) for v in xi]), spec
            assert np.array_equal(got, [evaluate_hamiltonian(spec, v) for v in xi])

    def test_square_stack_is_not_read_as_one_point(self):
        # on a 2 x 2 stack a point-wise x[0] returns two numbers, the first
        # row; the field must still be read point by point
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        field = ScalarField(fn=lambda x: 10.0 + x[0], lower=0.0, upper=20.0)
        assert list(_field_values(field, pts)) == [11.0, 13.0]
        vectorised = ScalarField(fn=lambda x: 10.0 + x[..., 0], lower=0.0, upper=20.0)
        assert list(_field_values(vectorised, pts)) == [11.0, 13.0]


# ---------------------------------------------------------------------------
# the one admission of field values: every catalog entry point refuses a
# coefficient or diffusion field that is not finite, changes shape, or gives
# a Sigma^T Sigma of the wrong size, naming the first offending point


def _far(points):
    return points[:, 0] > 0.3


def _recorded(fn, calls):
    # the field's first argument is the whole stack of points it is read at
    def record(x):
        calls.append(np.array(x))
        return fn(x)

    return record


def _bad_fields(calls):
    """(operator, message, the offending point of a stack of points): a
    field that is NaN where x_1 > 0.3, a Sigma whose shape changes there
    (3x2 against 2x2, so that Sigma^T Sigma is 2x2 at every point), and a
    2x3 Sigma, whose Sigma^T Sigma is 3x3 at every point."""
    nan_a = ScalarField(
        fn=_recorded(lambda x: np.where(x[..., 0] > 0.3, np.nan, 2.0), calls),
        lower=1.0,
        upper=3.0,
    )
    nan_sigma = MatrixField(
        fn=_recorded(
            lambda x: np.where(x[..., 0] > 0.3, np.nan, 1.0)[..., None, None]
            * np.eye(2),
            calls,
        ),
        lambda_min_sts=1.0,
        lambda_max_sts=1.0,
    )
    tall = np.vstack([np.eye(2), np.zeros((1, 2))])
    reshaped = MatrixField(
        fn=_recorded(lambda x: tall if x[0] > 0.3 else np.eye(2), calls),
        lambda_min_sts=1.0,
        lambda_max_sts=1.0,
    )
    wide = MatrixField(
        fn=_recorded(lambda x: np.ones(x.shape[:-1] + (2, 3)), calls),
        lambda_min_sts=0.0,
        lambda_max_sts=2.0,
    )

    def changed(points):  # where the shape first differs from the first one
        return points[np.argmax(_far(points) != _far(points)[0])]

    return {
        "nan-coefficient": (
            CoefficientLambdaN(nan_a),
            "coefficient must be finite",
            lambda points: points[np.argmax(_far(points))],
        ),
        "nan-sigma": (
            LinearDegenerate(nan_sigma),
            "diffusion matrix must be finite",
            lambda points: points[np.argmax(_far(points))],
        ),
        "sigma-changes-shape": (
            LinearDegenerate(reshaped),
            "diffusion matrix must have one 2-axis shape",
            changed,
        ),
        "sigma-sts-not-NxN": (
            LinearDegenerate(wide),
            "diffusion matrix must be 2x2",
            lambda points: points[0],
        ),
    }


def _refused(case, call):
    """Run ``call`` on the case's operator; it must raise ``ConfigError``
    with the case's message, naming the offending point of the points that
    the field was first read at."""
    calls = []
    spec, message, offending = _bad_fields(calls)[case]
    with pytest.raises(ConfigError) as err:
        call(spec)
    point = tuple(offending(np.atleast_2d(calls[0])).tolist())
    assert re.fullmatch(
        re.escape(message) + r".* at x = " + re.escape(str(point)), str(err.value)
    ), str(err.value)
    return point


_BAD_CASES = (
    "nan-coefficient",
    "nan-sigma",
    "sigma-changes-shape",
    "sigma-sts-not-NxN",
)


class TestFieldAdmission:
    @pytest.mark.parametrize("case", _BAD_CASES)
    def test_operator_kernel_refuses(self, case):
        x = np.array([[0.0, 0.1], [0.5, -0.2], [0.7, 0.3], [-0.4, 0.9]])
        X = np.array([np.eye(2)] * len(x))
        point = _refused(case, lambda spec: _operator_values(spec, x, X))
        assert point == ((0.0, 0.1) if case == "sigma-sts-not-NxN" else (0.5, -0.2))

    # one point: a shape cannot change there, so that case has nothing to see
    @pytest.mark.parametrize("case", [c for c in _BAD_CASES if "shape" not in c])
    def test_evaluate_operator_refuses(self, case):
        X = SymMatrix(np.eye(2))
        point = _refused(case, lambda spec: evaluate_operator(spec, (0.5, 0.0), X))
        assert point == (0.5, 0.0)

    @pytest.mark.parametrize("case", _BAD_CASES)
    def test_radial_residual_check_refuses(self, case):
        # u = 1 - r^2 on the unit ball, read at x = (r, 0)
        candidate = ClosedFormRadial(
            value=lambda r: 1.0 - np.asarray(r) ** 2,
            du=lambda r: -2.0 * np.asarray(r),
            ddu=lambda r: np.full(np.shape(r), -2.0),
            R=1.0,
        )

        def check(spec):
            problem = VerifyProblem(operator=spec, hamiltonian=None, f=-4.0)
            return residual_check_radial(candidate, problem, (0.2, 0.5, 0.8))

        point = _refused(case, check)
        assert point == ((0.2, 0.0) if case == "sigma-sts-not-NxN" else (0.5, 0.0))

    @pytest.mark.parametrize("case", _BAD_CASES)
    def test_structural_sampler_refuses(self, case):
        params = Params(beta=1.0, b=1.0, p=2.0, M=1.0)
        _refused(
            case,
            lambda spec: check_structural_conditions(
                spec, PowerNorm(1.0, 2.0), params, sample_count=20, seed=3
            ),
        )

    def test_empty_stack_and_finite_fields_pass(self):
        # the bump read at no point (every gradient outside its support)
        bump = ScalarField(
            fn=lambda v: (1.0 - np.sum(v * v, axis=-1)) ** 2, lower=0.0, upper=1.0
        )
        assert _field_values(bump, np.zeros((0, 2))).shape == (0,)
        # a Sigma of 3 rows and 2 columns at every point is admitted
        tall = MatrixField(
            fn=lambda x: np.ones(x.shape[:-1] + (3, 2)),
            lambda_min_sts=0.0,
            lambda_max_sts=6.0,
        )
        x = np.array([[0.0, 0.1], [0.5, -0.2]])
        got = _operator_values(LinearDegenerate(tall), x, np.array([np.eye(2)] * 2))
        assert list(got) == [6.0, 6.0]


# ---------------------------------------------------------------------------
# the sampler against the sample-by-sample loop it replaced, with the same
# draws from the same generator


def _ref_random_sym(rng, n, scale):
    a = rng.uniform(-1.0, 1.0, size=(n, n)) * scale
    return SymMatrix(0.5 * (a + a.T))


def _ref_random_psd(rng, n, scale):
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    d = rng.uniform(0.0, 1.0, size=n) * scale
    return SymMatrix(q @ np.diag(d) @ q.T)


def _ref_structural(op, ham, params, sample_count, seed, n, extended):
    rng = np.random.default_rng(seed)
    on_cone = isinstance(op, MongeAmpere)
    beta = params.beta

    def feval(x, X):
        return _ref_operator(op, np.zeros(n) if x is None else x, X.a)

    worst = {"F1": -math.inf, "deg2": -math.inf, "F2": -math.inf}
    if extended:
        worst["extended_ellipticity"] = -math.inf
    for _ in range(sample_count):
        x = rng.uniform(-1.0, 1.0, size=n)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        ypos = _ref_random_psd(rng, n, scale)
        if on_cone:
            xmat = _ref_random_psd(rng, n, scale) + ypos
        else:
            xmat = _ref_random_sym(rng, n, scale)
        yneg = SymMatrix(-ypos.a)
        diff = feval(x, xmat) - feval(x, xmat - ypos)
        lam_neg = _ref_eigenvalues(yneg.a)
        worst["F1"] = max(worst["F1"], (-diff) - beta * lam_neg[-1])
        draw = _ref_random_psd if on_cone else _ref_random_sym
        base2 = draw(rng, n, scale)
        inc = feval(x, base2 + ypos) - feval(x, base2)
        lam_pos = _ref_eigenvalues(ypos.a)
        worst["deg2"] = max(worst["deg2"], beta * lam_pos[0] - inc)
        if extended:
            z = base2 + ypos if on_cone else base2
            dec = feval(x, z - ypos) - feval(x, z)
            worst["extended_ellipticity"] = max(
                worst["extended_ellipticity"], beta * lam_neg[0] - dec
            )
        fx = feval(x, xmat)
        for s in (0.5, 2.0, 10.0 ** rng.uniform(-1.0, 1.0)):
            err = abs(feval(x, SymMatrix(s * xmat.a)) - s * fx)
            worst["F2"] = max(worst["F2"], err / max(1.0, abs(s * fx)))
    if extended:
        if on_cone:
            dec = feval(None, SymMatrix(np.zeros((n, n)))) - feval(
                None, SymMatrix.identity(n)
            )
        else:
            dec = feval(None, SymMatrix(-np.eye(n))) - feval(
                None, SymMatrix(np.zeros((n, n)))
            )
        worst["extended_ellipticity"] = max(
            worst["extended_ellipticity"], -beta - dec
        )

    nd = ham.A.n if isinstance(ham, AnisotropicPower) else 2
    b, c, p = params.b, params.c, params.p
    h_worst = -math.inf
    if p > 1.0:
        worst_name = "H1"
        for _ in range(sample_count):
            scale = 10.0 ** rng.uniform(-1.5, 1.5)
            xi = rng.standard_normal(nd) * scale
            eta = rng.standard_normal(nd) * 10.0 ** rng.uniform(-1.5, 1.5)
            sig = rng.uniform(1e-3, 1.0 - 1e-3)
            lhs = _ref_hamiltonian(ham, sig * eta + (1.0 - sig) * xi)
            growth = b * float(np.linalg.norm(xi)) ** p + c
            margin = lhs - sig * _ref_hamiltonian(ham, eta) - (1.0 - sig) * growth
            h_worst = max(h_worst, margin, -_ref_hamiltonian(ham, xi) - params.d)
    else:
        worst_name = "H2"
        for _ in range(sample_count):
            scale = 10.0 ** rng.uniform(-1.5, 1.5)
            xi = rng.standard_normal(nd) * scale
            eps = rng.uniform(1e-3, 1.0)
            h = _ref_hamiltonian(ham, xi)
            h_worst = max(
                h_worst,
                -h,
                h - (b * float(np.linalg.norm(xi)) ** p + c),
                eps * h - _ref_hamiltonian(ham, eps * xi),
            )
    worst[worst_name] = h_worst
    return worst


class TestSamplerAgainstLoop:
    @pytest.mark.parametrize(
        "op,n,ham",
        [
            (WeightedEigenvalues((0.5, 1.5, 1.0)), 3, PowerNorm(1.0, 2.0)),
            (LambdaK(2), 2, PowerNorm(1.0, 0.5)),
            (TruncatedUpper(2), 4, PowerNorm(1.0, 2.0)),
            (MinMax(), 2, AnisotropicPower(SymMatrix([[0.8, 0.2], [0.2, 0.5]]), 2.0)),
            (NonconvexPair(1, 2), 2, PowerNorm(1.0, 2.0)),
            (CoefficientLambdaN(_fields(2)[0][1]), 2, PowerNorm(1.0, 2.0)),
            (LinearDegenerate(_fields(3)[1][1]), 3, PowerNorm(1.0, 0.5)),
            (MongeAmpere(), 3, PowerNorm(1.0, 2.0)),
            (MongeAmpere(), 2, PowerNorm(1.0, 0.5)),
        ],
    )
    def test_same_verdicts_and_margins(self, op, n, ham):
        for seed in (0, 1, 7, 123):
            params = Params(
                beta=ellipticity_constant(op) * (1.0 if seed % 2 else 1.3),
                b=1.0,
                p=ham.p,
            )
            extended = seed % 3 == 1
            rep = check_structural_conditions(
                op, ham, params, sample_count=40, seed=seed, n=n,
                extended_ellipticity=extended,
            )
            ref = _ref_structural(op, ham, params, 40, seed, n, extended)
            assert [r.name for r in rep.results] == list(ref)
            for r in rep.results:
                m = ref[r.name]
                assert r.passed == (m <= PASS_MARGIN), r.name
                assert abs(r.worst_margin - m) <= 1e-15 * max(1.0, abs(m)), r.name
