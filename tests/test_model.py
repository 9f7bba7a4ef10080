import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degelliptic.errors import ConfigError, DomainViolationError, NumericError
from degelliptic.model import (
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
    check_structural_conditions,
    compact_perturbation_constant,
    eigenvalues_sorted,
    ellipticity_constant,
    evaluate_hamiltonian,
    evaluate_operator,
)


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
