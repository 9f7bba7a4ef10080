import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from degelliptic.errors import (
    BranchError,
    ConfigError,
    DegellipticError,
    DomainViolationError,
    NumericError,
    ThresholdError,
)
from degelliptic import radial as radial_module
from degelliptic.model import Params
from degelliptic.radial import (
    ENDPOINT_RTOL,
    BoundedOrBlowup,
    ProfileBranch,
    RadialProfile,
    c1_bound,
    classify_blowup,
    critical_s1,
    dphi_ds,
    explicit_sublinear_form,
    explicit_sublinear_solution,
    first_zero,
    phi,
    profile_to_csv,
    radial_profile,
    _dphi_raw,
    _J,
    _model_start,
    _PLATEAU_EPS,
    _newton_root,
    _phi_raw,
    _root_tolerance,
    _second_branch,
    _validate_root,
    check_threshold,
    rbar,
    second_zero,
)

MODEL = Params(beta=2.0, b=1.0, p=2.0, M=1.0)  # threshold radius exactly 1
SUB = Params(beta=1.0, b=1.0, p=0.5, M=1.0)

# closed-form values of the model-case solution, frozen from high precision
U_HALF = 0.24221468741956724756  # u(1/2) on the unit ball
U_ZERO = 1.0 - math.log(2.0)


class TestPhi:
    def test_at_zero_equals_m(self):
        for r in (0.1, 1.0, 7.3):
            assert phi(r, 0.0, MODEL) == MODEL.M

    def test_model_roots_annihilate(self):
        assert phi(0.5, 2.0 - math.sqrt(3.0), MODEL) == pytest.approx(0.0, abs=1e-14)
        assert phi(0.5, 2.0 + math.sqrt(3.0), MODEL) == pytest.approx(0.0, abs=1e-14)

    def test_domain_errors(self):
        for fn in (phi, dphi_ds):
            for r, s in ((0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)):
                with pytest.raises(DomainViolationError):
                    fn(r, s, MODEL)

    def test_vectorized(self):
        r = np.array([0.25, 0.5, 1.0])
        out = phi(r, 1.0, MODEL)
        assert out.shape == (3,)
        assert out[2] == phi(1.0, 1.0, MODEL)


class TestCriticalS1:
    def test_model(self):
        assert critical_s1(1.0, MODEL) == 1.0
        assert critical_s1(0.25, MODEL) == pytest.approx(4.0)

    def test_sublinear(self):
        assert critical_s1(1.0, SUB) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "params",
        [MODEL, SUB, Params(beta=0.7, b=2.3, p=3.1, M=0.4), Params(beta=1.5, b=0.5, p=0.8)],
    )
    def test_stationary(self, params):
        for r in (0.2, 1.0, 3.7):
            s1 = critical_s1(r, params)
            scale = params.beta / r
            assert abs(dphi_ds(r, s1, params)) <= 1e-12 * scale


class TestRbar:
    def test_model_exact(self):
        assert rbar(MODEL) == 1.0

    def test_reference_value(self):
        # beta=1, b=1, p=3, M=1 -> 2^(2/3)/3, correct to the last bit shown
        got = rbar(Params(beta=1.0, b=1.0, p=3.0, M=1.0))
        assert got == pytest.approx(0.52913368398939982492, abs=2e-16)
        assert f"{got:#.15g}" == "0.529133683989400"

    def test_m_zero_is_infinite(self):
        assert rbar(Params(beta=2.0, b=1.0, p=2.0, M=0.0)) == math.inf

    def test_sublinear_rejected(self):
        with pytest.raises(BranchError):
            rbar(SUB)


class TestFirstZero:
    def test_model_value(self):
        assert first_zero(0.5, MODEL) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-13)

    def test_golden_ratio(self):
        assert first_zero(1.0, SUB) == pytest.approx(
            (3.0 + math.sqrt(5.0)) / 2.0, abs=1e-10
        )

    def test_matches_closed_form_on_grid(self):
        r = np.linspace(0.01, 1.0, 500)
        got = first_zero(r, MODEL)
        ref = 1.0 / r - np.sqrt(1.0 / r**2 - 1.0)
        assert np.max(np.abs(got - ref)) <= 1e-10

    def test_m_zero_superlinear_vanishes(self):
        p = Params(beta=2.0, b=1.0, p=2.0, M=0.0)
        assert first_zero(0.3, p) == 0.0
        assert np.all(first_zero(np.array([0.1, 5.0]), p) == 0.0)

    def test_endpoint_returns_critical_point(self):
        assert first_zero(1.0, MODEL) == critical_s1(1.0, MODEL)

    def test_beyond_threshold(self):
        with pytest.raises(ThresholdError) as exc:
            first_zero(1.01, MODEL)
        assert exc.value.gap > 0.0
        assert exc.value.radius == pytest.approx(1.01)

    def test_array_with_bad_radius_raises(self):
        with pytest.raises(ThresholdError):
            first_zero(np.array([0.5, 1.2]), MODEL)
        # the refusal names the radius past the threshold, not one where
        # s1 overflows and the gap is NaN
        params = Params(beta=2.0, b=1.0, p=1.005, M=1.0)
        with pytest.raises(ThresholdError) as exc:
            first_zero(np.array([1e-6, 1.5 * rbar(params)]), params)
        assert exc.value.radius == 1.5 * rbar(params)
        assert exc.value.gap > 0.0

    def test_below_critical_point_superlinear(self):
        for r in (0.1, 0.5, 0.9):
            assert first_zero(r, MODEL) <= critical_s1(r, MODEL)

    def test_above_critical_point_sublinear(self):
        for r in (0.1, 1.0, 10.0):
            assert first_zero(r, SUB) > critical_s1(r, SUB)

    def test_sublinear_m_zero(self):
        p = Params(beta=1.0, b=1.0, p=0.5, M=0.0)
        # phi = -s/r + sqrt(s) = 0 at s = r^2
        assert first_zero(2.0, p) == pytest.approx(4.0, abs=1e-12)


class TestSecondZero:
    def test_model_value(self):
        assert second_zero(0.5, MODEL) == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-13)

    def test_matches_closed_form_on_grid(self):
        r = np.linspace(0.001, 1.0, 500)
        got = second_zero(r, MODEL)
        ref = 1.0 / r + np.sqrt(np.maximum(1.0 / r**2 - 1.0, 0.0))
        assert np.max(np.abs(got - ref)) <= 1e-10

    def test_m_zero_exact(self):
        p = Params(beta=3.0, b=2.0, p=3.0, M=0.0)
        assert second_zero(0.5, p) == pytest.approx((3.0 / 1.0) ** 0.5)

    def test_endpoint(self):
        assert second_zero(1.0, MODEL) == critical_s1(1.0, MODEL)

    def test_beyond_threshold(self):
        with pytest.raises(ThresholdError):
            second_zero(1.5, MODEL)

    def test_sublinear_rejected(self):
        with pytest.raises(BranchError):
            second_zero(0.5, SUB)

    def test_p_above_two_bracket(self):
        p = Params(beta=1.0, b=1.0, p=3.0, M=1.0)
        r = 0.9 * rbar(p)
        s = second_zero(r, p)
        s1 = critical_s1(r, p)
        assert s1 <= s <= p.p ** (1.0 / (p.p - 1.0)) * s1
        assert abs(phi(r, s, p)) <= 1e-12 * max(1.0, p.beta * s / r)

    def test_overflowed_root_raises(self):
        # s1 overflows, so the root is inf and its residual NaN; a NaN
        # residual must not pass the tolerance check
        with pytest.raises(NumericError, match="not finite") as err:
            second_zero(1.938e-3, Params(beta=2.0, b=1.0, p=1.005, M=1.0))
        assert err.value.diagnostics["root"] == math.inf


class TestRootBracketing:
    @given(
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
        st.floats(1.2, 3.5),
        st.floats(0.2, 2.0),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_ordering_and_residuals(self, beta, b, p, M, frac):
        params = Params(beta=beta, b=b, p=p, M=M)
        r = frac * rbar(params)
        s0 = first_zero(r, params)
        s1 = critical_s1(r, params)
        s2 = second_zero(r, params)
        assert s0 <= s1 * (1.0 + 1e-12)
        assert s2 >= s1 * (1.0 - 1e-12)
        for s in (s0, s2):
            scale = max(1.0, beta * s / r, b * s**p)
            assert abs(phi(r, s, params)) <= 1e-12 * scale

    @given(st.floats(0.75, 0.98), st.floats(-6.0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_sublinear_bracket_near_p_one(self, p, log_r):
        # the critical point (pbr/beta)^(1/(1-p)) collapses to ~1e-120 here,
        # far below the root ~ Mr/beta; the bracket must not start from it
        params = Params(beta=1.0, b=1.0, p=p, M=1.0)
        r = 10.0**log_r
        s = first_zero(r, params)
        scale = max(1.0, s / r, s**p)
        assert abs(phi(r, s, params)) <= 1e-12 * scale


_COEFFS = st.floats(0.3, 3.0)
# radius over the threshold: log-spread down to 1e-8, the last double just
# below it, and the threshold itself (the double root s1)
_FRACTIONS = st.one_of(
    st.floats(-8.0, 0.0).map(lambda e: (1.0 - 1e-13) * 10.0**e),
    st.sampled_from([1.0 - 1e-13, 1.0]),
)


def _s1(r, params):
    # as the root finders form it: numpy's array power can differ from the
    # scalar one in the last bit
    with np.errstate(over="ignore"):
        return critical_s1(np.array([r]), params)[0]


def _assert_root(r, s, params):
    residual = abs(phi(r, s, params))
    if s == _s1(r, params):  # the threshold's double root, exact by fiat
        assert residual <= ENDPOINT_RTOL * (1.0 + params.M)
    else:
        assert residual <= _root_tolerance(r, s, params)


def _superlinear_roots(params, frac):
    """Both roots at frac * rbar, checked for residual and ordering."""
    r = frac * rbar(params)
    s1 = _s1(r, params)
    s_first = first_zero(r, params)
    assert s_first <= s1
    _assert_root(r, s_first, params)
    assume(s1 < 1e250)  # beyond this the second zero overflows
    s_second = second_zero(r, params)
    assert s1 <= s_second
    _assert_root(r, s_second, params)
    return r, s_first, s_second


class TestRootProperties:
    # s1 overflows for p near 1 at small radii (the first zero stays finite).
    # Below p - 1 ~ 1e-5 the gap phi(rbar, s1) computed at the formula's
    # rbar grows like eps / (p - 1) and leaves the endpoint tolerance.
    @given(_COEFFS, _COEFFS, st.floats(1.0 + 1e-5, 1.2), _COEFFS, _FRACTIONS)
    @settings(max_examples=150, deadline=None)
    def test_superlinear_near_one(self, beta, b, p, M, frac):
        _superlinear_roots(Params(beta=beta, b=b, p=p, M=M), frac)

    @given(_COEFFS, _COEFFS, st.floats(1.8, 2.2), _COEFFS, _FRACTIONS)
    @settings(max_examples=150, deadline=None)
    def test_superlinear_around_two(self, beta, b, p, M, frac):
        _superlinear_roots(Params(beta=beta, b=b, p=p, M=M), frac)

    @given(_COEFFS, _COEFFS, _COEFFS, st.floats(-8.0, 0.0))
    @settings(max_examples=150, deadline=None)
    def test_quadratic_formula(self, beta, b, M, log_frac):
        # away from the threshold, where a residual of eps moves the double
        # root by sqrt(eps): 1 - frac >= 1e-6 keeps the conditioning ~1e-13
        params = Params(beta=beta, b=b, p=2.0, M=M)
        frac = (1.0 - 1e-6) * 10.0**log_frac
        r, s_first, s_second = _superlinear_roots(params, frac)
        k = beta / r
        big = k + math.sqrt(k * k - 4.0 * b * M)
        assert s_second == pytest.approx(big / (2.0 * b), rel=1e-12)
        assert s_first == pytest.approx(2.0 * M / big, rel=1e-12)

    @given(_COEFFS, _COEFFS, st.floats(0.2, 0.9), _COEFFS, st.floats(-8.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_sublinear(self, beta, b, p, M, log_r):
        params = Params(beta=beta, b=b, p=p, M=M)
        r = 10.0**log_r
        s = first_zero(r, params)
        assert s > critical_s1(r, params)
        _assert_root(r, s, params)


@pytest.fixture(scope="module")
def first_profile():
    return radial_profile(
        ProfileBranch.FIRST_ZERO_SUPERLINEAR, 1.0, MODEL,
        node_count=1024, include_radii=[0.5],
    )


@pytest.fixture(scope="module")
def second_profile():
    return radial_profile(
        ProfileBranch.SECOND_ZERO_SUPERLINEAR, 1.0, MODEL,
        node_count=512, r_min=1e-6,
    )


# one profile per branch, each off its threshold so u'' is finite on (0, R]
_BRANCH_PROFILES = {
    "FirstZeroSuperlinear": (MODEL, 0.9),
    "SecondZeroSuperlinear": (MODEL, 0.9),
    "FirstZeroSublinear": (SUB, 1.0),
    "ZeroM": (Params(beta=2.0, b=1.0, p=2.0, M=0.0), 1.0),
}


class TestProfileEvaluation:
    # value, du and ddu evaluate the branch itself; on the table's own nodes
    # they must reproduce the table
    @pytest.fixture(scope="class", params=list(_BRANCH_PROFILES))
    def prof(self, request):
        params, R = _BRANCH_PROFILES[request.param]
        return radial_profile(request.param, R, params, node_count=256)

    def test_value_matches_table(self, prof):
        u = prof.value(prof.r_grid)
        scale = np.max(np.abs(prof.u_values))
        assert np.max(np.abs(u - prof.u_values)) <= 1e-15 * scale

    def test_du_is_minus_s(self, prof):
        assert np.array_equal(prof.du(prof.r_grid), -prof.s_values)

    def test_ddu_matches_centered_difference(self, prof):
        r = prof.r_grid[(prof.r_grid > 0.05 * prof.R) & (prof.r_grid < 0.95 * prof.R)]
        h = 1e-5 * r
        fd = (prof.du(r + h) - prof.du(r - h)) / (2.0 * h)
        ddu = prof.ddu(r)
        assert np.max(np.abs(ddu - fd)) <= 1e-7 * np.max(np.abs(ddu))

    def test_value_clamps_to_the_table(self, prof):
        # first-zero branches extend to the center, where value is u(0+)
        # exactly; second-zero ones diverge there and stop at the table
        lo, R = prof.r_grid[0], prof.R
        if _second_branch(prof.branch, prof.params):
            assert np.array_equal(prof.value([0.5 * lo, 2.0 * R]), prof.value([lo, R]))
        else:
            assert np.array_equal(prof.value([-1.0, 2.0 * R]), prof.value([0.0, R]))
            assert float(prof.value(0.0)) == prof.u_at_zero
            assert float(prof.value(0.5 * lo)) != float(prof.value(lo))


@given(
    _COEFFS, _COEFFS, st.floats(1.0 + 1e-3, 4.0), _COEFFS, st.floats(-3.0, 3.0)
)
@settings(max_examples=200, deadline=None)
def test_second_zero_start_is_m(beta, b, p, M, log_s1):
    # the second zero starts at t s1 with t = p^(1/(p-1)); there t^p / p = t,
    # so phi = M and Newton descends onto the root from above
    params = Params(beta=beta, b=b, p=p, M=M)
    r = beta / (p * b * (10.0**log_s1) ** (p - 1.0))
    s = p ** (1.0 / (p - 1.0)) * critical_s1(r, params)
    scale = max(beta * s / r, b * s**p, M)
    assert abs(phi(r, s, params) - M) <= 32.0 * np.finfo(float).eps * scale


class TestRadialProfileFirstZero:
    @pytest.fixture
    def prof(self, first_profile):
        return first_profile

    def test_u_values(self, prof):
        assert float(prof.value(0.5)) == pytest.approx(U_HALF, abs=1e-9)
        assert prof.u_at_zero == pytest.approx(U_ZERO, abs=1e-9)
        assert prof.u_values[-1] == 0.0
        assert prof.at_threshold

    def test_include_radii_exact_node(self, prof):
        assert 0.5 in prof.r_grid

    def test_monotonicities(self, prof):
        assert np.all(np.diff(prof.s_values) >= -1e-12)
        assert np.all(np.diff(prof.u_values) <= 1e-15)
        # u'(r)/r = -(M + b s^p)/beta must be nonincreasing in r
        v = -(MODEL.M + MODEL.b * prof.s_values**MODEL.p) / MODEL.beta
        assert np.all(np.diff(v) <= 1e-12)

    def test_residual_invariant(self, prof):
        assert np.max(np.abs(prof.residuals)) <= 1e-9 * (1.0 + MODEL.M)

    def test_concavity_ordering(self, prof):
        # u'' <= u'/r <= 0 in discrete form: slope of s >= s/r on segments
        r, s = prof.r_grid, prof.s_values
        slope = np.diff(s) / np.diff(r)
        assert np.all(slope >= s[:-1] / r[1:] - 1e-9)
        assert np.all(s >= 0.0)

    def test_shift_rule(self):
        small = radial_profile(
            ProfileBranch.FIRST_ZERO_SUPERLINEAR, 0.5, MODEL, node_count=256
        )
        assert small.u_at_zero == pytest.approx(U_ZERO - U_HALF, abs=1e-9)
        assert not small.at_threshold

    def test_immutable(self, prof):
        with pytest.raises(ValueError):
            prof.u_values[0] = 3.0

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            radial_profile(ProfileBranch.FIRST_ZERO_SUPERLINEAR, 1.0, MODEL, node_count=32)
        with pytest.raises(ThresholdError):
            radial_profile(ProfileBranch.FIRST_ZERO_SUPERLINEAR, 1.1, MODEL)
        with pytest.raises(BranchError):
            radial_profile(ProfileBranch.FIRST_ZERO_SUPERLINEAR, 1.0, SUB)
        with pytest.raises(BranchError):
            radial_profile(ProfileBranch.FIRST_ZERO_SUBLINEAR, 1.0, MODEL)
        with pytest.raises(ConfigError):
            radial_profile(
                ProfileBranch.FIRST_ZERO_SUPERLINEAR, 1.0, MODEL,
                include_radii=[1.5],
            )

    @pytest.mark.parametrize(
        "branch", ["FirstZeroSuperlinear", "SecondZeroSuperlinear"]
    )
    def test_nan_include_radius_is_a_config_error(self, branch):
        # a NaN compares false in the range check; it once reached the
        # profile and surfaced as an overflow (NumericError)
        with pytest.raises(ConfigError, match=r"include_radii must lie in \(0, R\]"):
            radial_profile(branch, 1.0, MODEL, include_radii=(0.5, math.nan))

    def test_branch_parse(self):
        assert ProfileBranch.parse("FirstZeroSuperlinear") is (
            ProfileBranch.FIRST_ZERO_SUPERLINEAR
        )
        with pytest.raises(ConfigError):
            ProfileBranch.parse("nope")

    def test_sublinear_profile(self):
        prof = radial_profile(ProfileBranch.FIRST_ZERO_SUBLINEAR, 1.0, SUB, node_count=256)
        assert np.all(np.diff(prof.s_values) >= -1e-12)
        assert prof.u_at_zero <= c1_bound(SUB, 1.0)
        # u'(r)/r nonincreasing holds sublinearly too
        v = -(SUB.M + SUB.b * prof.s_values**SUB.p) / SUB.beta
        assert np.all(np.diff(v) <= 1e-12)


class TestRadialProfileSecondZero:
    @pytest.fixture
    def prof(self, second_profile):
        return second_profile

    def test_monotonicities(self, prof):
        assert np.all(np.diff(prof.s_values) <= 1e-9)
        assert np.all(np.diff(prof.u_values) <= 0.0)
        v = -(MODEL.M + MODEL.b * prof.s_values**MODEL.p) / MODEL.beta
        assert np.all(np.diff(v) >= -1e-9)

    def test_divergent_center(self, prof):
        assert prof.u_at_zero == math.inf
        assert prof.r_grid[0] == 1e-6

    def test_convexity_ordering(self, prof):
        # reverse ordering u'' >= u'/r: slope of s <= s/r on segments
        r, s = prof.r_grid, prof.s_values
        slope = np.diff(s) / np.diff(r)
        assert np.all(slope <= s[:-1] / r[:-1] + 1e-9)

    def test_blowup_steps(self):
        prof = radial_profile(
            ProfileBranch.SECOND_ZERO_SUPERLINEAR, 1.0, MODEL,
            node_count=512, include_radii=[10.0**-k for k in range(1, 8)],
        )
        u = [float(prof.value(10.0**-k)) for k in range(1, 8)]
        # u2 = -2 log r - sqrt(1-r^2) + log(1+sqrt(1-r^2)): one decade adds
        # about 2 log 10
        for a, b in zip(u, u[1:]):
            assert b > a + 0.5
        assert u[0] == pytest.approx(4.300820502013807, abs=1e-9)

    def test_bounded_center_p3(self):
        params = Params(beta=1.0, b=1.0, p=3.0, M=1.0)
        prof = radial_profile(
            ProfileBranch.SECOND_ZERO_SUPERLINEAR, rbar(params), params,
            node_count=256, r_min=1e-8,
        )
        bound = classify_blowup(params).bound
        assert prof.u_at_zero < bound
        assert math.isfinite(prof.u_at_zero)

    def test_overflowing_branch_raises(self):
        # p -> 1: s2 ~ (beta / (b r))^(1/(p-1)) leaves double range at r_min
        params = Params(beta=1.0, b=1.0, p=1.005, M=1.0)
        with pytest.raises(NumericError):
            radial_profile(
                ProfileBranch.SECOND_ZERO_SUPERLINEAR, 0.5 * rbar(params), params,
                node_count=128,
            )

    def test_model_closed_form_down_to_1e_6(self):
        # u2 = log(1 + w) - 2 log r - w, w = sqrt(1 - r^2); at r = 1e-6 the
        # antiderivative argument b s^2 / M reaches 4e12
        prof = radial_profile(
            ProfileBranch.SECOND_ZERO_SUPERLINEAR, 1.0, MODEL,
            node_count=512, r_min=1e-6,
        )
        r = prof.r_grid
        w = np.sqrt(1.0 - r**2)
        ref = np.log1p(w) - 2.0 * np.log(r) - w
        assert r[0] == 1e-6
        assert np.max(np.abs(prof.u_values - ref)) <= 1e-11


def _decimal(fn):
    # elementary closed forms that cancel for small X, summed at 50 digits
    def ref(X):
        with localcontext() as ctx:
            ctx.prec = 50
            return np.array([float(fn(Decimal(float(x)))) for x in X])

    return ref


class TestAntiderivative:
    """J(X) = int_0^X x^(2/p - 1) / (1 + x) dx against elementary forms."""

    @pytest.mark.parametrize(
        "p, closed_form",
        [
            (4.0, lambda X: 2.0 * np.arctan(np.sqrt(X))),
            (2.0, np.log1p),
            (2.0 / 3.0, _decimal(lambda X: X * X / 2 - X + (1 + X).ln())),
            (0.5, _decimal(lambda X: X**3 / 3 - X * X / 2 + X - (1 + X).ln())),
        ],
        ids=["p=4", "p=2", "p=2/3", "p=1/2"],
    )
    def test_elementary_closed_forms(self, p, closed_form):
        X = np.logspace(-6, 15, 85)
        ref = closed_form(X)
        assert np.max(np.abs(_J(X, p) - ref) / ref) <= 1e-13

    def test_continuous_across_p_two(self):
        X = np.logspace(-6, 15, 43)
        ref = np.log1p(X)
        lo, hi = _J(X, 2.0 - 1e-9), _J(X, 2.0 + 1e-9)
        # to first order in p - 2 the two sides move apart by ~1e-9 ln X
        assert np.max(np.abs(lo - ref) / ref) <= 1e-7
        assert np.max(np.abs(hi - ref) / ref) <= 1e-7
        assert np.max(np.abs(0.5 * (lo + hi) - ref) / ref) <= 1e-12


# ---------------------------------------------------------------------------
# the one-pass radial kernels against the code they replaced, kept here as
# the reference: the J series over X clipped to 1 (and 1.0 appended for
# J_q(1)), and Newton started from the far end of each branch interval


def _ref_j_series(X, a):
    X = np.asarray(X, dtype=float)
    w = X / (1.0 + X)
    term = np.ones_like(w)
    total = np.ones_like(w)
    for n in range(1, 64):
        term = term * (n / (n + a)) * w
        total = total + term
        if np.all(term <= 1e-17 * total):
            break
    return X**a / (a * (1.0 + X)) * total


def _ref_J(X, p):
    a = 2.0 / p
    X = np.asarray(X, dtype=float)
    out = np.array(_ref_j_series(np.minimum(X, 1.0), a))
    big = X > 1.0
    if np.any(big):
        Xb = X[big]
        L = np.log(Xb)
        m = math.floor(a + 0.5)
        q = ((m + 1) * p - 2.0) / p
        jq = _ref_j_series(np.append(1.0 / Xb, 1.0), q)
        tail = (-1.0) ** m * (jq[-1] - jq[:-1])
        for k in range(m):
            e = (2.0 - (k + 1) * p) / p
            if e == 0.0:
                grow = L
            else:
                eL = e * L
                grow = np.where(np.abs(eL) < 1.0, np.expm1(eL), Xb**e - 1.0) / e
            tail = tail + (-1.0) ** k * grow
        out[big] += tail
    return out


def _far_start(r, params, second):
    """The branch interval's far end, (start, Newton direction)."""
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = critical_s1(r, params)
        if second:
            return params.p ** (1.0 / (params.p - 1.0)) * s1, -1.0
    return np.zeros_like(r), 1.0


def _ref_zero(r, params, second):
    """The superlinear roots (M > 0) as found from the far-end start."""
    at_end = check_threshold(params, r)
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = critical_s1(r, params)
        start, direction = _far_start(r, params, second)
        s, f = _newton_root(r, start, params, ~at_end, direction)
    s = np.where(at_end, s1, s)
    _validate_root(r, s, f, at_end, params)
    return s


def _newton_passes(r, s, params, live, direction):
    """``_newton_root`` with a count of the passes each entry takes."""
    s, passes = s.copy(), np.zeros(s.shape, dtype=int)
    idx = np.flatnonzero(live)
    for _ in range(200):
        if idx.size == 0:
            break
        passes[idx] += 1
        ri, si = r[idx], s[idx]
        f = _phi_raw(ri, si, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = si - f / _dphi_raw(ri, si, params)
        largest = np.maximum(params.beta * si / ri, params.b * si**params.p)
        moved = np.isfinite(step) & (direction * (step - si) > 0.0)
        moved &= np.abs(f) > _PLATEAU_EPS * np.maximum(largest, params.M)
        s[idx[moved]] = step[moved]
        idx = idx[moved]
    return s, passes


class TestOnePassKernels:
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                st.floats(1.0, 1e12),
                st.sampled_from([0.0, 1.0, 1e-300, 1e15]),
            ),
            max_size=40,
        ),
        st.floats(0.2, 6.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_j_is_bit_identical_to_the_clipped_sums(self, X, p):
        X = np.array(X, dtype=float)
        assert np.array_equal(_J(X, p), _ref_J(X, p))
        for x in X[:3]:  # a single point
            assert _J(x, p) == _ref_J(x, p)

    @given(_COEFFS, _COEFFS, st.floats(1.0 + 1e-5, 6.0), _COEFFS)
    @settings(max_examples=150, deadline=None)
    @example(beta=2.0, b=1.0, p=2.0, M=1.0)
    @example(beta=2.0, b=1.0, p=1.005, M=1.0)  # s1 overflows at small radii
    def test_model_start_against_far_start(self, beta, b, p, M):
        # radii across (0, rbar], down to 1e-12 below rbar and rbar itself
        params = Params(beta=beta, b=b, p=p, M=M)
        R = rbar(params)
        r = R * np.concatenate(
            [np.linspace(0.02, 1.0, 50), 1.0 - 10.0 ** -np.arange(1.0, 13.0)]
        )
        for second in (False, True):
            zero = second_zero if second else first_zero
            try:
                ref = _ref_zero(r, params, second)
            except DegellipticError as err:
                # same class and message, p near 1 where s1 overflows included
                with pytest.raises(type(err)) as got:
                    zero(r, params)
                assert str(got.value) == str(err)
                assert got.value.diagnostics == err.diagnostics
                continue
            s = zero(r, params)
            at_end = check_threshold(params, r)
            residual = np.where(at_end, 0.0, _phi_raw(r, s, params))
            assert np.all(np.abs(residual) <= _root_tolerance(r, s, params))
            assert np.array_equal(s[at_end], ref[at_end])
            # never more passes than from the far end; on p = 2, where the
            # model is exact, not at any radius
            far, direction = _far_start(r, params, second)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                s1 = critical_s1(r, params)
                start = _model_start(r, s1, far, params)
            got, n_new = _newton_passes(r, start, params, ~at_end, direction)
            _, n_old = _newton_passes(r, far, params, ~at_end, direction)
            assert np.array_equal(np.where(at_end, s1, got), s)
            assert n_new.max() <= n_old.max()
            if p == 2.0:
                assert np.all(n_new <= n_old)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_model_start_ends_the_double_root_crawl(self, p):
        # next to rbar, Newton from the far end converges only linearly
        params = Params(beta=2.0, b=1.0, p=p, M=1.0)
        r = rbar(params) * (1.0 - 10.0 ** -np.arange(2.0, 11.0))
        for second in (False, True):
            far, direction = _far_start(r, params, second)
            s1 = critical_s1(r, params)
            live = np.ones(r.shape, dtype=bool)
            start = _model_start(r, s1, far, params)
            _, n_new = _newton_passes(r, start, params, live, direction)
            _, n_old = _newton_passes(r, far, params, live, direction)
            assert n_old.min() >= 8 and n_new.max() <= 3

    def test_newton_freezes_on_the_rounding_plateau(self, monkeypatch):
        # from s = 0 (its model start) this first zero used to take 10
        # passes, the last four at |phi| <= 1.4e-15 against its largest term
        # beta s / r = 9.15; three of them moved s by 6, 2 and 2 ulps, to
        # 2.5371193195740913
        params = Params(beta=2.30, b=2.92, p=1.037, M=1.48)
        r = np.array([0.922 * rbar(params)])
        passes = []

        def counted(ri, si, prm):
            passes.append(si.size)
            return _dphi_raw(ri, si, prm)

        monkeypatch.setattr(radial_module, "_dphi_raw", counted)
        s, f = _newton_root(r, np.zeros(1), params, np.ones(1, dtype=bool), 1.0)
        assert len(passes) == 7
        assert s[0] == 2.537119319574087
        assert abs(f[0]) <= 4 * np.finfo(float).eps * params.beta * s[0] / r[0]
        monkeypatch.undo()
        assert first_zero(float(r[0]), params) == s[0]


class TestZeroM:
    def test_log_family(self):
        params = Params(beta=2.0, b=1.0, p=2.0, M=0.0)
        prof = radial_profile(ProfileBranch.ZERO_M, 1.0, params, node_count=128)
        assert np.max(np.abs(prof.u_values - 2.0 * np.log(1.0 / prof.r_grid))) < 1e-12
        assert prof.u_at_zero == math.inf
        assert np.max(np.abs(prof.s_values - 2.0 / prof.r_grid)) < 1e-9 * np.max(prof.s_values)

    def test_power_family_p3(self):
        params = Params(beta=1.0, b=1.0, p=3.0, M=0.0)
        prof = radial_profile(ProfileBranch.ZERO_M, 1.0, params, node_count=128)
        ref = 2.0 * (1.0 - np.sqrt(prof.r_grid))
        assert np.max(np.abs(prof.u_values - ref)) < 1e-12
        assert prof.u_at_zero == pytest.approx(2.0)

    def test_sublinear_family(self):
        params = Params(beta=1.0, b=1.0, p=0.5, M=0.0)
        prof = radial_profile(ProfileBranch.ZERO_M, 1.0, params, node_count=128)
        # s = r^2, u = (1 - r^3)/3
        assert np.max(np.abs(prof.u_values - (1.0 - prof.r_grid**3) / 3.0)) < 1e-10
        assert prof.u_at_zero == pytest.approx(1.0 / 3.0)
        # a first-zero branch: value reaches the center
        assert float(prof.value(0.0)) == prof.u_at_zero

    def test_requires_m_zero(self):
        with pytest.raises(BranchError):
            radial_profile(ProfileBranch.ZERO_M, 1.0, MODEL)

    def test_second_zero_request_with_m_zero_uses_closed_form(self):
        params = Params(beta=2.0, b=1.0, p=2.0, M=0.0)
        prof = radial_profile(
            ProfileBranch.SECOND_ZERO_SUPERLINEAR, 1.0, params, node_count=128
        )
        assert prof.branch is ProfileBranch.SECOND_ZERO_SUPERLINEAR
        assert np.max(np.abs(prof.u_values - 2.0 * np.log(1.0 / prof.r_grid))) < 1e-12

    @given(
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.one_of(st.floats(1.1, 4.0), st.floats(0.1, 0.9)),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    @example(1.0, 1.0, 2.5, 1.2)
    def test_every_profile_vanishes_at_r(self, beta, b, p, R):
        # R^g and r^g come from one array power, so u(R) is exactly 0 on
        # every branch, not just within rounding
        params = Params(beta=beta, b=b, p=p, M=0.0)
        prof = radial_profile(ProfileBranch.ZERO_M, R, params)
        assert prof.u_values[-1] == 0.0
        assert prof.value(R) == 0.0
        assert np.all(np.diff(prof.u_values) <= 0.0)


@pytest.mark.filterwarnings("error")
class TestOverflowIsReported:
    """Near p = 1 (and for tiny p) the closed forms overflow; each case
    raises a ``DegellipticError`` or returns, with no warning on the way."""

    def test_m_zero_second_zero(self):
        params = Params(beta=24.07, b=9.03, p=1.001508, M=0.0)
        with pytest.raises(NumericError, match="not finite"):
            second_zero(np.array([0.5, 2.1]), params)

    def test_m_zero_profile(self):
        params = Params(beta=2.0, b=1.0, p=1.0001, M=0.0)
        with pytest.raises(NumericError):
            radial_profile(ProfileBranch.ZERO_M, 0.5, params)

    @pytest.mark.parametrize("number", [float, np.float64])
    def test_c1_bound_degenerates(self, number):
        params = Params(
            beta=number(14.68231850811822),
            b=number(16.43781829443773),
            p=number(0.998359016715867),
            M=number(15.719050959292076),
        )
        assert c1_bound(params, number(9.524594548037758)) == math.inf


class TestThresholdEndpoint:
    def test_second_derivative_diverges(self):
        # u'' estimated by -(delta s / delta r) toward the threshold radius
        ks = np.arange(16, 27)
        a = 1.0 - 2.0 ** -ks.astype(float)
        b = 1.0 - 2.0 ** -(ks.astype(float) + 1.0)
        est = -(first_zero(b, MODEL) - first_zero(a, MODEL)) / (b - a)
        assert np.all(np.diff(est) < 0.0)
        assert est[-1] < -1e3


class TestDerivativeLimit:
    @pytest.mark.parametrize(
        "params",
        [
            MODEL,
            Params(beta=1.0, b=2.0, p=3.0, M=0.5),
            Params(beta=1.0, b=1.0, p=0.75, M=2.0),
            Params(beta=0.5, b=0.5, p=0.9, M=0.7),
        ],
    )
    def test_slope_at_zero(self, params):
        h = 1e-6
        slope = first_zero(h, params) / h
        lim = params.M / params.beta
        assert abs(slope - lim) <= 1e-3 * lim


class TestClassifyBlowup:
    def test_p_two_blows_up(self):
        assert classify_blowup(MODEL).kind == "Blowup"

    def test_p_three_bound(self):
        cls = classify_blowup(Params(beta=1.0, b=1.0, p=3.0, M=1.0))
        assert cls.kind == "Bounded"
        assert cls.bound == pytest.approx(1.4548315146289618714, abs=1e-14)

    def test_m_zero(self):
        assert classify_blowup(Params(beta=1.0, b=1.0, p=2.0, M=0.0)).kind == "Blowup"
        cls = classify_blowup(Params(beta=1.0, b=1.0, p=3.0, M=0.0))
        assert cls.kind == "Bounded" and cls.bound == math.inf

    def test_sublinear_rejected(self):
        with pytest.raises(BranchError):
            classify_blowup(SUB)


class TestC1Bound:
    def test_model(self):
        assert c1_bound(MODEL, 1.0) == 2.0

    def test_sublinear_reference(self):
        assert c1_bound(SUB, 1.0) == 8.0

    def test_m_zero_marker(self):
        assert c1_bound(Params(beta=1.0, b=1.0, p=2.0, M=0.0), 3.0) == math.inf

    def test_beyond_threshold_rejected(self):
        with pytest.raises(ThresholdError):
            c1_bound(MODEL, 1.2)

    @pytest.mark.parametrize("frac", [0.3, 0.7, 1.0])
    def test_dominates_profile(self, frac):
        R = frac * rbar(MODEL)
        prof = radial_profile(
            ProfileBranch.FIRST_ZERO_SUPERLINEAR, R, MODEL, node_count=256
        )
        bound = c1_bound(MODEL, R)
        assert float(np.max(prof.s_values)) <= bound
        assert prof.u_at_zero <= bound


class TestExplicitSublinear:
    def test_reference_values(self):
        assert explicit_sublinear_solution("Lambda1", 0.5, 1.0, 2, 0.0) == pytest.approx(
            1.0 / 12.0, abs=1e-15
        )
        assert explicit_sublinear_solution("LambdaI", 0.5, 1.0, 2, 0.0) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    @pytest.mark.parametrize("kind", ["Lambda1", "LambdaI", "Laplacian", "MongeAmpere"])
    def test_boundary_condition(self, kind):
        assert explicit_sublinear_solution(kind, 0.5, 2.0, 3, 2.0) == 0.0

    @given(
        st.sampled_from(["Lambda1", "LambdaI", "Laplacian", "MongeAmpere"]),
        st.floats(0.05, 0.95),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    @example("Lambda1", 0.5, 2.0)
    def test_vanishes_at_r_on_an_array(self, kind, p, R):
        form = explicit_sublinear_form(kind, p, R, 2)
        assert form.value(np.linspace(0.0, R, 9))[-1] == 0.0

    def test_monge_ampere_sign(self):
        v = explicit_sublinear_solution("MongeAmpere", 0.5, 1.0, 2, 0.0)
        assert v < 0.0

    def test_laplacian_depends_on_dimension(self):
        v2 = explicit_sublinear_solution("Laplacian", 0.5, 1.0, 2, 0.0)
        v3 = explicit_sublinear_solution("Laplacian", 0.5, 1.0, 3, 0.0)
        assert v2 != v3

    def test_form_derivatives_consistent(self):
        form = explicit_sublinear_form("Lambda1", 0.5, 1.0, 2)
        r, h = 0.6, 1e-6
        fd = (form.value(r + h) - form.value(r - h)) / (2.0 * h)
        assert form.du(r) == pytest.approx(fd, rel=1e-8)
        fd2 = (form.du(r + h) - form.du(r - h)) / (2.0 * h)
        assert form.ddu(r) == pytest.approx(fd2, rel=1e-6)

    def test_rejects(self):
        with pytest.raises(ConfigError):
            explicit_sublinear_solution("Quux", 0.5, 1.0, 2, 0.0)
        with pytest.raises(ConfigError):
            explicit_sublinear_solution("Lambda1", 1.5, 1.0, 2, 0.0)
        with pytest.raises(DomainViolationError):
            explicit_sublinear_solution("Lambda1", 0.5, 1.0, 2, 2.0)


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        prof = radial_profile(
            ProfileBranch.FIRST_ZERO_SUPERLINEAR, 1.0, MODEL, node_count=64
        )
        path = tmp_path / "prof.csv"
        profile_to_csv(prof, path)
        assert b"\r" not in path.read_bytes()
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# branch=FirstZeroSuperlinear")
        assert lines[1] == "r,s,u,residual"
        assert len(lines) == 2 + prof.r_grid.size
        r_back = np.array([float(ln.split(",")[0]) for ln in lines[2:]])
        assert np.array_equal(r_back, prof.r_grid)  # 17 digits round-trip
