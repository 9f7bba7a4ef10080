"""Radial solutions on balls via root tracking of the profile function.

The profile phi(r, s) = -beta s / r + b s^p + M encodes the equation
satisfied by s(r) = -u'(r) for radial u.  Everything else follows from its
zeros: the first zero gives the bounded solution, the second zero (p > 1)
the blow-up family.  One routine (``_zero``) reaches either zero by Newton
steps that approach it from one side (see ``_newton_root``).  On either
branch the root curve inverts explicitly, r(s) = beta s / (b s^p + M), so
u(r) = integral of s from r to R has a closed form (see ``_exact_u``); no
quadrature is involved.  A ``RadialProfile`` gives the exact u, u' and u''
at any radius from these, not by interpolating its table.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._args import integer, real
from ._table import write_csv
from .errors import (
    BranchError,
    ConfigError,
    DomainViolationError,
    NumericError,
    ThresholdError,
)
from .model import Params

__all__ = [
    "ProfileBranch",
    "RadialProfile",
    "BoundedOrBlowup",
    "phi",
    "dphi_ds",
    "critical_s1",
    "rbar",
    "check_threshold",
    "first_zero",
    "second_zero",
    "radial_profile",
    "classify_blowup",
    "c1_bound",
    "explicit_sublinear_solution",
    "explicit_sublinear_form",
    "ExplicitSublinearForm",
    "profile_to_csv",
]

ENDPOINT_RTOL = 1e-10  # threshold-radius slack, scaled by (1 + M)


class ProfileBranch(enum.Enum):
    FIRST_ZERO_SUPERLINEAR = "FirstZeroSuperlinear"
    SECOND_ZERO_SUPERLINEAR = "SecondZeroSuperlinear"
    FIRST_ZERO_SUBLINEAR = "FirstZeroSublinear"
    ZERO_M = "ZeroM"

    @classmethod
    def parse(cls, tag: str) -> "ProfileBranch":
        for member in cls:
            if member.value == tag or member.name == tag.upper():
                return member
        raise ConfigError(f"unknown profile branch {tag!r}")


# ---------------------------------------------------------------------------
# the profile function and its threshold


def _check_radius(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if not ((r > 0.0) & (r < np.inf)).all():
        raise DomainViolationError("radius must be positive and finite")
    return r


def phi(r, s, params: Params):
    """phi(r, s) = -beta s / r + b s^p + M."""
    r = _check_radius(r)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise DomainViolationError("profile argument s must be nonnegative")
    out = _phi_raw(r, s, params)
    return float(out) if out.ndim == 0 else out


def _phi_raw(r, s, params):
    # no argument validation; r, s are arrays prepared by the caller
    return -params.beta * s / r + params.b * s**params.p + params.M


def dphi_ds(r, s, params: Params):
    """d phi / ds = -beta / r + p b s^(p-1)."""
    r = _check_radius(r)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise DomainViolationError("profile argument s must be nonnegative")
    out = _dphi_raw(r, s, params)
    return float(out) if out.ndim == 0 else out


def _dphi_raw(r, s, params):
    # no argument validation, as in ``_phi_raw``
    return -params.beta / r + params.p * params.b * s ** (params.p - 1.0)


def critical_s1(r, params: Params):
    """The unique stationary point of s -> phi(r, s) on (0, inf).

    One formula covers both branches: (beta/(r p b))^(1/(p-1)) equals
    (b p r / beta)^(1/(1-p)) because the exponent flips sign with p - 1.
    """
    r = _check_radius(r)
    out = (params.beta / (r * params.p * params.b)) ** (1.0 / (params.p - 1.0))
    return float(out) if out.ndim == 0 else out


def rbar(params: Params) -> float:
    """Largest ball radius carrying a first-zero profile (superlinear).

    Floor on p: the roots at this radius are accepted within
    ``ENDPOINT_RTOL * (1 + M)`` of the double root s1, and the rounding of
    phi(rbar, s1) measured against that slack grows like eps / (p - 1)
    (0.23x the slack at p - 1 = 1e-5).  ``Params`` refuses |p - 1| < 1e-5
    (``model._P_GUARD``), where ``first_zero(rbar(params), params)`` could
    raise ``ThresholdError``.
    """
    if not params.superlinear:
        raise BranchError("no threshold radius in the sublinear regime")
    if params.M == 0.0:
        return math.inf
    p = params.p
    return (
        params.beta
        * (p - 1.0) ** ((p - 1.0) / p)
        / (p * params.b ** (1.0 / p) * params.M ** ((p - 1.0) / p))
    )


def check_threshold(params: Params, R):
    """The one existence test for ball radii R (scalar or array).

    The sign gap phi(R, s1(R)), the minimum of the profile over s, may
    exceed zero by at most ``ENDPOINT_RTOL * (1 + M)``.  Past that raises
    ``ThresholdError`` with the largest gap and its radius; otherwise
    returns whether R sits at the threshold (|gap| within the same slack),
    where the double root s1 is the root.  False for p < 1 and for M = 0,
    which have no threshold.
    """
    r = _check_radius(R)
    if not params.superlinear or params.M == 0.0:
        return np.zeros(r.shape, dtype=bool) if r.ndim else False
    with np.errstate(over="ignore", invalid="ignore"):
        # s1 as an array, so s1^p takes numpy's array power as in ``phi``
        s1 = np.asarray(critical_s1(r, params))
        gap = np.asarray(_phi_raw(r, s1, params))
        finite = np.isfinite(gap)
        if not finite.all():
            # near p = 1, b s1^p overflows before s1 does (+inf far below the
            # threshold); b p s1^(p-1) = beta / r gives the gap as M - (p - 1)
            # beta s1 / (p r) there, -inf where s1 overflows too
            closed = params.M - (params.p - 1.0) * params.beta * s1 / (params.p * r)
            gap = np.where(finite, gap, closed)
    tol = ENDPOINT_RTOL * (1.0 + params.M)
    if (gap > tol).any():
        k = int(np.argmax(gap))
        radius = float(r.ravel()[k])
        raise ThresholdError(
            f"ball radius {radius} exceeds the existence threshold"
            f" {rbar(params)} at forcing magnitude {params.M}",
            gap=float(gap.ravel()[k]),
            radius=radius,
        )
    at_end = np.abs(gap) <= tol
    return bool(at_end) if at_end.ndim == 0 else at_end


# ---------------------------------------------------------------------------
# root finding

# far above the passes seen next to the threshold's double root, where
# Newton converges only linearly: up to 25 from the far end of the branch
# interval, up to 11 from ``_model_start`` (5 at p = 2)
_NEWTON_CAP = 200
# |phi| at or below this many eps of its largest term is rounding noise
_PLATEAU_EPS = 4.0 * np.finfo(float).eps


def _newton_root(r, s, params, live, direction):
    """Newton's method for phi(r, .) = 0 from starts s on the monotone side.

    s -> phi(r, s) is convex for p > 1 and concave for p < 1, so from a
    start where the tangent cannot cross the root (phi decreasing from the
    left on a convex branch, increasing from the right on a convex one,
    decreasing from the right on a concave one) every iterate moves by
    ``direction`` (+1 up, -1 down) toward the root without passing it.  An
    entry freezes once its residual has reached the rounding floor: its
    step no longer moves that way, or |phi| is at most ``_PLATEAU_EPS``
    times its largest term (beta s / r, b s^p or M), where steps of a few
    ulps would only follow the rounding noise.  Only ``live`` entries iterate.
    Returns the roots and the residuals there.
    """
    s = s.copy()
    idx = np.flatnonzero(live)
    for _ in range(_NEWTON_CAP):
        if idx.size == 0:
            break
        ri, si = r[idx], s[idx]
        f = _phi_raw(ri, si, params)
        df = _dphi_raw(ri, si, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = si - f / df
        largest = np.maximum(params.beta * si / ri, params.b * si**params.p)
        moved = np.isfinite(step) & (direction * (step - si) > 0.0)
        moved &= np.abs(f) > _PLATEAU_EPS * np.maximum(largest, params.M)
        s[idx[moved]] = step[moved]
        idx = idx[moved]
    return s, _phi_raw(r, s, params)


def _model_start(r, s1, far, params):
    """Newton start for the superlinear zero between s1 and ``far``, the
    branch's far end (0 for the first zero, t s1 for the second): one
    Newton step from the root of the quadratic model
    phi(s1) + phi''(s1) (s - s1)^2 / 2 = 0 on the side of ``far``.

    The model is exact for p = 2, and near the threshold's double root,
    where Newton from ``far`` converges only linearly, it starts next to
    the root.  phi is convex, so the step lands where phi >= 0, on the
    monotone side that ``_newton_root`` needs.  ``far`` stays the start
    wherever the step is not finite or leaves the branch interval.
    """
    side = np.sign(far - s1)
    d2 = params.p * (params.p - 1.0) * params.b * s1 ** (params.p - 2.0)
    s0 = s1 + side * np.sqrt(-2.0 * _phi_raw(r, s1, params) / d2)
    step = s0 - _phi_raw(r, s0, params) / _dphi_raw(r, s0, params)
    inside = (side * (step - s1) > 0.0) & (side * (far - step) >= 0.0)
    return np.where(np.isfinite(step) & inside, step, far)


def _root_tolerance(r, s, params):
    scale = np.maximum(
        1.0, np.maximum(params.beta * s / r, params.b * s**params.p)
    )
    return 1e-12 * scale


def _zero(r, params: Params, second: bool):
    """The first zero of phi(r, .), or with ``second`` the second one, at
    radii r; every root in this module comes from here.  For M > 0,
    superlinear Newton starts at ``_model_start``, sublinear at a bracket's
    upper end; for M = 0 the zeros have a closed form.
    """
    r_arr = _check_radius(np.atleast_1d(r))
    scalar = np.asarray(r, dtype=float).ndim == 0

    # at the threshold's double root s1 IS the root, and Newton would only
    # chase rounding noise there
    at_end = check_threshold(params, r_arr)
    # s1 overflows for p near 1, and with it the start and the residuals:
    # _validate_root's finiteness check is then the one report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s1 = critical_s1(r_arr, params)
        if params.M == 0.0:
            # phi = s (b s^(p-1) - beta/r): the zeros are 0, the superlinear
            # first zero, and (beta / (b r))^(1/(p-1)), every other one
            s = np.zeros_like(r_arr)
            if second or not params.superlinear:
                s = (params.beta / (params.b * r_arr)) ** (1.0 / (params.p - 1.0))
            f = _phi_raw(r_arr, s, params)
        else:
            if not params.superlinear:
                # phi rises to its max at s1 then falls to -inf: the zero lies in
                # (s1, A + B] with A = 2Mr/beta, B = (2br/beta)^(1/(1-p)), because
                # beta(A+B)/r = 2M + 2bB^p, b(A+B)^p <= bA^p + bB^p, and
                # bA^p <= max(M, bB^p) depending on which of A, B is larger
                upper = 2.0 * params.M * r_arr / params.beta + (
                    2.0 * params.b * r_arr / params.beta
                ) ** (1.0 / (1.0 - params.p))
                if not np.all(np.isfinite(upper)):
                    k = int(np.argmin(np.isfinite(upper)))
                    raise NumericError(
                        f"sublinear root at r={r_arr[k]:.17g} overflows double"
                        " precision"
                    )
                # concave and decreasing on [s1, upper]: Newton descends from upper
                start, direction = upper, -1.0
            elif second:
                # t = p^(1/(p-1)) has t^p / p = t, so phi(r, t s1) = M >= 0:
                # convex and increasing on [s1, t s1], Newton descends from t s1
                far = params.p ** (1.0 / (params.p - 1.0)) * s1
                start, direction = _model_start(r_arr, s1, far, params), -1.0
            else:
                # convex and decreasing on [0, s1]: Newton climbs from s = 0
                far = np.zeros_like(r_arr)
                start, direction = _model_start(r_arr, s1, far, params), 1.0
            s, f = _newton_root(r_arr, start, params, ~at_end, direction)
    s = np.where(at_end, s1, s)
    _validate_root(r_arr, s, f, at_end, params)
    return float(s[0]) if scalar else s


def first_zero(r, params: Params):
    """Smallest zero of phi(r, .): in (0, s1] superlinearly, in (s1, inf)
    sublinearly.  Scalar in, scalar out; arrays pass through elementwise."""
    return _zero(r, params, second=False)


def second_zero(r, params: Params):
    """Largest zero of phi(r, .), superlinear only; >= s1(r)."""
    if not params.superlinear:
        raise BranchError("second zero exists only for p > 1")
    return _zero(r, params, second=True)


def _validate_root(r, s, f, at_end, params):
    f = np.where(at_end, 0.0, f)  # endpoint roots are exact by fiat
    finite = np.isfinite(s) & np.isfinite(f)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise NumericError(
            "root or its residual is not finite",
            {"radius": float(r[k]), "root": float(s[k])},
        )
    tol = _root_tolerance(r, s, params)
    bad = np.abs(f) > tol
    if np.any(bad):
        k = int(np.argmax(np.abs(f) / tol))
        raise NumericError(
            "root residual above tolerance",
            {"radius": float(r[k]), "residual": float(f[k]), "tol": float(tol[k])},
        )


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class RadialProfile:
    """Tabulated (r, s, u) for one root branch on the ball of radius R.

    ``u_at_zero`` is the limit value at the center, +inf for the divergent
    second-zero branches with p <= 2.  ``at_threshold`` records that R sits
    at the superlinear existence threshold (up to tolerance), where u''
    blows up at the boundary.  ``value``, ``du`` and ``ddu`` evaluate the
    branch exactly at any radius, not the table.
    """

    params: Params
    R: float
    branch: ProfileBranch
    r_grid: np.ndarray
    s_values: np.ndarray
    u_values: np.ndarray
    u_at_zero: float
    residuals: np.ndarray
    at_threshold: bool = False

    def __post_init__(self):
        for arr in (self.r_grid, self.s_values, self.u_values, self.residuals):
            arr.flags.writeable = False

    def value(self, r) -> np.ndarray:
        """Exact u at radii r: the closed form on the profile's branch, not
        the table.  Radii are clamped to [0, R] on the first-zero branches,
        which extend to the center, and to [r_grid[0], R] on the second-zero
        ones, which diverge there."""
        second = _second_branch(self.branch, self.params)
        rr = np.clip(r, self.r_grid[0] if second else 0.0, self.R)
        return _exact_u(rr, self.R, self.params, second)[1]

    def du(self, r):
        """Exact u' = -s at radii r, the branch's root recomputed there."""
        return -_zero(r, self.params, _second_branch(self.branch, self.params))

    def ddu(self, r) -> np.ndarray:
        """Exact u'' = -s' at radii r, differentiating phi(r, s(r)) = 0:
            s' = phi_r / (-phi_s) = (beta s / r^2) / (beta/r - p b s^(p-1)),
        exact up to the root accuracy wherever phi_s != 0; M / beta at s = 0."""
        p = self.params
        r = np.asarray(r, dtype=float)
        s = -np.asarray(self.du(r))
        denom = p.beta / r - p.p * p.b * np.where(s > 0.0, s, 1.0) ** (p.p - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sprime = np.where(s > 0.0, (p.beta * s / r**2) / denom, p.M / p.beta)
        if not np.all(np.isfinite(sprime)):
            raise DomainViolationError(
                "sample radius sits at the threshold endpoint where the"
                " profile derivative is unbounded"
            )
        return -sprime


def _graded_nodes(R: float, node_count: int) -> np.ndarray:
    # both-end clustering: R (i/k)^1.5 resolves r -> 0, its mirror resolves
    # the u'' blow-up at the threshold end
    k = max(node_count // 2, 8)
    t = (np.arange(1, k + 1) / k) ** 1.5
    nodes = np.union1d(R * t, R * (1.0 - t))
    nodes = nodes[nodes > 0.0]
    nodes = nodes[np.concatenate([[True], np.diff(nodes) > 1e-13 * R])]
    if nodes[-1] != R:
        nodes = np.append(nodes, R)
    return nodes


def _graded_nodes_log(R: float, r_min: float, node_count: int) -> np.ndarray:
    if not 0.0 < r_min < R:
        raise ConfigError("need 0 < r_min < R for second-zero grids")
    k = max(node_count // 2, 8)
    t = (np.arange(0, k + 1) / k) ** 1.5
    x = np.union1d(t, 1.0 - t)
    nodes = r_min * (R / r_min) ** x
    nodes = nodes[np.concatenate([[True], np.diff(nodes) > 1e-13 * R])]
    nodes[0], nodes[-1] = r_min, R
    return nodes


def _merge_radii(nodes: np.ndarray, include_radii, R: float) -> np.ndarray:
    if include_radii is None or len(include_radii) == 0:
        return nodes
    extra = np.asarray(sorted(include_radii), dtype=float)
    if not np.all((extra > 0.0) & (extra <= R * (1.0 + 1e-12))):  # NaN too
        raise ConfigError("include_radii must lie in (0, R]")
    return np.union1d(nodes, np.minimum(extra, R))


def radial_profile(
    branch: ProfileBranch,
    R: float,
    params: Params,
    node_count: int = 512,
    r_min: float = 1e-6,
    include_radii=(),
) -> RadialProfile:
    """Tabulate a root branch on (0, R] together with its exact u.

    First-zero grids are graded toward both ends and u(0) is the limit of
    the closed form as r -> 0 (s(0) = 0); second-zero grids are log-graded
    on [r_min, R] since the branch diverges at the center.  u comes from
    ``_exact_u`` at every node, so it carries only rounding error.
    """
    if isinstance(branch, str):
        branch = ProfileBranch.parse(branch)
    node_count = integer(node_count, "node_count", ge=64)
    R = real(R, "ball radius R", gt=0)
    r_min = real(r_min, "r_min", gt=0)

    if branch is ProfileBranch.ZERO_M:
        if params.M != 0.0:
            raise BranchError("ZeroM branch requires M = 0")
    elif branch is ProfileBranch.FIRST_ZERO_SUBLINEAR:
        if params.superlinear:
            raise BranchError("sublinear branch requires p < 1")
    else:
        if not params.superlinear:
            raise BranchError(f"{branch.value} requires p > 1")

    at_threshold = check_threshold(params, R)
    second = _second_branch(branch, params)
    if second:
        if include_radii is not None and len(include_radii) > 0:
            r_min = min(r_min, float(min(include_radii)))
        grid = _merge_radii(_graded_nodes_log(R, r_min, node_count), include_radii, R)
    else:
        grid = _merge_radii(_graded_nodes(R, node_count), include_radii, R)

    s_vals, u_vals, u_zero = _exact_u(grid, R, params, second)
    residuals = _phi_raw(grid, s_vals, params)

    prof = RadialProfile(
        params=params,
        R=R,
        branch=branch,
        r_grid=grid,
        s_values=np.asarray(s_vals, dtype=float),
        u_values=np.asarray(u_vals, dtype=float),
        u_at_zero=u_zero,
        residuals=np.asarray(residuals, dtype=float),
        at_threshold=at_threshold,
    )
    _validate_profile(prof, second)
    return prof


# ---------------------------------------------------------------------------
# exact u on a root branch
#
# Integrating u(r) = int_r^R s(t) dt by parts along the inverse root curve
# r(s) = beta s / (b s^p + M) gives
#     u(r) = R s(R) - r s(r) + G(s(r)) - G(s(R)),
#     G(s) = int_0^s r(t) dt = beta / (M p) c^(-a) J(c s^p),
# with c = b / M, a = 2 / p and J(X) = int_0^X x^(a-1) / (1 + x) dx.

_SERIES_TERMS = 64


def _j_series(X, a: float):
    """int_0^X x^(a-1) / (1 + x) dx for 0 <= X <= 1 and a > 0.

    The power series of 1/(1+x) alternates and converges slowly at X = 1;
    its Pfaff transform
        X^a / (a (1 + X)) sum_n n! / ((1+a)(2+a)...(n+a)) w^n,
    w = X / (1 + X) <= 1/2, has positive terms, each at most half the one
    before, so it sums to full precision in at most ~55 terms.  X is an
    array, summed in place until the term of the largest w is below 1e-17
    of its total: term / total grows with w, and a term that small is under
    half an ulp of the total, so summing on would change no entry.
    """
    w = X / (1.0 + X)
    term = np.ones_like(w)
    total = np.ones_like(w)
    last = np.argmax(w) if w.size else None
    for n in range(1, _SERIES_TERMS):
        term *= n / (n + a)
        term *= w
        total += term
        if last is None or term[last] <= 1e-17 * total[last]:
            break
    return X**a / (a * (1.0 + X)) * total


def _j_series_at_one(a: float) -> float:
    """``_j_series`` at X = 1 (w = 1/2) in Python floats, operation for
    operation, so the constant costs ~55 float products, not array passes."""
    term = total = 1.0
    for n in range(1, _SERIES_TERMS):
        term = term * (n / (n + a)) * 0.5
        total += term
        if term <= 1e-17 * total:
            break
    return 1.0 / (a * 2.0) * total


def _J(X, p: float) -> np.ndarray:
    """J(X) = int_0^X x^(a-1) / (1 + x) dx with a = 2/p, for X >= 0, p > 0.

    For X > 1 the substitution x = 1/y moves the tail onto [1/X, 1], where
    1/(1+y) = sum_{k<m} (-y)^k + (-y)^m / (1+y) with m the integer nearest
    a.  Every piece is elementary or a series at argument <= 1:
        J(X) = J(1) + sum_{k<m} (-1)^k (X^e_k - 1) / e_k
               + (-1)^m (J_q(1) - J_q(1/X)),
    e_k = a - k - 1 and q = m + 1 - a in (1/2, 3/2], J_q the series with
    exponent q.  The growth sits in the (X^e - 1)/e terms (ln X when
    e = 0), so nothing large cancels, near p = 2 included, where library
    hypergeometric routines lose digits at large X.  The exponents are
    formed from p directly: a - k - 1 in floating point would carry the
    rounding of 2/p, which X^e magnifies by ln X.
    """
    a = 2.0 / p
    X = np.asarray(X, dtype=float)
    out = np.full(X.shape, _j_series_at_one(a))
    big = X > 1.0
    # the series where X < 1 (and NaN, which it keeps); at X = 1 it is the
    # constant J(1)
    below = ~big & (X != 1.0)
    out[below] = _j_series(X[below], a)
    if np.any(big):
        Xb = X[big]
        L = np.log(Xb)
        m = math.floor(a + 0.5)
        q = ((m + 1) * p - 2.0) / p
        tail = (-1.0) ** m * (_j_series_at_one(q) - _j_series(1.0 / Xb, q))
        # np.where evaluates both forms, and X^e overflows for small p: the
        # caller's finiteness check on u is then the one report
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(m):
                e = (2.0 - (k + 1) * p) / p
                if e == 0.0:
                    grow = L
                else:
                    # expm1 near e L = 0; the direct power elsewhere, since
                    # exp(e L) would magnify the rounding of L by e L
                    eL = e * L
                    grow = np.where(np.abs(eL) < 1.0, np.expm1(eL), Xb**e - 1.0) / e
                tail = tail + (-1.0) ** k * grow
        out[big] += tail
    return out


def _second_branch(branch: ProfileBranch, params: Params) -> bool:
    """Whether ``branch`` follows the second zero of phi."""
    return branch is ProfileBranch.SECOND_ZERO_SUPERLINEAR or (
        branch is ProfileBranch.ZERO_M and params.superlinear
    )


def _exact_u(r, R: float, params: Params, second: bool = False):
    """(s, u, u(0+)) at radii r in [0, R] on one root branch, for M >= 0.

    u = int_r^R s is evaluated in closed form from the roots at r and R, so
    it is exact up to the root accuracy; R is appended to r, so the terms
    at R come from the same array expressions and u(R) is exactly 0.  r = 0
    is allowed on the first-zero branches, whose root extends by s(0) = 0.
    A u that overflows double precision raises ``NumericError``.

    For M > 0 (see above), the first-zero u at the center is
    R s(R) - G(s(R)); the second-zero u diverges for p <= 2 and is
    R s(R) + G(inf) - G(s(R)) for p > 2, with
    G(inf) = beta / (M p) c^(-a) pi / sin(pi a).  For M = 0 the
    superlinear first zero is s = u = 0, and every other branch has
    s = (beta / (b r))^q, q = 1 / (p - 1), so
    u = (beta / b)^q (R^g - r^g) / g with g = (p - 2) / (p - 1), or
    (beta / b)^q log(R / r) at p = 2; u(0+) is finite where g > 0.
    """
    r = np.asarray(r, dtype=float)
    inner = (r > 0.0) & (r < R)
    roots = _zero(np.append(r[inner], R), params, second)
    # radii at R take the one root computed there, so u(R) is exactly 0
    s = np.where(r >= R, roots[-1], 0.0)
    s[inner] = roots[:-1]
    if params.M == 0.0 and params.superlinear and not second:
        return s, np.zeros(r.shape), 0.0

    rs = np.append(r, R)
    p = params.p
    if params.M == 0.0:
        # an overflow leaves a non-finite u, which the check below reports
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            coef = np.float64(params.beta / params.b) ** (1.0 / (p - 1.0))
            if p == 2.0:
                u, center = coef * np.log(R / rs[:-1]), math.inf
            else:
                g = (p - 2.0) / (p - 1.0)
                rg = rs**g  # R^g and r^g from one array power
                u = coef * (rg[-1] - rg[:-1]) / g
                center = float(coef * rg[-1] / g) if g > 0.0 else math.inf
    else:
        a = 2.0 / p
        c = params.b / params.M
        scale = params.beta / (params.M * p) * c**-a
        # r s - G(s) at r and, last, at R
        ss = np.append(s, roots[-1])
        r_s_minus_g = rs * ss - scale * _J(c * ss**p, p)
        head = float(r_s_minus_g[-1])
        u = head - r_s_minus_g[:-1]
        if not second:
            center = head
        elif p > 2.0:
            center = head + scale * math.pi / math.sin(math.pi * a)
        else:
            center = math.inf
    u = u.reshape(r.shape)
    if not np.all(np.isfinite(u)):
        k = int(np.argmin(np.isfinite(u.ravel())))
        raise NumericError(
            "profile value overflows double precision",
            {"radius": float(r.ravel()[k]), "root": float(s.ravel()[k])},
        )
    return s, u, center


def _validate_profile(prof: RadialProfile, second: bool):
    params = prof.params
    slack = 1e-9 * (1.0 + params.M) + 64.0 * np.finfo(float).eps * np.maximum(
        params.M,
        np.maximum(
            params.beta * prof.s_values / prof.r_grid,
            params.b * prof.s_values**params.p,
        ),
    )
    if np.any(np.abs(prof.residuals) > slack):
        k = int(np.argmax(np.abs(prof.residuals) - slack))
        raise NumericError(
            "profile residual above tolerance",
            {"radius": float(prof.r_grid[k]), "residual": float(prof.residuals[k])},
        )
    if np.any(prof.s_values < 0.0):
        raise NumericError("negative profile value")
    ds = np.diff(prof.s_values)
    wiggle = 1e-12 * max(1.0, float(np.max(prof.s_values)))
    if second:
        if np.any(ds > wiggle):
            raise NumericError("second-zero branch must be nonincreasing")
    elif np.any(ds < -wiggle):
        raise NumericError("first-zero branch must be nondecreasing")
    du = np.diff(prof.u_values)
    if np.any(du > 1e-12 * max(1.0, float(np.max(np.abs(prof.u_values))))):
        raise NumericError("u must be nonincreasing in r")
    if prof.u_values[-1] != 0.0:
        raise NumericError("u(R) must vanish")


# ---------------------------------------------------------------------------
# classification, bounds, explicit solutions


@dataclass(frozen=True)
class BoundedOrBlowup:
    kind: str  # "Blowup" | "Bounded"
    bound: float | None = None


def classify_blowup(params: Params) -> BoundedOrBlowup:
    """Center behavior of the second-zero family: divergent for p in (1,2],
    bounded with an explicit sup bound for p > 2."""
    if not params.superlinear:
        raise BranchError("blow-up classification applies to p > 1 only")
    if params.p <= 2.0:
        return BoundedOrBlowup(kind="Blowup")
    if params.M == 0.0:
        return BoundedOrBlowup(kind="Bounded", bound=math.inf)
    q = 1.0 / (params.p - 1.0)
    bound = (
        (params.beta / params.b) ** q
        * (params.p - 1.0)
        / (params.p - 2.0)
        * rbar(params) ** ((params.p - 2.0) / (params.p - 1.0))
    )
    return BoundedOrBlowup(kind="Bounded", bound=bound)


def c1_bound(params: Params, R: float) -> float:
    """Uniform C^1 bound for the first-zero solution on the ball of radius R."""
    R = real(R, "ball radius R", gt=0)
    if params.superlinear:
        if params.M == 0.0:
            return math.inf  # threshold is infinite and the bound degenerates
        check_threshold(params, R)
        threshold = rbar(params)
        return (
            params.beta / (threshold * params.p * params.b)
        ) ** (1.0 / (params.p - 1.0)) * (threshold + 1.0)
    # numpy powers give inf where the bound degenerates (p near 1 or 0)
    with np.errstate(over="ignore"):
        lo = np.float64(params.M) ** (1.0 / params.p)
        hi = np.float64((1.0 + params.b) * R / params.beta) ** (1.0 / (1.0 - params.p))
    return float((1.0 + R) * max(lo, hi))


_SUBLINEAR_KINDS = ("Lambda1", "LambdaI", "Laplacian", "MongeAmpere")


@dataclass(frozen=True)
class ExplicitSublinearForm:
    """One closed-form sublinear solution u(r) = sign * K (R^g - r^g).

    ``sign`` is +1 for the decreasing families and -1 for the convex
    increasing Monge-Ampere one; du and ddu are analytic derivatives used
    by residual checks.
    """

    kind: str
    p: float
    R: float
    N: int
    K: float
    g: float
    sign: float

    def value(self, r):
        # R^g and r^g from one array power, so u(R) is exactly 0
        rg = np.append(np.asarray(r, dtype=float), self.R) ** self.g
        out = (self.sign * self.K * (rg[-1] - rg[:-1])).reshape(np.shape(r))
        return float(out) if out.ndim == 0 else out

    def du(self, r):
        r = np.asarray(r, dtype=float)
        out = -self.sign * self.K * self.g * r ** (self.g - 1.0)
        return float(out) if out.ndim == 0 else out

    def ddu(self, r):
        r = np.asarray(r, dtype=float)
        out = -self.sign * self.K * self.g * (self.g - 1.0) * r ** (self.g - 2.0)
        return float(out) if out.ndim == 0 else out


def explicit_sublinear_form(
    kind: str, p: float, R: float, N: int = 2
) -> ExplicitSublinearForm:
    if kind not in _SUBLINEAR_KINDS:
        raise ConfigError(f"kind must be one of {_SUBLINEAR_KINDS}")
    p = real(p, "exponent p")
    if not 0.0 < p < 1.0:
        raise ConfigError("explicit sublinear forms need p in (0, 1)")
    R = real(R, "ball radius R", gt=0)
    N = integer(N, "dimension N", ge=2)
    g = (2.0 - p) / (1.0 - p)
    sign = 1.0
    if kind == "Lambda1":
        # K g = (1-p)^(1/(1-p))
        K = (1.0 - p) ** ((2.0 - p) / (1.0 - p)) / (2.0 - p)
    elif kind == "LambdaI":
        K = (1.0 - p) / (2.0 - p)  # K g = 1
    elif kind == "Laplacian":
        K = (N - 1.0 + 1.0 / (1.0 - p)) ** (-1.0 / (1.0 - p)) / g
    else:  # MongeAmpere: convex increasing solution, u <= 0
        K = (1.0 - p) ** (1.0 / (N * (1.0 - p))) / g
        sign = -1.0
    return ExplicitSublinearForm(kind=kind, p=p, R=R, N=N, K=K, g=g, sign=sign)


def explicit_sublinear_solution(
    kind: str, p: float, R: float, N: int, r
) -> float:
    """Closed-form value at radius r of the chosen sublinear model problem."""
    form = explicit_sublinear_form(kind, p, R, N)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0) or np.any(r_arr > R * (1.0 + 1e-12)):
        raise DomainViolationError("radius outside [0, R]")
    return form.value(r)


# ---------------------------------------------------------------------------
# export


def profile_to_csv(prof: RadialProfile, path) -> None:
    """CSV with columns r, s, u, residual (17 significant digits)."""
    comment = (
        f"branch={prof.branch.value} beta={prof.params.beta!r} "
        f"b={prof.params.b!r} c={prof.params.c!r} d={prof.params.d!r} "
        f"p={prof.params.p!r} M={prof.params.M!r} R={prof.R!r}"
    )
    rows = zip(prof.r_grid, prof.s_values, prof.u_values, prof.residuals)
    write_csv(path, "r,s,u,residual", rows, comment)
