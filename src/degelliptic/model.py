"""Problem data and pointwise evaluation.

Scalar parameter set, small symmetric matrices and their eigenvalues, the
operator and Hamiltonian catalogs, ball-intersection domains, and
sampling-based checkers for the structural inequalities the whole
construction rests on.  Each catalog is evaluated by one array kernel on
stacks of samples; the pointwise evaluators are that kernel on one sample.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from ._args import integer, real, reals
from .errors import ConfigError, DomainViolationError, NumericError

__all__ = [
    "Params",
    "SymMatrix",
    "ScalarField",
    "MatrixField",
    "WeightedEigenvalues",
    "LambdaK",
    "TruncatedLower",
    "TruncatedUpper",
    "MinMax",
    "NonconvexPair",
    "LinearDegenerate",
    "CoefficientLambdaN",
    "MongeAmpere",
    "SupInf",
    "OperatorSpec",
    "PowerNorm",
    "AnisotropicPower",
    "CompactPerturbation",
    "HamiltonianSpec",
    "ConvexDomain",
    "eigenvalues_sorted",
    "evaluate_operator",
    "evaluate_hamiltonian",
    "ellipticity_constant",
    "check_structural_conditions",
    "compact_perturbation_constant",
    "ConditionResult",
    "ConditionReport",
]

_P_GUARD = 1e-5  # reject exponents this close to p = 1 (see ``radial.rbar``)


def _exponent(p) -> float:
    """A gradient exponent p > 0 with |p - 1| >= ``_P_GUARD``, as a float."""
    p = real(p, "gradient exponent p", gt=0)
    if abs(p - 1.0) < _P_GUARD:
        raise ConfigError(f"gradient exponent p={p} too close to the excluded p=1")
    return p


# ---------------------------------------------------------------------------
# scalar problem data


@dataclass(frozen=True)
class Params:
    """Scalar problem data (ellipticity constant, gradient growth, forcing).

    ``beta``  ellipticity constant of the operator,
    ``b, c``  gradient growth coefficients, ``d`` lower bound of H,
    ``p``     gradient exponent (p > 0, |p - 1| >= 1e-5),
    ``M``     magnitude of the constant right-hand side.
    """

    beta: float
    b: float
    c: float = 0.0
    d: float = 0.0
    p: float = 2.0
    M: float = 1.0

    def __post_init__(self):
        for name in ("beta", "b"):
            object.__setattr__(self, name, real(getattr(self, name), name, gt=0))
        for name in ("c", "d", "M"):
            object.__setattr__(self, name, real(getattr(self, name), name, ge=0))
        object.__setattr__(self, "p", _exponent(self.p))

    @property
    def superlinear(self) -> bool:
        return self.p > 1.0


# ---------------------------------------------------------------------------
# small symmetric matrices and their eigenvalues


# strict lower-triangle indices for each admissible dimension
_STRICT_LOWER = {n: np.tril_indices(n, -1) for n in range(2, 9)}


def _symmetric(a: np.ndarray) -> np.ndarray:
    """The symmetric matrices, over the leading axes of ``a``, whose upper
    triangles are those of ``a``; -0.0 becomes +0.0 as in a zero-padded
    triangle sum.  ``a`` is not written to."""
    full = a + 0.0
    i, j = _STRICT_LOWER[a.shape[-1]]
    full[..., i, j] = full[..., j, i]
    return full


class SymMatrix:
    """Symmetric N x N matrix, 2 <= N <= 8.

    Symmetry is exact by construction: only the upper triangle of the input
    is read and mirrored.
    """

    __slots__ = ("n", "a")

    def __init__(self, entries):
        a = reals(entries, "matrix entry")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError("matrix must be square")
        n = a.shape[0]
        if not (2 <= n <= 8):
            raise ConfigError(f"matrix dimension {n} outside [2, 8]")
        full = _symmetric(a)
        full.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", full)

    def __setattr__(self, *_):  # immutable
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        return cls(np.diag(reals(values, "matrix entry")))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(integer(n, "matrix dimension")))

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.a + other.a)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.a - other.a)

    def __mul__(self, scalar: float) -> "SymMatrix":
        return SymMatrix(self.a * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymMatrix({self.a.tolist()})"


def _eigenvalues(X: np.ndarray) -> np.ndarray:
    """Eigenvalues in nondecreasing order of a stack (k, n, n) of symmetric
    matrices, shape (k, n): the closed form for n = 2, LAPACK above."""
    if X.shape[-1] == 2:
        half_tr = 0.5 * (X[:, 0, 0] + X[:, 1, 1])
        half_gap = 0.5 * (X[:, 0, 0] - X[:, 1, 1])
        # math.hypot element by element, as the scalar closed form had it:
        # np.hypot rounds some values differently
        rad = np.array(list(map(math.hypot, half_gap.tolist(), X[:, 0, 1].tolist())))
        return np.stack([half_tr - rad, half_tr + rad], axis=1)
    try:
        return np.linalg.eigvalsh(X)
    except np.linalg.LinAlgError as err:
        raise NumericError(
            "symmetric eigenvalue solver did not converge", {"n": X.shape[-1]}
        ) from err


def eigenvalues_sorted(x: SymMatrix) -> np.ndarray:
    """Eigenvalues in nondecreasing order."""
    return _eigenvalues(x.a[None])[0]


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    # the C library's pow element by element, as scalar code rounds it:
    # numpy's vector power rounds some values differently
    return np.array([v**exponent for v in base.tolist()])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row-wise dot products of a (k, n) with b (k, n) or (n,), as a stack of
    # (1 x n) @ (n x 1) products: each is rounded as np.dot rounds one pair,
    # however many rows are stacked with it
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


# ---------------------------------------------------------------------------
# plug-in coefficient fields (declared bounds are admitted, then trusted);
# equality and hashing read the declared bounds and name, never ``fn``


class _Constant:
    """The callable of a constant field: one value at every point."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __call__(self, _x):
        return self.value


@dataclass(frozen=True)
class ScalarField:
    """Scalar coefficient x -> a(x) with declared inf/sup bounds."""

    fn: Callable[[np.ndarray], float | np.ndarray] = field(compare=False)
    lower: float
    upper: float
    name: str = "field"

    def __post_init__(self):
        lower = real(self.lower, "declared bound lower")
        upper = math.inf  # the supremum of an unbounded coefficient
        if self.upper != math.inf:
            upper = real(self.upper, "declared bound upper", ge=lower)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @classmethod
    def constant(cls, value: float, name: str = "const") -> "ScalarField":
        v = real(value, "constant field value")
        return cls(fn=_Constant(v), lower=v, upper=v, name=name)


@dataclass(frozen=True)
class MatrixField:
    """Matrix coefficient x -> Sigma(x); ``lambda_min_sts`` is the declared
    infimum over x of the smallest eigenvalue of Sigma^T Sigma and
    ``lambda_max_sts`` the declared infimum of the largest one."""

    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    lambda_min_sts: float
    lambda_max_sts: float
    name: str = "sigma"

    def __post_init__(self):
        low = real(self.lambda_min_sts, "declared bound lambda_min_sts")
        high = real(self.lambda_max_sts, "declared bound lambda_max_sts", ge=low)
        object.__setattr__(self, "lambda_min_sts", low)
        object.__setattr__(self, "lambda_max_sts", high)

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def constant(cls, sigma, name: str = "const") -> "MatrixField":
        s = reals(sigma, "diffusion matrix")
        if s.ndim != 2 or s.size == 0:
            raise ConfigError(f"diffusion matrix must be nonempty 2-D, not {s.shape}")
        sts = s.T @ s
        ev = np.linalg.eigvalsh(sts)
        s.flags.writeable = False
        return cls(
            fn=_Constant(s),
            lambda_min_sts=ev[0],
            lambda_max_sts=ev[-1],
            name=name,
        )


def _at(pts: np.ndarray, i) -> str:
    return f" at x = {tuple(np.atleast_1d(pts[i]).tolist())}"


def _field_values(f, pts: np.ndarray, ndim: int = 0, what: str = "field") -> np.ndarray:
    """A field at each point of the stack ``pts`` (one point per row), as an
    array (k, ...) of ``ndim``-dimensional values; the one admission of the
    coefficient, diffusion and forcing values.

    ``f`` is a constant field, a callable that is tried once on the whole
    stack and otherwise called point by point, or else a number, admitted
    by ``real``.  A square stack is tried with its last row repeated, so a
    point-wise ``x[0]`` cannot pass for k values.  A callable's values must
    be finite and of one shape, or ``ConfigError`` names ``what`` and the
    first offending point.
    """
    k = pts.shape[0]
    if not callable(f):
        return np.full(k, real(f, f"number or a callable ({what})"))
    fn = f.fn if isinstance(f, (ScalarField, MatrixField)) else f
    if isinstance(fn, _Constant):
        value = np.asarray(fn.value, dtype=float)
        return np.full((k, *value.shape), value)
    stack = pts
    if pts.ndim == 2 and k == pts.shape[1]:
        stack = np.concatenate([pts, pts[-1:]])
    vals = None
    try:
        tried = np.asarray(f(stack), dtype=float)
        if tried.ndim == ndim + 1 and tried.shape[0] == stack.shape[0]:
            vals = tried[:k]
    except (TypeError, ValueError, IndexError):
        pass  # not vectorised: the point-wise calls below raise real errors
    if vals is None:
        each = [np.asarray(f(p), dtype=float) for p in pts]
        odd = [v.ndim != ndim or v.shape != each[0].shape for v in each]
        if any(odd):
            i = odd.index(True)
            at = f"{each[0].shape} at the first point, {each[i].shape}{_at(pts, i)}"
            raise ConfigError(f"{what} must have one {ndim}-axis shape, not {at}")
        vals = np.array(each)
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        raise ConfigError(f"{what} must be finite{_at(pts, bad[0, 0])}")
    return vals


def _sts_values(sigma: MatrixField, pts: np.ndarray) -> np.ndarray:
    """The diffusion matrix Sigma(x)^T Sigma(x) at each point of the stack
    ``pts`` (k, n); refused unless Sigma(x) has n columns, so it is n x n."""
    s, n = _field_values(sigma, pts, ndim=2, what="diffusion matrix"), pts.shape[1]
    if s.shape[-1] != n:
        raise ConfigError(f"diffusion matrix must be {n}x{n}{_at(pts, 0)}")
    return np.swapaxes(s, -1, -2) @ s


# ---------------------------------------------------------------------------
# operator catalog


@dataclass(frozen=True)
class WeightedEigenvalues:
    """F(X) = sum_i alpha_i * lambda_i(X), alphas paired with the sorted
    eigenvalues (alpha_1 with the smallest)."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(real(a, "eigenvalue weight", ge=0) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 2:
            raise ConfigError("need at least two eigenvalue weights")
        if sum(alphas) <= 0:
            raise ConfigError("eigenvalue weights must not all vanish")


@dataclass(frozen=True)
class LambdaK:
    """F(X) = lambda_index(X), 1-based index into the sorted eigenvalues."""

    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", integer(self.index, "eigenvalue index", ge=1))


@dataclass(frozen=True)
class TruncatedLower:
    """Sum of the k smallest eigenvalues."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", integer(self.k, "truncation order", ge=1))


@dataclass(frozen=True)
class TruncatedUpper:
    """Sum of the k largest eigenvalues."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", integer(self.k, "truncation order", ge=1))


@dataclass(frozen=True)
class MinMax:
    """F(X) = lambda_1(X) + lambda_N(X)."""


@dataclass(frozen=True)
class NonconvexPair:
    """F(X) = lambda_i(X) - (lambda_j(X))^-  (negative part)."""

    i: int
    j: int

    def __post_init__(self):
        for name in ("i", "j"):
            index = integer(getattr(self, name), "eigenvalue index", ge=1)
            object.__setattr__(self, name, index)


@dataclass(frozen=True)
class LinearDegenerate:
    """F(x, X) = Tr(Sigma(x)^T Sigma(x) X)."""

    sigma: MatrixField

    def __post_init__(self):
        if self.sigma.lambda_min_sts < 0:
            raise ConfigError("Sigma^T Sigma must be positive semidefinite")
        if self.sigma.lambda_max_sts <= 0:
            raise ConfigError("inf_x lambda_N(Sigma^T Sigma) must be positive")


@dataclass(frozen=True)
class CoefficientLambdaN:
    """F(x, X) = a(x) * lambda_N(X) with inf a > 0."""

    a: ScalarField

    def __post_init__(self):
        if self.a.lower <= 0:
            raise ConfigError("coefficient must have positive infimum")


@dataclass(frozen=True)
class MongeAmpere:
    """F(X) = det(X)^(1/N) on the cone of nonnegative matrices."""


@dataclass(frozen=True)
class SupInf:
    """F = max over rows of (min over each row's members)."""

    rows: tuple[tuple["OperatorSpec", ...], ...]

    def __post_init__(self):
        if not self.rows or any(len(r) == 0 for r in self.rows):
            raise ConfigError("sup-inf family must be nonempty")


OperatorSpec = Union[
    WeightedEigenvalues,
    LambdaK,
    TruncatedLower,
    TruncatedUpper,
    MinMax,
    NonconvexPair,
    LinearDegenerate,
    CoefficientLambdaN,
    MongeAmpere,
    SupInf,
]

MA_CONE_TOL = 1e-10  # tolerance for numerical nonnegativity, then clamp


def _operator_values(spec: OperatorSpec, x, X: np.ndarray) -> np.ndarray:
    """F(x_i, X_i) over a stack X (k, n, n) of symmetric matrices, with
    points ``x`` (k, n), or None for the origin.  This is the only place
    that evaluates the operator catalog."""
    n = X.shape[-1]
    if x is None:
        x = np.zeros((X.shape[0], n))
    lam = _eigenvalues(X)
    if isinstance(spec, WeightedEigenvalues):
        if len(spec.alphas) != n:
            raise ConfigError("weight count does not match matrix dimension")
        return _dot(lam, np.asarray(spec.alphas))
    if isinstance(spec, LambdaK):
        if spec.index > n:
            raise ConfigError(f"eigenvalue index {spec.index} > N={n}")
        return lam[:, spec.index - 1]
    if isinstance(spec, TruncatedLower):
        if spec.k > n:
            raise ConfigError(f"truncation order {spec.k} > N={n}")
        return np.sum(lam[:, : spec.k], axis=1)
    if isinstance(spec, TruncatedUpper):
        if spec.k > n:
            raise ConfigError(f"truncation order {spec.k} > N={n}")
        return np.sum(lam[:, n - spec.k :], axis=1)
    if isinstance(spec, MinMax):
        return lam[:, 0] + lam[:, -1]
    if isinstance(spec, NonconvexPair):
        if spec.i > n or spec.j > n:
            raise ConfigError("eigenvalue index exceeds matrix dimension")
        return lam[:, spec.i - 1] - np.maximum(-lam[:, spec.j - 1], 0.0)
    if isinstance(spec, LinearDegenerate):
        return np.trace(_sts_values(spec.sigma, x) @ X, axis1=1, axis2=2)
    if isinstance(spec, CoefficientLambdaN):
        return _field_values(spec.a, x, what="coefficient") * lam[:, -1]
    if isinstance(spec, MongeAmpere):
        outside = np.flatnonzero(lam[:, 0] < -MA_CONE_TOL)
        if outside.size:
            raise DomainViolationError(
                "matrix outside the nonnegative cone"
                f" (lambda_1 = {lam[outside[0], 0]:.3e})"
            )
        clamped = np.maximum(lam, 0.0)
        return _pow(np.prod(clamped, axis=1), 1.0 / n)
    if isinstance(spec, SupInf):
        rows = [
            functools.reduce(np.minimum, [_operator_values(m, x, X) for m in row])
            for row in spec.rows
        ]
        return functools.reduce(np.maximum, rows)
    raise ConfigError(f"unknown operator spec {spec!r}")


def evaluate_operator(spec: OperatorSpec, x, X: SymMatrix) -> float:
    """Pointwise value F(x, X). ``x`` may be None for x-independent specs."""
    points = None if x is None else reals(x, "point x")[None]
    return float(_operator_values(spec, points, X.a[None])[0])


def ellipticity_constant(spec: OperatorSpec) -> float:
    """The catalog's stated ellipticity constant for ``spec``."""
    if isinstance(spec, WeightedEigenvalues):
        return sum(spec.alphas)
    if isinstance(spec, (LambdaK, NonconvexPair, MongeAmpere)):
        return 1.0
    if isinstance(spec, (TruncatedLower, TruncatedUpper)):
        return float(spec.k)
    if isinstance(spec, MinMax):
        return 2.0
    if isinstance(spec, LinearDegenerate):
        return spec.sigma.lambda_max_sts
    if isinstance(spec, CoefficientLambdaN):
        return spec.a.lower
    if isinstance(spec, SupInf):
        return min(ellipticity_constant(m) for row in spec.rows for m in row)
    raise ConfigError(f"unknown operator spec {spec!r}")


# ---------------------------------------------------------------------------
# Hamiltonian catalog


@dataclass(frozen=True)
class PowerNorm:
    """H(xi) = b |xi|^p.  b = 0 is allowed (vanishing first-order term)."""

    b: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "b", real(self.b, "power-norm coefficient b", ge=0))
        object.__setattr__(self, "p", _exponent(self.p))


@dataclass(frozen=True)
class AnisotropicPower:
    """H(xi) = <A xi, xi>^(p/2) with 0 <= A <= b^(2/p) I.

    ``b`` is the power-norm coefficient the spec is meant to be dominated
    by; when omitted it defaults to the smallest admissible value
    lambda_N(A)^(p/2).
    """

    A: SymMatrix
    p: float
    b: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _exponent(self.p))
        ev = eigenvalues_sorted(self.A)
        if ev[0] < -1e-12:
            raise ConfigError("anisotropy matrix must be positive semidefinite")
        min_b = float(max(ev[-1], 0.0) ** (self.p / 2.0))
        b = min_b if self.b is None else real(self.b, "anisotropic coefficient b")
        if b < min_b * (1.0 - 1e-12):
            raise ConfigError(f"need b >= lambda_N(A)^(p/2) = {min_b:.6g}, got {b}")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class CompactPerturbation:
    """H(xi) = |xi|^p + bump(xi) with a compactly supported C^1 bump.

    The growth constant c (and the radius R realizing it) are computed at
    construction from the declared bump norms; ``d_lower`` = sup|bump| bounds
    H from below.  The implicit power-norm coefficient is 1.
    """

    p: float
    bump: ScalarField
    norm_inf: float
    dnorm_inf: float
    support_radius: float
    R: float = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        r, c = compact_perturbation_constant(
            self.p, (self.norm_inf, self.dnorm_inf, self.support_radius)
        )
        # admitted by compact_perturbation_constant, stored as Python floats
        for name in ("p", "norm_inf", "dnorm_inf", "support_radius"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "c", c)

    @property
    def d_lower(self) -> float:
        return self.norm_inf


HamiltonianSpec = Union[PowerNorm, AnisotropicPower, CompactPerturbation]


def _hamiltonian_values(spec: HamiltonianSpec, xi: np.ndarray) -> np.ndarray:
    """H(xi_i) over a stack ``xi`` (k, n) of gradients."""
    if not np.all(np.isfinite(xi)):
        raise ConfigError("gradient argument must be finite")
    if isinstance(spec, PowerNorm):
        return spec.b * _pow(np.sqrt(_dot(xi, xi)), spec.p)
    if isinstance(spec, AnisotropicPower):
        q = _dot((xi[:, None, :] @ spec.A.a)[:, 0], xi)
        return _pow(np.maximum(q, 0.0), spec.p / 2.0)
    if isinstance(spec, CompactPerturbation):
        r = np.sqrt(_dot(xi, xi))
        inside = r < spec.support_radius
        bump = np.zeros(r.shape)
        bump[inside] = _field_values(spec.bump, xi[inside], what="bump")
        return _pow(r, spec.p) + bump
    raise ConfigError(f"unknown Hamiltonian spec {spec!r}")


def evaluate_hamiltonian(spec: HamiltonianSpec, xi) -> float:
    return float(_hamiltonian_values(spec, reals(xi, "gradient xi")[None])[0])


def compact_perturbation_constant(
    p: float, norms: tuple[float, float, float]
) -> tuple[float, float]:
    """Growth constants (R, c) for H = |xi|^p + bump.

    ``norms`` is (sup|bump|, sup|D bump|, support radius).  R is the smallest
    radius >= the support radius with R^p >= R_phi^p + sup|bump| (an upper
    bound for sup H over the ball of radius R): R^p increases in R, so R is
    the p-th root of that bound, stepped up a float at a time while
    rounding leaves R^p below it; c = max(R^p, 2 R sup|D bump| + sup|bump|).
    """
    p = real(p, "superlinear exponent p", gt=1)
    norm_inf, dnorm_inf = (real(v, "bump norm", ge=0) for v in norms[:2])
    r_phi = real(norms[2], "support radius", gt=0)
    target = r_phi**p + norm_inf
    r = r_phi
    if norm_inf != 0.0:
        r = max(r_phi, target ** (1.0 / p))
        while r**p < target:
            r = math.nextafter(r, math.inf)
    c = max(r**p, 2.0 * r * dnorm_inf + norm_inf)
    return r, c


# ---------------------------------------------------------------------------
# ball-intersection domains


@dataclass(frozen=True)
class ConvexDomain:
    """Omega = intersection of open balls B_R(y) over the listed centers."""

    radius: float
    centers: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "radius", real(self.radius, "ball radius", gt=0))
        centers = tuple(
            tuple(real(v, "center coordinate") for v in c) for c in self.centers
        )
        object.__setattr__(self, "centers", centers)
        if len({len(c) for c in centers}) != 1:
            raise ConfigError("need one or more ball centers, all of one dimension")
        cs = np.asarray(centers, dtype=float)
        # nonemptiness witness: the centroid must see every center within R
        centroid = cs.mean(axis=0)
        if float(np.linalg.norm(cs - centroid, axis=1).max()) >= self.radius:
            raise ConfigError(
                "ball intersection is empty (centroid witness failed)"
            )

    @property
    def dim(self) -> int:
        return len(self.centers[0])

    def center_array(self) -> np.ndarray:
        return np.asarray(self.centers, dtype=float)

    def max_center_distance(self, x) -> float | np.ndarray:
        """max over centers of |x - y|; vectorized over leading axes of x."""
        x = np.asarray(x, dtype=float)
        # one distance pass per center, with no (..., k, N) difference array
        return functools.reduce(
            np.maximum,
            (np.sqrt(np.sum((x - c) ** 2, axis=-1)) for c in self.center_array()),
        )

    def contains(self, x) -> bool | np.ndarray:
        return self.max_center_distance(x) < self.radius

    def contains_closure(self, x) -> bool | np.ndarray:
        return self.closure_holds(self.max_center_distance(x))

    def closure_holds(self, dist) -> bool | np.ndarray:
        """The closure rule on ``max_center_distance``: R up to 1e-12 (R + 1)."""
        return dist <= self.radius * (1.0 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# structural-condition sampling


@dataclass(frozen=True)
class ConditionResult:
    name: str
    worst_margin: float
    passed: bool
    samples: int
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    results: tuple[ConditionResult, ...]
    seed: int
    comparison_principle: str = "assumed"

    def result(self, name: str) -> ConditionResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


PASS_MARGIN = 1e-9


def _split_for_cone(spec: OperatorSpec) -> bool:
    # Monge-Ampere only sees nonnegative matrices; decrements must be
    # sampled as X = A + B, Y = -B with A, B >= 0 so X + Y stays on the cone
    if isinstance(spec, MongeAmpere):
        return True
    if isinstance(spec, SupInf):
        return any(_split_for_cone(m) for row in spec.rows for m in row)
    return False


def check_structural_conditions(
    op: OperatorSpec,
    ham: HamiltonianSpec,
    params: Params,
    sample_count: int,
    seed: int,
    n: int | None = None,
    extended_ellipticity: bool = False,
) -> ConditionReport:
    """Sampled falsification of the structural inequalities.

    Checks, with ``params.beta`` as the ellipticity constant:
      * decrement bound:   F(x, X+Y) - F(x, X) <= beta lambda_N(Y) for Y <= 0
      * increment bound:   F(x, X+Y) - F(x, X) >= beta lambda_1(Y) for Y >= 0
      * homogeneity:       F(x, sX) = s F(x, X) for s > 0
      * gradient growth:   convex-combination bound (p > 1) or the scaling
                           and two-sided bounds (p < 1)

    With ``extended_ellipticity`` the increment bound is additionally probed
    on Y <= 0, where some catalog members are expected to fail; the failure
    is report content, not an error.

    The samples are drawn one by one from the generator seeded with
    ``seed``, in a fixed order, so a seed names one set of samples; they
    are then built and evaluated in batches (one QR for all PSD draws, one
    operator and one Hamiltonian kernel call for all samples), which gives
    the values a loop over the samples would.

    A condition passes when its worst sampled violation margin is <= 1e-9.
    """
    sample_count = integer(sample_count, "sample count", ge=1)
    default = len(op.alphas) if isinstance(op, WeightedEigenvalues) else 2
    n = integer(default if n is None else n, "dimension n", ge=2, le=8)
    rng = np.random.default_rng(seed)
    on_cone = _split_for_cone(op)
    beta = params.beta

    # the draws, sample by sample in the generator's order: a PSD matrix
    # Q diag(d) Q^T as (G, d) with Q from the QR of G, a symmetric one as A
    # for (A + A^T) / 2, each times the sample's scale
    def draw_psd():
        return rng.standard_normal((n, n)), rng.uniform(0.0, 1.0, size=n)

    def draw_base():
        return draw_psd() if on_cone else rng.uniform(-1.0, 1.0, size=(n, n))

    draws = []
    for _ in range(sample_count):
        x = rng.uniform(-1.0, 1.0, size=n)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        ypos, base, base2 = draw_psd(), draw_base(), draw_base()
        draws.append((x, scale, ypos, base, base2, 10.0 ** rng.uniform(-1.0, 1.0)))
    x, scale, ypos, base, base2, s_draw = zip(*draws)
    x, scale = np.array(x), np.array(scale)

    def psd(pairs):
        g, d = (np.array(v) for v in zip(*pairs))
        q, _ = np.linalg.qr(g)
        d = d * scale[:, None]
        return _symmetric((q * d[:, None, :]) @ np.swapaxes(q, -1, -2))

    def matrices(raw):
        if on_cone:
            return psd(raw)
        a = np.array(raw) * scale[:, None, None]
        return _symmetric(0.5 * (a + np.swapaxes(a, -1, -2)))

    ypos, base, base2 = psd(ypos), matrices(base), matrices(base2)
    xmat = base + ypos if on_cone else base  # X = A + B so X - B stays on the cone
    shifted = base2 + ypos
    lam_pos, lam_neg = np.split(
        _eigenvalues(np.concatenate([ypos, _symmetric(-ypos)])), 2
    )

    # every operator value the conditions read, in one kernel call: F at
    # X, X - Ypos, Z + Ypos, Z, s X for three scales s, and on request at
    # the decremented base point of the extended bound (base point shifted
    # by +Ypos on the cone so the decremented matrix stays admissible)
    homogeneity = (0.5, 2.0, np.array(s_draw))
    stacks = [xmat, xmat - ypos, shifted, base2]
    stacks += [np.reshape(s, (-1, 1, 1)) * xmat for s in homogeneity]
    if extended_ellipticity:
        stacks.append((shifted if on_cone else base2) - ypos)
    values = _operator_values(
        op, np.tile(x, (len(stacks), 1)), np.concatenate(stacks)
    ).reshape(len(stacks), sample_count)
    f_x, f_dec, f_shifted, f_base2 = values[:4]

    # decrement side, Y <= 0: -(F(X') - F(X' - Ypos)) with X' = X + Ypos
    # is the decrement F(Z + Yneg) - F(Z) at Z = X'
    margins = {"F1": -(f_x - f_dec) - beta * lam_neg[:, -1]}
    # increment side, Y >= 0
    margins["deg2"] = beta * lam_pos[:, 0] - (f_shifted - f_base2)
    # positive 1-homogeneity
    margins["F2"] = np.concatenate([
        np.abs(f_s - s * f_x) / np.maximum(1.0, np.abs(s * f_x))
        for s, f_s in zip(homogeneity, values[4:7])
    ])
    if extended_ellipticity:
        # canonical probe Y = -I, taken at X = I on the cone and X = 0 off it
        eye, zero = np.eye(n), np.zeros((n, n))
        f_lo, f_hi = _operator_values(
            op, None, _symmetric(np.array([zero, eye] if on_cone else [-eye, zero]))
        )
        f_z = f_shifted if on_cone else f_base2
        margins["extended_ellipticity"] = np.append(
            beta * lam_neg[:, 0] - (values[7] - f_z), beta * (-1.0) - (f_lo - f_hi)
        )
    notes = {"extended_ellipticity": "increment bound probed outside its cone"}
    results = []
    for name, m in margins.items():
        worst = float(np.max(m))
        results.append(
            ConditionResult(
                name, worst, worst <= PASS_MARGIN, sample_count, notes.get(name, "")
            )
        )
    results.append(_check_hamiltonian(ham, params, sample_count, rng))
    return ConditionReport(results=tuple(results), seed=seed)


def _ham_dim(ham: HamiltonianSpec) -> int:
    return ham.A.n if isinstance(ham, AnisotropicPower) else 2


def _check_hamiltonian(ham, params, sample_count, rng) -> ConditionResult:
    nd = _ham_dim(ham)
    b, c, p = params.b, params.c, params.p
    draws = []
    if p > 1.0:
        name = "H1"
        for _ in range(sample_count):
            scale = 10.0 ** rng.uniform(-1.5, 1.5)
            xi = rng.standard_normal(nd) * scale
            eta = rng.standard_normal(nd) * 10.0 ** rng.uniform(-1.5, 1.5)
            draws.append((xi, eta, rng.uniform(1e-3, 1.0 - 1e-3)))
        xi, eta, sig = (np.array(v) for v in zip(*draws))
        mix = sig[:, None] * eta + (1.0 - sig[:, None]) * xi
        h_mix, h_eta, h_xi = np.split(
            _hamiltonian_values(ham, np.concatenate([mix, eta, xi])), 3
        )
        growth = b * _pow(np.sqrt(_dot(xi, xi)), p) + c
        margins = [h_mix - sig * h_eta - (1.0 - sig) * growth, -h_xi - params.d]
    else:
        name = "H2"
        for _ in range(sample_count):
            scale = 10.0 ** rng.uniform(-1.5, 1.5)
            draws.append((rng.standard_normal(nd) * scale, rng.uniform(1e-3, 1.0)))
        xi, eps = (np.array(v) for v in zip(*draws))
        h, h_eps = np.split(
            _hamiltonian_values(ham, np.concatenate([xi, eps[:, None] * xi])), 2
        )
        growth = b * _pow(np.sqrt(_dot(xi, xi)), p) + c
        margins = [-h, h - growth, eps * h - h_eps]  # H >= 0, growth, scaling
    worst = float(max(np.max(m) for m in margins))
    return ConditionResult(name, worst, worst <= PASS_MARGIN, sample_count)
