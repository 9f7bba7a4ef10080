"""Scalar and array admission at the public boundary.

Every scalar numeric argument of the constructors and entry points goes
through ``_args.real`` or ``_args.integer``.  Fed bool, str, None, NaN,
+-inf, numpy scalars or ``Fraction``, each one either raises
``ConfigError`` or gives the result of the same value as a Python float
(a Python int for integer arguments), and stores Python numbers.

Every array argument (radii, points, matrices, node values) goes through
``_args.reals``.  Fed a bool array, a list holding a bool, str or None, a
ragged nesting, NaN, +-inf, float32 and int64 arrays or a list of
``Fraction``, each one either raises its entry point's class, naming the
input and its first offending entry, or gives the result of the same
float64 values.
"""

import math
import numbers
import operator
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degelliptic._args import integer, real, reals
from degelliptic.barriers import (
    barrier_to_csv,
    build_subsolution,
    build_supersolution,
    evaluate_barrier,
    sample_boundary,
)
from degelliptic.errors import ConfigError, DomainViolationError
from degelliptic.grid import (
    GridFunction,
    GridProblem,
    SolveControls,
    build_grid,
    discrete_second_difference,
    sweep,
)
from degelliptic.model import (
    AnisotropicPower,
    CoefficientLambdaN,
    CompactPerturbation,
    ConvexDomain,
    LambdaK,
    MatrixField,
    NonconvexPair,
    Params,
    PowerNorm,
    ScalarField,
    SymMatrix,
    TruncatedLower,
    TruncatedUpper,
    WeightedEigenvalues,
    check_structural_conditions,
    compact_perturbation_constant,
    evaluate_hamiltonian,
    evaluate_operator,
)
from degelliptic.radial import (
    c1_bound,
    check_threshold,
    critical_s1,
    dphi_ds,
    explicit_sublinear_form,
    explicit_sublinear_solution,
    first_zero,
    phi,
    radial_profile,
    rbar,
    second_zero,
)
from degelliptic.verify import (
    ClosedFormRadial,
    VerifyProblem,
    convergence_study,
    epsilon_scaling,
    residual_check_radial,
    sigma_perturbation,
    threshold_probe,
)

MODEL = Params(beta=2.0, b=1.0, p=2.0, M=1.0)
DISC = ConvexDomain(radius=1.0, centers=((0.0, 0.0),))
GRID = build_grid(DISC, 0.25, 8)
CENTER = GRID.node_index((0.0, 0.0))
U = GridFunction.from_callable(GRID, lambda x: 1.0 - x[:, 0] ** 2 - 0.5 * x[:, 1] ** 2)
PROBLEM = GridProblem(
    CoefficientLambdaN(ScalarField.constant(2.0)), PowerNorm(1.0, 2.0), MODEL, DISC, -1.0
)
ZERO_FORCING = GridProblem(LambdaK(1), None, MODEL, DISC, 0.0)
SUB_FIELD = build_subsolution(DISC, MODEL, 1.0)
# u = 1 - r^2 solves lambda_1(D^2 u) = -2 on the unit ball
BOWL = ClosedFormRadial(
    value=lambda r: 1.0 - r**2, du=lambda r: -2.0 * r, ddu=lambda r: -2.0 + 0.0 * r, R=1.0
)
BOWL_PROBLEM = VerifyProblem(LambdaK(1), None, f=-2.0)
SUB_PROBLEM = VerifyProblem(LambdaK(1), PowerNorm(1.0, 0.5), f=-1.0)
A = SymMatrix.diag([1.0, 0.5])
BUMP = ScalarField.constant(0.1)


def _csv(resolution):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "barrier.csv"
        barrier_to_csv(SUB_FIELD, path, resolution)
        return path.read_text(), []


def _spec(obj, *names):
    """An object that compares by value, as its own key, and the stored fields
    that must be Python numbers."""
    return obj, [getattr(obj, name) for name in names]


def _grid(g):
    return (g.h, g.K, g.nodes_xy.tobytes(), g.arm_lengths.tobytes()), [g.h, g.K]


def _value(x):
    return x, [x]


def _pair(rc):
    return rc, list(rc)


def _weights(alpha):
    spec = WeightedEigenvalues((alpha, 1.0))
    return spec, list(spec.alphas)


def _center(domain):
    return domain, list(domain.centers[0])


def _sampler(sample_count=3, n=None):
    report = check_structural_conditions(
        LambdaK(1), PowerNorm(1.0, 2.0), Params(beta=1, b=1), sample_count, seed=0, n=n
    )
    return report, [r.samples for r in report.results]


def _residual(tolerance):
    report = residual_check_radial(BOWL, BOWL_PROBLEM, (0.2, 0.5), tolerance)
    return report.to_text(), [report.tolerance]


def _sigma(sigma=0.9, epsilon=0.1):
    cert = sigma_perturbation(
        BOWL, BOWL, sigma, epsilon=epsilon, problem=BOWL_PROBLEM, sample_count=8
    )
    return (cert.slack, cert.margins.tobytes(), cert.passed), [cert.sigma, cert.epsilon]


def _epsilon(epsilon=0.1, sup_f=-1.0):
    cert = epsilon_scaling(BOWL, epsilon, sup_f, problem=SUB_PROBLEM, sample_count=8)
    return (cert.slack, cert.margins.tobytes()), [cert.epsilon, cert.sup_f]


def _profile(R=0.9, node_count=64, r_min=1e-6, branch="FirstZeroSuperlinear"):
    prof = radial_profile(branch, R, MODEL, node_count=node_count, r_min=r_min)
    return (prof.r_grid.tobytes(), prof.u_values.tobytes()), [prof.R]


def _study(h=0.25, tol=1e-5):
    return convergence_study(ZERO_FORCING, [h], tol=tol).to_text(), []


def _sweep(tau=0.01, steps=1):
    values = sweep(PROBLEM, GRID, U.values, tau, steps=steps)
    return values.tobytes(), []


def _perturbation(p=2.0, dnorm_inf=0.2, support_radius=1.0):
    ham = CompactPerturbation(p, BUMP, 0.1, dnorm_inf, support_radius)
    return _spec(ham, "p", "norm_inf", "dnorm_inf", "support_radius", "R", "c")


# argument -> (kind, valid values, call(value) -> (result key, stored numbers));
# a "supremum" is a real that may also be +inf; "or None" admits None, the default
CASES = {
    "Params.beta": ("real", (0.5, 2, 2.1), lambda v: _spec(Params(beta=v, b=1), "beta")),
    "Params.p": ("real", (0.5, 2, 3.5), lambda v: _spec(Params(beta=1, b=1, p=v), "p")),
    "Params.M": ("real", (0, 1, 2.5), lambda v: _spec(Params(beta=1, b=1, M=v), "M")),
    "rbar Params.beta": ("real", (2, 2.1), lambda v: _value(rbar(Params(beta=v, b=1)))),
    "ScalarField.lower": (
        "real", (0.5, 1, 2),
        lambda v: _spec(ScalarField(fn=abs, lower=v, upper=5.0), "lower", "upper"),
    ),
    "ScalarField.upper": (
        "supremum", (0.5, 1, 2),
        lambda v: _spec(ScalarField(fn=abs, lower=0.5, upper=v), "lower", "upper"),
    ),
    "ScalarField.constant": (
        "real", (1, 2.5), lambda v: _spec(ScalarField.constant(v), "lower", "upper")
    ),
    "MatrixField.lambda_min_sts": (
        "real", (0, 1.5),
        lambda v: _spec(MatrixField(abs, v, 5.0), "lambda_min_sts", "lambda_max_sts"),
    ),
    "WeightedEigenvalues.alphas": ("real", (0, 0.5, 2), _weights),
    "LambdaK.index": ("integer", (1, 2), lambda v: _spec(LambdaK(v), "index")),
    "TruncatedLower.k": ("integer", (1, 2), lambda v: _spec(TruncatedLower(v), "k")),
    "TruncatedUpper.k": ("integer", (1, 3), lambda v: _spec(TruncatedUpper(v), "k")),
    "NonconvexPair.j": ("integer", (1, 2), lambda v: _spec(NonconvexPair(1, v), "i", "j")),
    "PowerNorm.b": ("real", (0, 1, 2.5), lambda v: _spec(PowerNorm(v, 2.0), "b", "p")),
    "PowerNorm.p": ("real", (0.5, 2, 3), lambda v: _spec(PowerNorm(1.0, v), "b", "p")),
    "AnisotropicPower.p": (
        "real", (2, 3), lambda v: _spec(AnisotropicPower(A, v), "p", "b")
    ),
    "AnisotropicPower.b": (
        "real or None", (1, 2.5), lambda v: _spec(AnisotropicPower(A, 2.0, v), "p", "b")
    ),
    "CompactPerturbation.p": ("real", (2, 2.5), lambda v: _perturbation(p=v)),
    "CompactPerturbation.dnorm_inf": (
        "real", (0, 0.2), lambda v: _perturbation(dnorm_inf=v)
    ),
    "CompactPerturbation.support_radius": (
        "real", (0.5, 1), lambda v: _perturbation(support_radius=v)
    ),
    "compact_perturbation_constant p": (
        "real", (2, 3), lambda v: _pair(compact_perturbation_constant(v, (0.1, 0.2, 1.0)))
    ),
    "check_structural_conditions sample_count": ("integer", (1, 3), _sampler),
    "check_structural_conditions n": ("integer or None", (2, 3), lambda v: _sampler(n=v)),
    "SymMatrix.identity n": (
        "integer", (2, 3), lambda v: (lambda m: (m.a.tobytes(), [m.n]))(SymMatrix.identity(v))
    ),
    "ConvexDomain.radius": (
        "real", (1, 1.5), lambda v: _spec(ConvexDomain(v, ((0.0, 0.0),)), "radius")
    ),
    "ConvexDomain center": (
        "real", (0, 0.3), lambda v: _center(ConvexDomain(1.0, ((v, 0.0),)))
    ),
    "build_grid h": ("real", (0.25, 0.125, 0.2), lambda v: _grid(build_grid(DISC, v, 8))),
    "build_grid K": ("integer", (4, 8, 12), lambda v: _grid(build_grid(DISC, 0.25, v))),
    "Grid2D.node_index x": (
        "real", (0, 0.25, -0.5), lambda v: _value(GRID.node_index((v, 0.0)))
    ),
    "discrete_second_difference node": (
        "integer", (0, 10, 44), lambda v: _value(discrete_second_difference(U, v, 0))
    ),
    "discrete_second_difference direction slot": (
        "integer", (0, 3, 7), lambda v: _value(discrete_second_difference(U, CENTER, v))
    ),
    "discrete_second_difference direction component": (
        "integer", (1, -1, 2),
        lambda v: _value(discrete_second_difference(U, CENTER, (v, 0))),
    ),
    "SolveControls.tol": ("real", (1e-5, 0.001), lambda v: _spec(SolveControls(v), "tol")),
    "sweep tau": ("real", (0, 0.01), lambda v: _sweep(tau=v)),
    "sweep steps": ("integer", (0, 1, 2), lambda v: _sweep(steps=v)),
    "build_supersolution M": (
        "real", (0, 0.5, 1),
        lambda v: _spec(build_supersolution(DISC, MODEL, v), "forcing_norm"),
    ),
    "build_subsolution K": (
        "real", (0, 1, 2.5),
        lambda v: _spec(build_subsolution(DISC, MODEL, v), "forcing_norm"),
    ),
    "barrier_to_csv resolution": ("integer", (4, 16), _csv),
    "sample_boundary count": (
        "integer", (1, 8), lambda v: (sample_boundary(DISC, v).tobytes(), [])
    ),
    "radial_profile R": ("real", (0.5, 0.9), lambda v: _profile(R=v)),
    "radial_profile r_min": (
        "real", (1e-3, 0.01), lambda v: _profile(r_min=v, branch="SecondZeroSuperlinear")
    ),
    "radial_profile node_count": ("integer", (64, 100), lambda v: _profile(node_count=v)),
    "c1_bound R": ("real", (0.5, 1), lambda v: _value(c1_bound(MODEL, v))),
    "explicit_sublinear_form p": (
        "real", (0.25, 0.5),
        lambda v: _spec(explicit_sublinear_form("Lambda1", v, 1.0), "p", "R", "N"),
    ),
    "explicit_sublinear_form R": (
        "real", (1, 0.5),
        lambda v: _spec(explicit_sublinear_form("Lambda1", 0.5, v), "p", "R", "N"),
    ),
    "explicit_sublinear_form N": (
        "integer", (2, 3),
        lambda v: _spec(explicit_sublinear_form("Laplacian", 0.5, 1.0, v), "p", "R", "N"),
    ),
    "ClosedFormRadial.R": (
        "real", (1, 0.5), lambda v: _spec(ClosedFormRadial(abs, abs, abs, v), "R")
    ),
    "VerifyProblem.R": (
        "real", (1, 0.5), lambda v: _spec(VerifyProblem(LambdaK(1), None, 0.0, R=v), "R")
    ),
    "VerifyProblem.N": (
        "integer", (2, 3), lambda v: _spec(VerifyProblem(LambdaK(1), None, 0.0, N=v), "N")
    ),
    "VerifyProblem.hamiltonian_sign": (
        "real", (1, -1),
        lambda v: _spec(
            VerifyProblem(LambdaK(1), None, 0.0, hamiltonian_sign=v), "hamiltonian_sign"
        ),
    ),
    "residual_check_radial tolerance": ("real", (1e-6, 1), _residual),
    "sigma_perturbation sigma": ("real", (0.5, 0.9), lambda v: _sigma(sigma=v)),
    "sigma_perturbation epsilon": ("real", (0.1, 1), lambda v: _sigma(epsilon=v)),
    "epsilon_scaling epsilon": ("real", (0.1, 1), lambda v: _epsilon(epsilon=v)),
    "epsilon_scaling sup_f": ("real", (-1, -0.5), lambda v: _epsilon(sup_f=v)),
    "convergence_study spacing": ("real", (0.25, 0.2), lambda v: _study(h=v)),
    "convergence_study tol": ("real", (1e-5, 0.01), lambda v: _study(tol=v)),
}

# values that are refused whatever the argument, and a few that are not
SPECIALS = [
    True, False, None, "1", "0.25", "abc", math.nan, -math.inf, math.inf,
    np.float64("nan"), np.float32("inf"), np.int64(2), np.float32(0.25), Fraction(1, 4),
]
# the types a valid value is offered in
TYPES = {
    "float": float, "int": int, "float32": np.float32, "float64": np.float64,
    "int64": np.int64, "Fraction": Fraction, "str": str,
}
VALUES = st.one_of(
    st.sampled_from(SPECIALS),
    st.tuples(st.integers(0, 2), st.sampled_from(sorted(TYPES))),
)


REFUSED = object()


def _python(value, kind):
    """``value`` as the Python number it is admitted as, or ``REFUSED``:
    bool and str always, None but where it means the default, non-finite
    reals but +inf as a supremum, and for integer arguments anything
    ``operator.index`` does not read."""
    if value is None and kind.endswith("or None"):
        return None
    if isinstance(value, (bool, str)) or value is None:
        return REFUSED
    if kind.startswith("integer"):
        try:
            return operator.index(value)
        except TypeError:
            return REFUSED
    if not isinstance(value, numbers.Real):
        return REFUSED
    if kind == "supremum" and value == math.inf:
        return math.inf
    return float(value) if math.isfinite(float(value)) else REFUSED


@settings(max_examples=2000, deadline=None)
@given(name=st.sampled_from(sorted(CASES)), value=VALUES)
@example(name="LambdaK.index", value=True)
@example(name="LambdaK.index", value=2.5)
@example(name="PowerNorm.p", value=math.nan)
@example(name="rbar Params.beta", value=np.float32(2.1))
@example(name="build_grid h", value="0.25")
@example(name="build_grid h", value=None)
@example(name="ConvexDomain center", value="0")
def test_scalar_arguments_are_admitted_or_refused(name, value):
    kind, pool, call = CASES[name]
    if isinstance(value, tuple):  # a valid value of this argument, offered as a type
        index, type_name = value
        value = TYPES[type_name](pool[index % len(pool)])
    try:
        key, stored = call(value)
    except ConfigError:
        return
    python = _python(value, kind)
    assert python is not REFUSED, f"{name} admitted {value!r}"
    want, _ = call(python)
    assert key == want, f"{name}: {value!r} and {python!r} give different results"
    assert all(type(x) in (float, int) for x in stored), (name, stored)


class TestHelpers:
    @pytest.mark.parametrize(
        "x, want",
        [(2, 2.0), (np.float32(0.5), 0.5), (np.int64(-3), -3.0), (Fraction(1, 4), 0.25)],
    )
    def test_real_returns_python_float(self, x, want):
        got = real(x, "value")
        assert type(got) is float and got == want

    @pytest.mark.parametrize(
        "x", [True, "1", None, math.nan, math.inf, -math.inf, 10**400, Fraction(10**400)]
    )
    def test_real_refuses(self, x):
        with pytest.raises(ConfigError, match=r"^need a finite real value, got "):
            real(x, "value")

    def test_integer_returns_python_int(self):
        assert type(integer(np.int64(8), "K")) is int and integer(np.int64(8), "K") == 8

    @pytest.mark.parametrize("x", [True, np.bool_(True), 8.0, "8", None, Fraction(8)])
    def test_integer_refuses(self, x):
        with pytest.raises(ConfigError, match=r"^need an integer K, got "):
            integer(x, "K")

    def test_bounds_in_the_message(self):
        with pytest.raises(ConfigError, match=r"^need a finite real sigma > 0 and < 1, got 1$"):
            real(1, "sigma", gt=0, lt=1)
        with pytest.raises(ConfigError, match=r"^need an integer N >= 2 and <= 8, got 9$"):
            integer(9, "N", ge=2, le=8)
        assert real(0, "M", ge=0) == 0.0 and integer(8, "N", ge=2, le=8) == 8


# ---------------------------------------------------------------------------
# arrays

PROFILE = radial_profile("FirstZeroSuperlinear", 0.9, MODEL, node_count=64)
FORM = explicit_sublinear_form("Lambda1", 0.5, 1.0)
# an x-dependent coefficient, so the point is read
VARYING = CoefficientLambdaN(
    ScalarField(fn=lambda x: 1.0 + np.sum(x**2, axis=-1), lower=1.0, upper=3.0)
)
RADII = [0.5, 0.25]
DV, CE = DomainViolationError, ConfigError


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


def _profile_with(extra):
    prof = radial_profile("FirstZeroSuperlinear", 0.9, MODEL, node_count=64,
                          include_radii=extra)
    return prof.r_grid.tobytes() + prof.u_values.tobytes()


def _sweep_values(values):
    return sweep(PROBLEM, GRID, values, 0.01, steps=1).tobytes()


def _field(sigma):
    field = MatrixField.constant(sigma)
    return (field.lambda_min_sts, field.lambda_max_sts, field(np.zeros(2)).tobytes())


# input -> (what the refusal names, its class, a valid value, call(value) -> key)
ARRAYS = {
    "phi r": ("radius r", DV, RADII, lambda v: _bytes(phi(v, 1.0, MODEL))),
    "phi s": ("profile argument s", DV, [1.0, 0.5], lambda v: _bytes(phi(0.5, v, MODEL))),
    "dphi_ds r": ("radius r", DV, RADII, lambda v: _bytes(dphi_ds(v, 1.0, MODEL))),
    "dphi_ds s": (
        "profile argument s", DV, [1.0, 0.5], lambda v: _bytes(dphi_ds(0.5, v, MODEL))
    ),
    "critical_s1": ("radius r", DV, RADII, lambda v: _bytes(critical_s1(v, MODEL))),
    "check_threshold": (
        "ball radius R", DV, [0.5, 1.0], lambda v: _bytes(check_threshold(MODEL, v))
    ),
    "first_zero": ("radius r", DV, RADII, lambda v: _bytes(first_zero(v, MODEL))),
    "second_zero": ("radius r", DV, RADII, lambda v: _bytes(second_zero(v, MODEL))),
    "radial_profile include_radii": ("include_radii", CE, RADII, _profile_with),
    "RadialProfile.value": ("radius r", DV, RADII, lambda v: _bytes(PROFILE.value(v))),
    "RadialProfile.du": ("radius r", DV, RADII, lambda v: _bytes(PROFILE.du(v))),
    "RadialProfile.ddu": ("radius r", DV, RADII, lambda v: _bytes(PROFILE.ddu(v))),
    "ExplicitSublinearForm.value": ("radius r", DV, RADII, lambda v: _bytes(FORM.value(v))),
    "ExplicitSublinearForm.du": ("radius r", DV, RADII, lambda v: _bytes(FORM.du(v))),
    "ExplicitSublinearForm.ddu": ("radius r", DV, RADII, lambda v: _bytes(FORM.ddu(v))),
    "explicit_sublinear_solution": (
        "radius r", DV, RADII,
        lambda v: _bytes(explicit_sublinear_solution("Lambda1", 0.5, 1.0, 2, v)),
    ),
    "SymMatrix": (
        "matrix entry", CE, [[1.0, 0.5], [0.5, 2.0]], lambda v: SymMatrix(v).a.tobytes()
    ),
    "SymMatrix.diag": (
        "matrix entry", CE, [1.0, 0.5], lambda v: SymMatrix.diag(v).a.tobytes()
    ),
    "MatrixField.constant": ("diffusion matrix", CE, [[1.0, 0.2], [0.0, 0.8]], _field),
    "evaluate_operator x": (
        "point x", CE, RADII, lambda v: evaluate_operator(VARYING, v, A)
    ),
    "evaluate_hamiltonian xi": (
        "gradient xi", CE, RADII, lambda v: evaluate_hamiltonian(PowerNorm(1.0, 2.0), v)
    ),
    "evaluate_barrier x": (
        "barrier point x", CE, [[0.5, 0.25], [0.0, -0.75]],
        lambda v: _bytes(evaluate_barrier(SUB_FIELD, v)),
    ),
    "residual_check_radial radii": (
        "sample radius r", DV, RADII,
        lambda v: residual_check_radial(BOWL, BOWL_PROBLEM, v).residuals.tobytes(),
    ),
    "threshold_probe radii": (
        "ball radius R", CE, RADII, lambda v: threshold_probe(MODEL, v)
    ),
    "GridFunction values": (
        "node value", CE, U.values.tolist(),
        lambda v: GridFunction(grid=GRID, values=v).values.tobytes(),
    ),
    "sweep values": ("node value", CE, U.values.tolist(), _sweep_values),
}


def _with_last(valid, entry):
    """``valid`` as nested lists with its last entry replaced by ``entry``."""
    out = np.array(valid, dtype=object)
    out.flat[-1] = entry
    return out.tolist()


def _ragged(valid):
    """``valid`` with its first row one entry longer (a first row of its
    own for a flat list)."""
    if np.ndim(valid) == 1:
        return [valid[:1], list(valid)]
    return [valid[0] + valid[0][:1], *valid[1:]]


def _last_index(valid):
    shape = np.shape(valid)
    return str(shape[0] - 1) if len(shape) == 1 else str(tuple(n - 1 for n in shape))


def _first_index(valid):
    return "0" if np.ndim(valid) == 1 else str((0,) * np.ndim(valid))


# variant -> (input from a valid value, the entry refused and its index), or
# for the numeric variants the float64 value the input must read as
REFUSED_ARRAYS = {
    "bool array": lambda v: (np.full(np.shape(v), True), True, _first_index(v)),
    "bool entry": lambda v: (_with_last(v, True), True, _last_index(v)),
    "str entry": lambda v: (_with_last(v, "0.5"), "0.5", _last_index(v)),
    "None entry": lambda v: (_with_last(v, None), None, _last_index(v)),
    "nan entry": lambda v: (_with_last(v, math.nan), math.nan, _last_index(v)),
    "inf entry": lambda v: (_with_last(v, math.inf), math.inf, _last_index(v)),
    "-inf entry": lambda v: (_with_last(v, -math.inf), -math.inf, _last_index(v)),
    "ragged": lambda v: (_ragged(v), _ragged(v)[0], "0"),
}
READ_ARRAYS = {
    "float32": lambda v: np.asarray(v, dtype=np.float32),
    "int64": lambda v: np.round(v).astype(np.int64),
    "Fraction": lambda v: np.vectorize(Fraction, otypes=[object])(v).tolist(),
}


def _outcome(call, value):
    """(key, None) from ``call(value)``, or (None, its ConfigError)."""
    try:
        return call(value), None
    except ConfigError as err:
        return None, err


@pytest.mark.parametrize("variant", sorted(REFUSED_ARRAYS))
@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_array_arguments_are_refused(name, variant):
    what, error, valid, call = ARRAYS[name]
    value, entry, index = REFUSED_ARRAYS[variant](valid)
    with pytest.raises(ConfigError) as info:
        call(value)
    assert type(info.value) is error, (name, variant, info.value)
    assert f" {what}" in str(info.value), (name, variant, info.value)
    assert str(info.value).endswith(f", got {entry!r} at index {index}"), (
        name, variant, info.value,
    )


@pytest.mark.parametrize("variant", sorted(READ_ARRAYS))
@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_array_arguments_are_read_as_float64(name, variant):
    _, _, valid, call = ARRAYS[name]
    value = READ_ARRAYS[variant](valid)
    key, err = _outcome(call, value)
    want, want_err = _outcome(call, np.asarray(value, dtype=float))
    if want_err is None:
        assert err is None and key == want, (name, variant, err)
    else:  # refused alike, as the float64 values are
        assert type(err) is type(want_err) and str(err) == str(want_err)


class TestReals:
    def test_float64_is_not_copied(self):
        a = np.array([0.5, 1.0])
        assert reals(a, "x") is a

    @pytest.mark.parametrize(
        "x, want",
        [
            (np.float32([0.5]), [0.5]),
            (np.int64([[1, 2]]), [[1.0, 2.0]]),
            ([Fraction(1, 4), 2], [0.25, 2.0]),
            (0.5, 0.5),
            ((), []),
        ],
    )
    def test_reads_float64(self, x, want):
        got = reals(x, "x")
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert got.shape == np.shape(want)

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.array([True, False]), r"^need a finite real x, got True at index 0$"),
            (np.array([0.5j]), r"^need a finite real x, got 0\.5j at index 0$"),
            (np.array(["0.5"]), r"^need a finite real x, got '0\.5' at index 0$"),
            ("abc", r"^need a finite real x, got 'abc'$"),
            (
                [np.zeros((2, 2)), np.zeros((2, 3))],
                r"^need a finite real x, got a ragged nesting$",
            ),
        ],
    )
    def test_refuses(self, x, message):
        with pytest.raises(ConfigError, match=message):
            reals(x, "x")

    def test_bounds_and_class_in_the_refusal(self):
        want = r"^need a finite real r > 0 and <= 1, got 0\.0 at index \(1, 0\)$"
        with pytest.raises(DomainViolationError, match=want):
            reals([[0.5], [0.0]], "r", gt=0, le=1, error=DomainViolationError)
        with pytest.raises(ConfigError, match=r"^need a finite real s >= 0, got -1$"):
            reals(-1, "s", ge=0)
