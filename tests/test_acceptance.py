"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test states its tolerance inline; the frozen constants
come from the closed-form solutions the package is built around, worked out
independently (see the derivations referenced in tests/test_radial.py and
tests/test_verify.py).

Criterion 9 performs three full grid solves with Newton steps on the
assembled stencil (about 0.2 s for the h = 1/64 solve, 3 Newton steps,
each factored, on a 2-CPU machine).
"""

import math
import time

import numpy as np
import pytest

from degelliptic.barriers import (
    build_subsolution,
    build_supersolution,
    evaluate_barrier,
    sample_boundary,
)
from degelliptic.cli import main
from degelliptic.grid import GridProblem, SolveControls, build_grid, solve
from degelliptic.model import (
    CoefficientLambdaN,
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
    ellipticity_constant,
)
from degelliptic.radial import (
    c1_bound,
    classify_blowup,
    explicit_sublinear_form,
    first_zero,
    radial_profile,
    rbar,
    second_zero,
)
from degelliptic.verify import (
    VerifyProblem,
    epsilon_scaling,
    residual_check_radial,
    sigma_perturbation,
    threshold_probe,
)

MODEL = Params(beta=2.0, b=1.0, p=2.0, M=1.0)
SUB = Params(beta=1.0, b=1.0, p=0.5, M=1.0)
U_AT_ZERO = 1.0 - math.log(2.0)

DISC = ConvexDomain(radius=1.0, centers=((0.0, 0.0),))
LENS = ConvexDomain(radius=1.0, centers=((-0.3, 0.0), (0.3, 0.0)))

MODEL_INI = """\
[params]
beta = 2.0
b = 1.0
p = 2.0
M = 1.0

[problem]
operator = CoefficientLambdaN
coefficient = 2.0
hamiltonian = PowerNorm
ham_b = 1.0
ham_p = 2.0
f = -1.0
"""


def _random_params(rng, p_low, p_high):
    return Params(
        beta=rng.uniform(0.3, 3.0),
        b=rng.uniform(0.3, 3.0),
        p=rng.uniform(p_low, p_high),
        M=rng.uniform(0.3, 3.0),
    )


def test_criterion_01_model_case_roots():
    """Both root branches match 1/r -+ sqrt(1/r^2 - 1) to 1e-10 at 1e4
    radii in (0, 1], in under a second."""
    radii = np.linspace(1e-4, 1.0, 10_000)
    t0 = time.perf_counter()
    lo = first_zero(radii, MODEL)
    hi = second_zero(radii, MODEL)
    elapsed = time.perf_counter() - t0

    inv = 1.0 / radii
    gap = np.sqrt(inv * inv - 1.0)
    assert float(np.max(np.abs(lo - (inv - gap)))) <= 1e-10
    assert float(np.max(np.abs(hi - (inv + gap)))) <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_model_case_profile():
    """The closed-form profile reproduces u0: u(0.5) and u(0+) to 1e-6,
    node residuals below 1e-9."""
    prof = radial_profile(
        "FirstZeroSuperlinear", 1.0, MODEL, node_count=512, include_radii=(0.5,)
    )
    # u0(r) = w - log(1+w) with w = sqrt(1-r^2): u0(0.5) = 0.242215 to six
    # decimals, u0(0+) = 1 - log 2
    w_half = math.sqrt(0.75)
    u_half = float(prof.value(0.5))
    assert abs(u_half - (w_half - math.log1p(w_half))) <= 1e-6
    assert abs(u_half - 0.242215) <= 1e-6
    assert abs(prof.u_at_zero - U_AT_ZERO) <= 1e-6
    assert float(np.max(np.abs(prof.residuals))) <= 1e-9


def test_criterion_03_existence_threshold(tmp_path, capsys):
    """rbar command prints 1 to 15 digits for the model case; the probe
    flags Exists/endpoint/FailsAt at 0.99, 1.00, 1.01 times the threshold
    for 20 random superlinear parameter sets."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(MODEL_INI, encoding="utf-8")
    code = main(["rbar", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "rbar = 1.00000000000000" in out

    rng = np.random.default_rng(1203)
    for _ in range(20):
        params = _random_params(rng, 1.1, 4.0)
        threshold = rbar(params)
        below, at, above = threshold_probe(
            params, (0.99 * threshold, threshold, 1.01 * threshold)
        )
        assert below.exists and not below.endpoint
        assert at.exists and at.endpoint
        assert not above.exists
        assert above.fails_at == pytest.approx(1.01 * threshold, rel=1e-12)
        assert above.gap is not None and above.gap > 0.0


def test_criterion_04_derivative_limit():
    """s0(h)/h approaches M/beta: relative error at h=1e-6 below 1e-3 on
    both branches for 20 random parameter sets."""
    # the remainder is (b/M)(M h / beta)^p, so on the sublinear branch p
    # must stay away from 0 for the limit to be resolved at h=1e-6; over
    # p >= 0.75 and coefficients in (0.3, 3) it is at most 1.8e-4
    h = 1e-6
    rng = np.random.default_rng(804)
    for _ in range(20):
        for p_low, p_high in ((1.1, 4.0), (0.75, 0.95)):
            params = _random_params(rng, p_low, p_high)
            slope = float(first_zero(h, params)) / h
            target = params.M / params.beta
            assert abs(slope - target) <= 1e-3 * target


def test_criterion_05_blowup_dichotomy():
    """p=2 model profile gains at least 0.5 per decade down to r=1e-6;
    for (1,1,3,1) the center value stays strictly below the 1.454832 sup
    bound."""
    prof = radial_profile(
        "SecondZeroSuperlinear",
        1.0,
        MODEL,
        node_count=2048,
        r_min=1e-6,
        include_radii=tuple(10.0 ** -k for k in range(1, 7)),
    )
    assert classify_blowup(MODEL).kind == "Blowup"
    assert prof.u_at_zero == math.inf
    values = prof.value(np.array([10.0 ** -k for k in range(1, 7)]))
    assert values[0] >= 0.5  # first decade, measured from u(1) = 0
    assert float(np.min(np.diff(values))) >= 0.5

    bounded = Params(beta=1.0, b=1.0, p=3.0, M=1.0)
    verdict = classify_blowup(bounded)
    assert verdict.kind == "Bounded"
    assert verdict.bound <= 1.454832
    prof3 = radial_profile(
        "SecondZeroSuperlinear", rbar(bounded), bounded, node_count=1024
    )
    assert prof3.u_at_zero < verdict.bound
    assert float(np.max(prof3.u_values)) < verdict.bound


def test_criterion_06_sublinear_golden_ratio():
    """first_zero(1) = (3 + sqrt 5)/2 to 1e-10 for (1,1,1/2,1)."""
    root = float(first_zero(1.0, Params(beta=1.0, b=1.0, p=0.5, M=1.0)))
    assert abs(root - (3.0 + math.sqrt(5.0)) / 2.0) <= 1e-10


def test_criterion_07_explicit_sublinear_forms():
    """All four zero-forcing closed forms pass the radial residual check at
    1e-6 for p in {1/4, 1/2, 3/4}, radii {0.3, 0.6, 0.9}, N in {2, 3}."""
    cases = [
        ("Lambda1", lambda n: LambdaK(1), 1.0),
        ("LambdaI", lambda n: LambdaK(2), 1.0),
        ("Laplacian", lambda n: WeightedEigenvalues((1.0,) * n), 1.0),
        ("MongeAmpere", lambda n: MongeAmpere(), -1.0),
    ]
    for kind, make_op, hsign in cases:
        for n in (2, 3):
            for p in (0.25, 0.5, 0.75):
                form = explicit_sublinear_form(kind, p, 1.0, n)
                problem = VerifyProblem(
                    operator=make_op(n),
                    hamiltonian=PowerNorm(1.0, p),
                    f=0.0,
                    N=n,
                    hamiltonian_sign=hsign,
                )
                report = residual_check_radial(
                    form, problem, (0.3, 0.6, 0.9), tolerance=1e-6
                )
                assert report.passed, (kind, n, p, report.max_abs)


def test_criterion_08_c1_bounds():
    """Every first-zero profile obeys max s <= c1_bound and u(0) <= c1_bound
    for 50 random parameter sets across both branches."""
    rng = np.random.default_rng(115)
    for i in range(50):
        if i % 2 == 0:
            params = _random_params(rng, 1.1, 4.0)
            R = 0.8 * rbar(params)
            branch = "FirstZeroSuperlinear"
        else:
            params = _random_params(rng, 0.1, 0.9)
            R = rng.uniform(0.3, 2.0)
            branch = "FirstZeroSublinear"
        prof = radial_profile(branch, R, params, node_count=256)
        bound = c1_bound(params, R)
        assert float(np.max(prof.s_values)) <= bound
        assert prof.u_at_zero <= bound


def test_criterion_09_grid_benchmark():
    """Unit-disc model solve: center error at most 5% of 1 - log 2 at
    h=1/64 with K=8, strictly decreasing over h in {1/16, 1/32, 1/64},
    each solve under 60 s."""
    problem = GridProblem(
        operator=CoefficientLambdaN(ScalarField.constant(2.0)),
        hamiltonian=PowerNorm(b=1.0, p=2.0),
        params=MODEL,
        domain=DISC,
        f=-1.0,
    )
    errors = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = build_grid(DISC, h, 8)
        t0 = time.perf_counter()
        u, _ = solve(problem, grid, SolveControls(tol=1e-5))
        assert time.perf_counter() - t0 <= 60.0
        errors.append(abs(u.value_at((0.0, 0.0)) - U_AT_ZERO))
    assert errors[0] > errors[1] > errors[2], errors
    assert errors[2] <= 0.05 * U_AT_ZERO


def test_criterion_10_barrier_sandwich():
    """On the lens, the converged solution sits between the barriers with
    10h slack at every interior node; the barrier gap at the boundary is
    at most 1e-6 over 512 sampled points."""
    h = 1 / 32
    grid = build_grid(LENS, h, 8)
    problem = GridProblem(
        operator=CoefficientLambdaN(ScalarField.constant(2.0)),
        hamiltonian=PowerNorm(b=1.0, p=2.0),
        params=MODEL,
        domain=LENS,
        f=-1.0,
    )
    u, _ = solve(problem, grid, SolveControls(tol=1e-5))
    upper = evaluate_barrier(build_supersolution(LENS, MODEL, M=1.0), grid.nodes_xy)
    lower = evaluate_barrier(build_subsolution(LENS, MODEL, K=1.0), grid.nodes_xy)
    slack = 10.0 * h
    assert float(np.max(u.values - upper)) <= slack
    assert float(np.max(lower - u.values)) <= slack

    pts = sample_boundary(LENS, 512)
    assert pts.shape[0] >= 512
    gap = evaluate_barrier(build_supersolution(LENS, MODEL, M=1.0), pts) - (
        evaluate_barrier(build_subsolution(LENS, MODEL, K=1.0), pts)
    )
    assert float(np.max(np.abs(gap))) <= 1e-6


def test_criterion_11_perturbation_certificates():
    """Both certificates reproduce their slack and their 200 sampled margins
    under independent closed-form recomputation to 1e-10."""
    # sigma side: model solutions at M=1 and M=1.1 on the 0.9-ball have
    # s = M r / (1 + w), w = sqrt(1 - M r^2), written cancellation-free
    v = radial_profile("FirstZeroSuperlinear", 0.9, MODEL, node_count=512)
    bumped = Params(beta=2.0, b=1.0, p=2.0, M=1.1)
    varphi = radial_profile("FirstZeroSuperlinear", 0.9, bumped, node_count=512)
    problem = VerifyProblem(
        operator=CoefficientLambdaN(ScalarField.constant(2.0)),
        hamiltonian=PowerNorm(1.0, 2.0),
        f=-1.0,
        N=2,
        R=0.9,
    )
    sigma, epsilon = 0.9, 0.1
    cert = sigma_perturbation(
        v, varphi, sigma, epsilon=epsilon, problem=problem, sample_count=200
    )
    assert cert.passed and cert.radii.size == 200
    assert abs(cert.slack - (1.0 - sigma) * epsilon) <= 1e-10
    r = cert.radii
    w1 = np.sqrt(1.0 - r**2)
    w2 = np.sqrt(1.0 - 1.1 * r**2)
    du = sigma * (-r / (1.0 + w1)) + (1.0 - sigma) * (-1.1 * r / (1.0 + w2))
    ddu = sigma * (-1.0 / ((1.0 + w1) * w1)) + (1.0 - sigma) * (
        -1.1 / ((1.0 + w2) * w2)
    )
    margins = -(2.0 * np.maximum(ddu, du / r) + np.abs(du) ** 2 + 1.0)
    assert float(np.max(np.abs(margins - cert.margins))) <= 1e-10
    assert cert.min_margin >= cert.slack - 1e-10

    # epsilon side: the sublinear root solves s - r sqrt(s) - r = 0, so
    # sqrt(s) = (r + t)/2 with t = sqrt(r^2 + 4r)
    sub = radial_profile("FirstZeroSublinear", 1.0, SUB, node_count=512)
    sub_problem = VerifyProblem(
        operator=LambdaK(2), hamiltonian=PowerNorm(1.0, 0.5), f=-1.0, N=2
    )
    eps = 0.1
    cert2 = epsilon_scaling(sub, eps, -1.0, problem=sub_problem, sample_count=200)
    assert cert2.passed and cert2.radii.size == 200
    assert abs(cert2.slack - eps * 1.0) <= 1e-10
    r2 = cert2.radii
    t = np.sqrt(r2**2 + 4.0 * r2)
    s = ((r2 + t) / 2.0) ** 2
    sprime = (r2 + t) * (t + r2 + 2.0) / (2.0 * t)
    du2 = -(1.0 + eps) * s
    ddu2 = -(1.0 + eps) * sprime
    margins2 = -(np.maximum(ddu2, du2 / r2) + np.abs(du2) ** 0.5 + 1.0)
    assert float(np.max(np.abs(margins2 - cert2.margins))) <= 1e-10
    assert cert2.min_margin >= cert2.slack - 1e-10
    assert cert2.h2_min_margin >= -1e-12


def test_criterion_12_structural_sampler():
    """Every catalog operator passes the sampled structural conditions at
    its stated ellipticity constant; NonconvexPair fails the increment
    bound once it is extended to Y <= 0 with beta < 2."""
    catalog = [
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
    ]
    for op, n in catalog:
        params = Params(beta=ellipticity_constant(op), b=1.0, p=2.0, M=1.0)
        report = check_structural_conditions(
            op, PowerNorm(1.0, 2.0), params, sample_count=200, seed=7, n=n
        )
        assert report.all_passed, (op, [r for r in report.results if not r.passed])

    params = Params(beta=1.0, b=1.0, p=2.0, M=1.0)
    report = check_structural_conditions(
        NonconvexPair(1, 2),
        PowerNorm(1.0, 2.0),
        params,
        sample_count=200,
        seed=7,
        extended_ellipticity=True,
    )
    violated = report.result("extended_ellipticity")
    assert not violated.passed
    assert violated.worst_margin >= 2.0 - params.beta - 1e-12
    assert report.result("F1").passed and report.result("deg2").passed
