import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import degelliptic


def test_import_loads_no_scipy():
    # scipy is imported where it is used (the Newton solve), so commands
    # that never solve on a grid do not pay for it
    src = str(Path(degelliptic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, degelliptic; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_private_names_stay_in_their_module():
    # each module keeps its underscore names to itself; the sanctioned
    # crossings are the closed-form radial u that the barriers and the grid
    # oracle evaluate at arbitrary distances, the stacked operator and
    # Hamiltonian kernels that verify's radial residuals call, and the one
    # way of evaluating a coefficient or forcing field at many points
    package = Path(degelliptic.__file__).resolve().parent
    crossings = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and not module.startswith("degelliptic"):
                continue
            source = module.rpartition(".")[2]
            for alias in node.names:
                if alias.name.startswith("_"):
                    crossings.add((path.stem, source, alias.name))
    assert crossings == {
        ("barriers", "radial", "_exact_u"),
        ("verify", "radial", "_exact_u"),
        ("verify", "model", "_operator_values"),
        ("verify", "model", "_hamiltonian_values"),
        ("verify", "model", "_field_values"),
        ("grid", "model", "_field_values"),
    }


HOME_MODULES = ("errors", "model", "radial", "barriers", "grid", "verify")

# the names the package exported before it built its list from the modules
EXPORTED = """
    AnisotropicPower BarrierField BoundedOrBlowup BranchError ClosedFormRadial
    CoefficientLambdaN CompactPerturbation ConfigError ConvergenceTable
    ConvexDomain DegellipticError DomainViolationError EpsilonCertificate
    ExplicitSublinearForm Grid2D GridFunction GridProblem LambdaK
    LinearDegenerate MatrixField MinMax MongeAmpere NonconvexPair NumericError
    Params PowerNorm ProfileBranch RadialProfile ResidualReport ScalarField
    SigmaCertificate SolveControls SolveReport SupInf SymMatrix ThresholdError
    ThresholdVerdict TruncatedLower TruncatedUpper
    UnsupportedDiscretizationError VerificationError VerifyProblem
    WeightedEigenvalues __version__ build_grid build_subsolution
    build_supersolution c1_bound classify_blowup convergence_study critical_s1
    ellipticity_constant epsilon_scaling evaluate_barrier evaluate_hamiltonian
    evaluate_operator explicit_sublinear_form explicit_sublinear_solution
    first_zero phi profile_to_csv radial_profile rbar report_to_text
    residual_check_radial residual_norm second_zero sigma_perturbation
    solution_to_csv solve sweep threshold_probe
""".split()


def test_package_exports_the_modules_public_names():
    modules = [importlib.import_module(f"degelliptic.{m}") for m in HOME_MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert len(degelliptic.__all__) == len(set(degelliptic.__all__))
    assert set(degelliptic.__all__) == {"__version__"} | set(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(degelliptic, name) is getattr(module, name), name
    assert len(EXPORTED) == 72
    assert set(EXPORTED) <= set(degelliptic.__all__)
    assert "check_threshold" in degelliptic.__all__
    assert "discrete_operator" in degelliptic.__all__
