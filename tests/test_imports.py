import ast
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
