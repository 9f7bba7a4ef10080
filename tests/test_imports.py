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
