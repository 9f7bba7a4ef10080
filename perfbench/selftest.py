"""Shows that no output check of the benchmark is vacuous.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

Runs one round of each workload, requires its checker to accept the real
outputs, then hands the checker deliberately wrong copies of them, one
fault at a time, and requires each to be rejected.  Exits 0 only if every
real output passes and every wrong one is caught.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import run


def _csv_edit(text: str, column: str, row, edit) -> str:
    """Apply ``edit`` to one cell of a CSV whose first lines may be #
    comments, or to the whole column when ``row`` is None."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    j = lines[start].split(",").index(column)
    rows = range(start + 1, len(lines)) if row is None else [start + 1 + row]
    for i in rows:
        cells = lines[i].split(",")
        cells[j] = f"{edit(float(cells[j])):.17g}"
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _regrid(inputs, case: str, values):
    """A wrong solution with the residual the package reports for it."""
    import degelliptic as dg

    return dg.residual_norm(
        inputs["problems"][case], dg.GridFunction(grid=inputs["grids"][case], values=values)
    )


def grid_faults(inputs):
    def shift(case, amount):
        def fault(outs):
            sol = outs[case]
            sol["values"] = sol["values"] + amount
            sol["center"] += amount
            sol["residual"] = _regrid(inputs, case, sol["values"])
        return fault

    def bump_one_node(case, amount):
        def fault(outs):
            sol = outs[case]
            k = int(np.argmax(sol["nodes_xy"][:, 0]))  # off the symmetry center
            sol["values"] = sol["values"].copy()
            sol["values"][k] += amount
        return fault

    def bump_pair(case, amount):
        """Keeps the solution point-symmetric, so only the closed form sees it."""
        def fault(outs):
            sol = outs[case]
            keys = np.rint(sol["nodes_xy"] / sol["h"]).astype(int)
            k = int(np.argmax(keys[:, 0]))
            mirror = int(np.flatnonzero((keys == -keys[k]).all(axis=1))[0])
            sol["values"] = sol["values"].copy()
            sol["values"][[k, mirror]] += amount
        return fault

    def field(case, key, value):
        def fault(outs):
            outs[case][key] = value(outs[case])
        return fault

    first = inputs["order"][0]
    faults = {
        f"{first}: residual above the stop residual":
            field(first, "residual", lambda s: 2.0 * s["stop"]),
        f"{first}: one node off its mirror by 1e-3": bump_one_node(first, 1e-3),
        f"{first}: one node negative": field(
            first, "values", lambda s: np.where(np.arange(s["values"].size) == 0, -1e-3, s["values"])),
    }
    if "disc-h64" in inputs["grids"]:
        faults["disc-h64: solution shifted by 1e-2"] = shift("disc-h64", 1e-2)
        faults["disc-h64: center error above disc-h32's"] = field(
            "disc-h64", "center", lambda s: 1.0 - np.log(2.0) - 0.009)
        faults["disc-h16: a node and its mirror 0.02 too high"] = bump_pair("disc-h16", 0.02)
    else:
        faults["lens-aniso-h64: solution shifted by 1e-2"] = shift("lens-aniso-h64", 1e-2)
        faults["lens-power-h64: solution above the supersolution by 10h"] = field(
            "lens-power-h64", "values", lambda s: s["values"] + 10.0 * s["h"] + 0.05)
    return faults


def radial_faults(inputs):
    def tweak(key, index, fn):
        def fault(outs):
            item = list(outs[key])
            item[index] = fn(item[index])
            outs[key] = tuple(item)
        return fault

    def bump_array(delta, at=0):
        def fn(a):
            a = np.array(a, dtype=float)
            a[at] += delta
            return a
        return fn

    def cert(key, name, fn):
        def fault(outs):
            outs[key][name] = fn(outs[key][name])
        return fault

    def threshold(fn):
        def fault(outs):
            params, R, verdicts = outs["threshold"][0]
            outs["threshold"][0] = (params, R, fn([list(v) for v in verdicts]))
        return fault

    def verdict(i, j, value):
        def fn(v):
            v[i][j] = value
            return v
        return fn

    faults = {
        "first_zero root perturbed by 1e-8": tweak("roots", 1, bump_array(1e-8, 5000)),
        "second_zero root perturbed by 1e-8": tweak("roots", 2, bump_array(1e-8, 17)),
        "FirstZeroSuperlinear u(0+) off by 2e-6": tweak("FirstZeroSuperlinear", 2, lambda u: u + 2e-6),
        "SecondZeroSuperlinear profile off by 1e-7": tweak("SecondZeroSuperlinear", 1, bump_array(1e-7, 3)),
        "FirstZeroSublinear profile off by 1e-7": tweak("FirstZeroSublinear", 1, bump_array(1e-7, 100)),
        "FirstZeroSublinear golden root off by 1e-9": tweak("FirstZeroSublinear", 3, bump_array(1e-9, -1)),
        "ZeroM profile off by 1e-7": tweak("ZeroM", 1, bump_array(1e-7, 0)),
        "blow-up ladder value off by 1e-7": tweak(
            "blowup", 0, lambda lad: [(r, u + (1e-7 if i == 2 else 0.0)) for i, (r, u) in enumerate(lad)]),
        "p = 3 center at its bound": tweak("blowup", 2, lambda c: 1.454832),
        "supersolution off by 1e-6": tweak("barrier", 1, bump_array(1e-6, 10)),
        "boundary barrier gap 2e-6": tweak("barrier", 2, bump_array(2e-6, 0)),
        "sigma margin changed by 1e-9": cert("sigma", "margins", bump_array(1e-9, 50)),
        "epsilon margin changed by 1e-9": cert("epsilon", "margins", bump_array(1e-9, 50)),
        "threshold: 0.99 rbar reported missing": threshold(verdict(0, 0, False)),
        "threshold: gap off by 1e-6": threshold(lambda v: verdict(2, 3, v[2][3] + 1e-6)(v)),
        "sampler: one catalog verdict failed": tweak("sampler", 0, lambda c: [False] + list(c[1:])),
        "sampler: NonconvexPair extension passes": tweak(
            "sampler", 1, lambda e: {**e, "passed": True}),
    }
    return faults


def cli_faults(inputs):
    import workloads as W

    def stdout(command, fn):
        def fault(outs):
            outs[command]["stdout"] = fn(outs[command]["stdout"])
        return fault

    def csv(command, name, column, row, fn):
        def fault(outs):
            files = outs[command]["files"]
            files[name] = _csv_edit(files[name], column, row, fn)
        return fault

    def shift_solution(outs):
        solve = outs["solve"]
        text = _csv_edit(solve["files"]["solution.csv"], "u", None, lambda u: u + 1e-2)
        solve["files"]["solution.csv"] = text
        solve["residual"] = W.cli_solve_residual(inputs, text)

    def exit_code(outs):
        outs["sweep"]["code"] = 3

    return {
        "rbar: stdout with a wrong rbar": stdout(
            "rbar", lambda s: s.replace("1.00000000000000", "1.00000000000001")),
        "sweep: nonzero exit code": exit_code,
        "radial: profile.csv u off by 1e-7": csv("radial", "profile.csv", "u", 40, lambda u: u + 1e-7),
        "blowup: blowup.csv u off by 1e-7": csv("blowup", "blowup.csv", "u_rmin", 3, lambda u: u + 1e-7),
        "explicit: du off by 1e-9 relative": csv(
            "explicit", "explicit.csv", "du", 30, lambda d: d * (1.0 + 1e-9)),
        "barrier: upper off by 1e-6": csv("barrier", "barrier.csv", "upper", 100, lambda u: u + 1e-6),
        "solve: solution shifted by 1e-2": shift_solution,
        "verify: a check reported FAIL": stdout(
            "verify", lambda s: s.replace("sigma_perturbation: PASS", "sigma_perturbation: FAIL")),
        "sweep: gap off by 1e-9": csv(
            "sweep", "sweep.csv", "gap", int(np.argmax(inputs["sweep_radii"])), lambda g: g + 1e-9),
    }


FAULTS = {
    "grid-disc": grid_faults,
    "grid-lens": grid_faults,
    "radial-certify": radial_faults,
    "cli": cli_faults,
}


def main() -> int:
    run.require_program()
    import workloads as W

    bad = 0
    for name, make_faults in FAULTS.items():
        wl = W.WORKLOADS[name]
        inputs = wl.build(1, run.work_dir(name))
        ops = W.Ops(W.NullTracer())
        outs = wl.outputs(inputs, wl.run_round(inputs, ops))
        problems = ops.failures + wl.check(inputs, outs)
        print(f"{name}: real outputs {'pass' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        bad += bool(problems)
        for fault_name, fault in make_faults(inputs).items():
            wrong = copy.deepcopy(outs)
            fault(wrong)
            caught = wl.check(inputs, wrong)
            print(f"  {'rejected' if caught else 'ACCEPTED'}: {fault_name}"
                  + (f"  ({caught[0]})" if caught else ""))
            bad += not caught
    print("self-test", "passed" if not bad else f"failed ({bad})")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
