"""The four benchmark workloads: inputs, one timed round, outputs, checks.

A workload is four functions over plain data:

  build(seed, work)            inputs; this is the set-up ``setup_s`` times
  run_round(inputs, ops)       the timed operations of one round
  outputs(inputs, raw)         plain outputs for the checker (untimed)
  check(inputs, outs)          list of problems, empty when right

``ops`` counts each call into the package as one operation and opens one
trace span around it, so the same round code serves the timed and the
traced runs.  Every round runs the same operations, so the share of failed
operations does not depend on the seed or on the run length.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import degelliptic as dg
from degelliptic.barriers import sample_boundary
from degelliptic.model import (
    MatrixField,
    MinMax,
    MongeAmpere,
    NonconvexPair,
    SupInf,
    SymMatrix,
    TruncatedLower,
    TruncatedUpper,
    check_structural_conditions,
)

import closed_forms as cf

MODEL = dg.Params(beta=2.0, b=1.0, p=2.0, M=1.0)
SUB = dg.Params(beta=1.0, b=1.0, p=0.5, M=1.0)
DISC_CENTERS = ((0.0, 0.0),)
LENS_CENTERS = ((-0.3, 0.0), (0.3, 0.0))
ANISO_A = ((0.8, 0.2), (0.2, 0.5))
TOL = 1e-5

# grid cases: name -> (domain, hamiltonian, h, K)
DISC_CASES = {
    "disc-h16": ("disc", "power", 1 / 16, 8),
    "disc-h32": ("disc", "power", 1 / 32, 8),
    "disc-h64": ("disc", "power", 1 / 64, 8),
    "disc-h64-k16": ("disc", "power", 1 / 64, 16),
}
LENS_CASES = {
    "lens-power-h64": ("lens", "power", 1 / 64, 8),
    "lens-aniso-h64": ("lens", "aniso", 1 / 64, 8),
}
GRID_CASES = {**DISC_CASES, **LENS_CASES}
K8_LADDER = ("disc-h16", "disc-h32", "disc-h64")
PROFILE_BRANCHES = ("FirstZeroSuperlinear", "SecondZeroSuperlinear",
                    "FirstZeroSublinear", "ZeroM")
CLI_COMMANDS = ("rbar", "radial", "blowup", "explicit", "barrier", "solve",
                "verify", "sweep")
# small enough that the radial and barrier calls dominate radial-certify
SAMPLER_COUNT = 10
THRESHOLD_SETS = 8
EVAL_POINTS = 20_000


# ---------------------------------------------------------------------------
# tracing and operation counting


class Tracer:
    """Spans (id, name, start, end, parent id) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    def span(self, name: str):
        return nullcontext()


class Ops:
    """Runs each call into the package as one counted, timed, traced
    operation; ``times`` maps (span name, call index under that name) to
    the wall time of the call."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[tuple[str, int], float] = {}
        self._calls: dict[str, int] = {}

    def __call__(self, span: str, fn, *args, **kwargs):
        self.attempted += 1
        with self.tracer.span(span):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as err:  # a failed operation is counted, not fatal
                self.failures.append(f"{span}: {err!r}")
                return None
            finally:
                k = self._calls.get(span, 0)
                self._calls[span] = k + 1
                self.times[(span, k)] = time.perf_counter() - t0


@contextmanager
def traced_spsolve(tracer):
    """Wrap scipy.sparse.linalg.spsolve, which the Newton path looks up at
    call time, so each linear solve is a span under its grid solve."""
    import scipy.sparse.linalg as sla

    original = sla.spsolve

    def spsolve(*args, **kwargs):
        with tracer.span("grid.spsolve"):
            return original(*args, **kwargs)

    sla.spsolve = spsolve
    try:
        yield
    finally:
        sla.spsolve = original


# ---------------------------------------------------------------------------
# grid workloads


def grid_problem(domain: str, ham: str):
    dom = dg.ConvexDomain(radius=1.0, centers=DISC_CENTERS if domain == "disc" else LENS_CENTERS)
    hamiltonian = (
        dg.PowerNorm(b=1.0, p=2.0)
        if ham == "power"
        else dg.AnisotropicPower(SymMatrix(ANISO_A), p=2.0, b=1.0)
    )
    return dg.GridProblem(
        operator=dg.CoefficientLambdaN(dg.ScalarField.constant(2.0)),
        hamiltonian=hamiltonian,
        params=MODEL,
        domain=dom,
        f=-1.0,
    )


def build_grid_inputs(cases: dict, seed: int) -> dict:
    order = [list(cases)[i] for i in np.random.default_rng(seed).permutation(len(cases))]
    problems, grids = {}, {}
    for name in order:
        domain, ham, h, K = cases[name]
        problems[name] = grid_problem(domain, ham)
        grids[name] = dg.build_grid(problems[name].domain, h, K)
    return {"order": order, "problems": problems, "grids": grids, "cases": cases}


def run_grid_round(inputs: dict, ops: Ops) -> dict:
    controls = dg.SolveControls(tol=TOL)
    return {
        name: ops(f"grid.solve.{name}", dg.solve, inputs["problems"][name],
                  inputs["grids"][name], controls)
        for name in inputs["order"]
    }


def grid_outputs(inputs: dict, raw: dict) -> dict:
    outs = {}
    for name, result in raw.items():
        if result is None:
            continue
        u, report = result
        domain, _, h, K = inputs["cases"][name]
        problem = inputs["problems"][name]
        outs[name] = {
            "case": name,
            "domain": domain,
            "h": h,
            "radius": 1.0,
            "beta": MODEL.beta,
            "centers": problem.domain.centers,
            "values": np.array(u.values),
            "nodes_xy": np.array(u.grid.nodes_xy),
            "residual": dg.residual_norm(problem, u),
            "stop": report.stop_residual,
            "center": u.value_at((0.0, 0.0)),
            "iterations": report.iterations,
            "solve_s": report.wall_time,
        }
    return outs


def check_grid(inputs: dict, outs: dict) -> list[str]:
    problems: list[str] = []
    for sol in outs.values():
        problems.extend(cf.check_grid_solution(sol))
    if all(name in outs for name in K8_LADDER):
        problems.extend(
            cf.check_disc_ladder([abs(outs[n]["center"] - cf.U_AT_ZERO) for n in K8_LADDER])
        )
    return problems


# ---------------------------------------------------------------------------
# radial-certify


def _random_superlinear(rng) -> dg.Params:
    return dg.Params(
        beta=rng.uniform(0.3, 3.0), b=rng.uniform(0.3, 3.0),
        p=rng.uniform(1.1, 4.0), M=rng.uniform(0.3, 3.0),
    )


def _catalog():
    """The criterion-12 operator catalog with the dimension each is probed in."""
    return [
        (dg.WeightedEigenvalues((0.5, 1.5)), 2),
        (dg.LambdaK(1), 2),
        (dg.LambdaK(2), 2),
        (TruncatedLower(2), 3),
        (TruncatedUpper(2), 3),
        (MinMax(), 2),
        (NonconvexPair(1, 2), 2),
        (dg.CoefficientLambdaN(dg.ScalarField.constant(1.3)), 2),
        (dg.LinearDegenerate(MatrixField.constant([[1.0, 0.2], [0.0, 0.8]])), 2),
        (MongeAmpere(), 3),
        (SupInf(((dg.LambdaK(1), MinMax()), (dg.LambdaK(2),))), 2),
    ]


def build_radial_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    radii = np.sort(np.concatenate([[1e-4, 1.0], rng.uniform(1e-4, 1.0, 9_998)]))
    lens = dg.ConvexDomain(radius=1.0, centers=LENS_CENTERS)
    box = rng.uniform((-0.7, -0.96), (0.7, 0.96), size=(4 * EVAL_POINTS, 2))
    inside = lens.max_center_distance(box) < 1.0
    return {
        "seed": seed,
        "radii": radii,
        "lens": lens,
        "interior": box[inside][:EVAL_POINTS],
        "boundary": sample_boundary(lens, 512),
        "threshold_params": [_random_superlinear(rng) for _ in range(THRESHOLD_SETS)],
        "catalog": _catalog(),
        "profile_params": {
            "FirstZeroSuperlinear": MODEL,
            "SecondZeroSuperlinear": MODEL,
            "FirstZeroSublinear": SUB,
            "ZeroM": dg.Params(beta=2.0, b=1.0, p=2.0, M=0.0),
        },
        "p3": dg.Params(beta=1.0, b=1.0, p=3.0, M=1.0),
        "sigma_problem": dg.VerifyProblem(
            operator=dg.CoefficientLambdaN(dg.ScalarField.constant(2.0)),
            hamiltonian=dg.PowerNorm(1.0, 2.0), f=-1.0, N=2, R=0.9,
        ),
        "epsilon_problem": dg.VerifyProblem(
            operator=dg.LambdaK(2), hamiltonian=dg.PowerNorm(1.0, 0.5), f=-1.0, N=2
        ),
    }


def _threshold(params):
    R = dg.rbar(params)
    return R, dg.threshold_probe(params, (0.99 * R, R, 1.01 * R))


def _sampler(inputs):
    return [
        check_structural_conditions(
            op, dg.PowerNorm(1.0, 2.0),
            dg.Params(beta=dg.ellipticity_constant(op), b=1.0, p=2.0, M=1.0),
            sample_count=SAMPLER_COUNT, seed=inputs["seed"], n=n,
        ).all_passed
        for op, n in inputs["catalog"]
    ]


def run_radial_round(inputs: dict, ops: Ops) -> dict:
    raw: dict = {}
    tr = ops.tracer
    with tr.span("radial.roots"):
        raw["first"] = ops("radial.first_zero", dg.first_zero, inputs["radii"], MODEL)
        raw["second"] = ops("radial.second_zero", dg.second_zero, inputs["radii"], MODEL)
    for branch in PROFILE_BRANCHES:
        raw[branch] = ops(f"radial.profile.{branch}", dg.radial_profile, branch, 1.0,
                          inputs["profile_params"][branch], node_count=512)
    with tr.span("radial.blowup"):
        raw["ladder"] = [
            ops("radial.ladder", dg.radial_profile, "SecondZeroSuperlinear", 1.0, MODEL,
                node_count=512, r_min=10.0**-k)
            for k in range(1, 7)
        ]
        raw["p2_kind"] = ops("radial.classify", dg.classify_blowup, MODEL)
        raw["p3_kind"] = ops("radial.classify", dg.classify_blowup, inputs["p3"])
        raw["p3"] = ops("radial.profile.p3", dg.radial_profile, "SecondZeroSuperlinear",
                        dg.rbar(inputs["p3"]), inputs["p3"], node_count=1024)
    raw["super"] = ops("barriers.supersolution", dg.build_supersolution,
                       inputs["lens"], MODEL, 1.0)
    sub = dg.build_subsolution(inputs["lens"], MODEL, 1.0)
    with tr.span("barriers.evaluate"):
        if raw["super"] is not None:
            raw["upper"] = ops("barriers.evaluate_barrier", dg.evaluate_barrier,
                               raw["super"], inputs["interior"])
            raw["upper_boundary"] = ops("barriers.evaluate_barrier", dg.evaluate_barrier,
                                        raw["super"], inputs["boundary"])
        raw["lower_boundary"] = ops("barriers.evaluate_barrier", dg.evaluate_barrier,
                                    sub, inputs["boundary"])
    with tr.span("verify.sigma"):
        v = ops("radial.profile.sigma", dg.radial_profile, "FirstZeroSuperlinear", 0.9,
                MODEL, node_count=512)
        varphi = ops("radial.profile.sigma", dg.radial_profile, "FirstZeroSuperlinear",
                     0.9, dg.Params(beta=2.0, b=1.0, p=2.0, M=1.1), node_count=512)
        if v is not None and varphi is not None:
            raw["sigma"] = ops("verify.sigma_perturbation", dg.sigma_perturbation, v, varphi,
                               0.9, epsilon=0.1, problem=inputs["sigma_problem"],
                               sample_count=200)
    with tr.span("verify.epsilon"):
        if raw["FirstZeroSublinear"] is not None:
            raw["epsilon"] = ops("verify.epsilon_scaling", dg.epsilon_scaling,
                                 raw["FirstZeroSublinear"], 0.1, -1.0,
                                 problem=inputs["epsilon_problem"], sample_count=200)
    with tr.span("verify.threshold"):
        raw["threshold"] = [ops("verify.threshold_probe", _threshold, p)
                            for p in inputs["threshold_params"]]
    with tr.span("model.sampler"):
        raw["catalog"] = ops("model.check_structural_conditions", _sampler, inputs)
        raw["extended"] = ops(
            "model.check_structural_conditions", check_structural_conditions,
            NonconvexPair(1, 2), dg.PowerNorm(1.0, 2.0),
            dg.Params(beta=1.0, b=1.0, p=2.0, M=1.0), sample_count=SAMPLER_COUNT,
            seed=inputs["seed"], extended_ellipticity=True,
        )
    return raw


def radial_outputs(inputs: dict, raw: dict) -> dict:
    outs: dict = {}
    if raw["first"] is not None and raw["second"] is not None:
        outs["roots"] = (inputs["radii"], np.asarray(raw["first"]), np.asarray(raw["second"]))
    for branch in PROFILE_BRANCHES:
        prof = raw[branch]
        if prof is not None:
            outs[branch] = (prof.r_grid, prof.u_values, prof.u_at_zero, prof.s_values)
    if None not in raw["ladder"] and None not in (raw["p2_kind"], raw["p3_kind"], raw["p3"]):
        outs["blowup"] = (
            [(float(p.r_grid[0]), float(p.u_values[0])) for p in raw["ladder"]],
            raw["p3_kind"].bound, raw["p3"].u_at_zero, raw["p2_kind"].kind,
        )
    if raw.get("upper") is not None and raw.get("upper_boundary") is not None \
            and raw["lower_boundary"] is not None:
        outs["barrier"] = (inputs["interior"], raw["upper"],
                           raw["upper_boundary"] - raw["lower_boundary"])
    for key in ("sigma", "epsilon"):
        cert = raw.get(key)
        if cert is not None:
            outs[key] = {
                "radii": cert.radii, "margins": cert.margins, "slack": cert.slack,
                "min_margin": cert.min_margin, "passed": cert.passed,
                "h2_min_margin": getattr(cert, "h2_min_margin", 0.0),
            }
    outs["threshold"] = []
    for params, res in zip(inputs["threshold_params"], raw["threshold"]):
        if res is not None:
            R, verdicts = res
            outs["threshold"].append((
                (params.beta, params.b, params.p, params.M), R,
                [(v.exists, v.endpoint, v.fails_at, v.gap) for v in verdicts],
            ))
    if raw["catalog"] is not None and raw["extended"] is not None:
        ext = raw["extended"]
        outs["sampler"] = (raw["catalog"], {
            "passed": ext.result("extended_ellipticity").passed,
            "worst": ext.result("extended_ellipticity").worst_margin,
            "F1": ext.result("F1").passed,
            "deg2": ext.result("deg2").passed,
        })
    return outs


def check_radial(inputs: dict, outs: dict) -> list[str]:
    problems: list[str] = []
    if "roots" in outs:
        problems += cf.check_roots(*outs["roots"])
    for branch in PROFILE_BRANCHES:
        if branch in outs:
            r, u, u0, s = outs[branch]
            problems += cf.check_profile(branch, r, u, u0, s)
    if "blowup" in outs:
        problems += cf.check_blowup(*outs["blowup"])
    if "barrier" in outs:
        problems += cf.check_barrier(*outs["barrier"], LENS_CENTERS)
    if "sigma" in outs:
        problems += cf.check_sigma(outs["sigma"])
    if "epsilon" in outs:
        problems += cf.check_epsilon(outs["epsilon"])
    for params, R, verdicts in outs["threshold"]:
        problems += cf.check_threshold(params, R, verdicts)
    if "sampler" in outs:
        problems += cf.check_sampler(*outs["sampler"])
    return problems


# ---------------------------------------------------------------------------
# cli


CLI_H = 1 / 32
_MODEL_INI = """\
[params]
beta = 2.0
b = 1.0
p = {p!r}
M = 1.0

[problem]
operator = CoefficientLambdaN
coefficient = 2.0
hamiltonian = PowerNorm
ham_b = 1.0
ham_p = 2.0
f = -1.0

[domain]
radius = 1.0
centers = 0.0, 0.0

[radial]
branch = FirstZeroSuperlinear
R = {R!r}
node_count = {nodes}
decades = 6
kind = Lambda1

[barrier]
upper_m = 1.0
lower_k = 1.0

[solver]
h = {h!r}
K = 8
tol = {tol!r}

[verify]
radii = {radii}
tolerance = 1e-06
sigma = 0.9
epsilon = 0.1

[sweep]
R_values = {sweep}
"""


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def build_cli_inputs(seed: int, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    sweep = np.concatenate([rng.uniform(0.3, 0.97, 3), [1.0], rng.uniform(1.03, 2.0, 3)])
    rng.shuffle(sweep)
    verify_radii = np.sort(rng.uniform(0.05, 0.85, 3))
    explicit_p = float(rng.uniform(0.25, 0.75))
    work.mkdir(parents=True, exist_ok=True)
    configs = {}
    for command in CLI_COMMANDS:
        text = _MODEL_INI.format(
            p=explicit_p if command == "explicit" else 2.0,
            R=0.9 if command == "verify" else 1.0,
            nodes=64 if command == "explicit" else 512,
            h=CLI_H, tol=TOL, radii=_floats(verify_radii), sweep=_floats(sweep),
        )
        path = work / f"{command}.ini"
        path.write_text(text, encoding="utf-8")
        configs[command] = path
    return {
        "seed": seed,
        "work": work,
        "configs": configs,
        "sweep_radii": sweep,
        "explicit_p": explicit_p,
        "h": CLI_H,
        "centers": DISC_CENTERS,
        "max_child_rss_kb": 0,
    }


def _run_command(inputs: dict, command: str) -> dict:
    out_dir = inputs["work"] / f"out-{command}"
    stdout_path = inputs["work"] / f"{command}.stdout"
    with open(stdout_path, "wb") as out, open(inputs["work"] / f"{command}.stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "degelliptic.cli", command,
             "--config", str(inputs["configs"][command]), "--out", str(out_dir),
             "--seed", str(inputs["seed"])],
            stdout=out, stderr=err,
        )
        # wait4 gives this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    inputs["max_child_rss_kb"] = max(inputs["max_child_rss_kb"], usage.ru_maxrss)
    return {"code": proc.returncode, "out_dir": out_dir, "stdout_path": stdout_path}


def run_cli_round(inputs: dict, ops: Ops) -> dict:
    for command in CLI_COMMANDS:
        for stale in (inputs["work"] / f"out-{command}").glob("*"):
            stale.unlink()
    return {command: ops(f"cli.{command}", _run_command, inputs, command)
            for command in CLI_COMMANDS}


def cli_solve_residual(inputs: dict, solution_csv: str) -> float:
    """residual_norm of the solve command's CSV solution, recomputed in
    process on the same grid; inf if the nodes differ from that grid."""
    if "check_grid" not in inputs:
        problem = grid_problem("disc", "power")
        inputs["check_grid"] = (problem, dg.build_grid(problem.domain, CLI_H, 8))
    problem, grid = inputs["check_grid"]
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in solution_csv.splitlines()[2:]])
    if rows.shape != (grid.n_nodes, 3) or np.max(np.abs(rows[:, :2] - grid.nodes_xy)) > 1e-15:
        return float("inf")
    return dg.residual_norm(problem, dg.GridFunction(grid=grid, values=rows[:, 2]))


def cli_outputs(inputs: dict, raw: dict) -> dict:
    outs = {}
    for command, res in raw.items():
        if res is None:
            continue
        files = {}
        if res["out_dir"].is_dir():
            files = {p.name: p.read_text(encoding="utf-8") for p in res["out_dir"].iterdir()}
        outs[command] = {
            "code": res["code"],
            "stdout": res["stdout_path"].read_text(encoding="utf-8"),
            "files": files,
        }
    if "solution.csv" in outs.get("solve", {}).get("files", {}):
        outs["solve"]["residual"] = cli_solve_residual(inputs, outs["solve"]["files"]["solution.csv"])
    return outs


# ---------------------------------------------------------------------------
# registry


class Workload(NamedTuple):
    build: Callable
    run_round: Callable
    outputs: Callable
    check: Callable


WORKLOADS = {
    "grid-disc": Workload(
        lambda seed, work: build_grid_inputs(DISC_CASES, seed),
        run_grid_round, grid_outputs, check_grid,
    ),
    "grid-lens": Workload(
        lambda seed, work: build_grid_inputs(LENS_CASES, seed),
        run_grid_round, grid_outputs, check_grid,
    ),
    "radial-certify": Workload(
        lambda seed, work: build_radial_inputs(seed),
        run_radial_round, radial_outputs, check_radial,
    ),
    "cli": Workload(
        build_cli_inputs, run_cli_round, cli_outputs, cf.check_cli,
    ),
}
