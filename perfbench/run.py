"""Benchmark of degelliptic: four workloads, checked outputs, timed layers.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload grid-disc --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
With ``--trace 0`` the run reports the end-to-end metrics (setup_s,
wall_s, peak_rss_mb); with ``--trace 1`` it reports the per-layer metrics
of every layer and the tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  Results and trace
spans are also written to perfbench-out/ at the root of the checkout.

The program is imported from src/ of the checkout, never from an installed
copy; without src/degelliptic the run exits with code 2 before measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process at a time, BLAS pools pinned: set before numpy is imported,
# and inherited by every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
WORKLOAD_NAMES = ("grid-disc", "grid-lens", "radial-certify", "cli")
# set-up / reference probe pairs per run
SETUP_REPEATS = 7
# about reference_probe.py's time on the machine the benchmark was built on, in
# a quiet period; any constant would do, since only ratios are compared
REFERENCE_S = 0.5
IMPORT_REPEATS = 3
SWEEP_STEPS = 20
PROBE_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def require_program() -> None:
    """Import degelliptic from this checkout's src/ or stop with code 2."""
    if not (SRC / "degelliptic" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'degelliptic'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import degelliptic

    if SRC.resolve() not in Path(degelliptic.__file__).resolve().parents:
        sys.exit(f"error: degelliptic imported from {degelliptic.__file__}, not {SRC}")


def work_dir(workload: str) -> Path:
    return OUT / f"work-{workload}"


# ---------------------------------------------------------------------------
# end-to-end measurements


def probe(script: str, *args: str) -> float:
    """Seconds from spawning a fresh interpreter on ``script`` until it
    prints ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / script), *args], stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"error: {script} {' '.join(args)} failed (exit {proc.returncode})")
    return elapsed


def run_rounds(wl, inputs, seconds: float, min_rounds: int, tracer=None, traced=None,
               between=None):
    """Whole rounds until ``seconds`` have passed, at least ``min_rounds``.

    Round k is traced when ``traced(k)``: its operations open spans in
    ``tracer`` and so do the linear solves under them.  ``between()``, if
    given, runs before each round, and its time does not count towards
    ``seconds``.  Returns per-round wall times, the traced flags, the
    operation counts, the checker's problems, the outputs of the traced
    rounds and each round's per-operation wall times.
    """
    import workloads as W

    walls, flags, problems, traced_outs, op_times = [], [], [], [], []
    reported: set[str] = set()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_rounds or time.perf_counter() < deadline:
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
        on = traced is not None and traced(k)
        ops = W.Ops(tracer if on else W.NullTracer())
        with W.traced_spsolve(tracer) if on else contextlib.nullcontext():
            t0 = time.perf_counter()
            raw = wl.run_round(inputs, ops)
            walls.append(time.perf_counter() - t0)
        outs = wl.outputs(inputs, raw)
        flags.append(on)
        op_times.append(ops.times)
        if on:
            traced_outs.append(outs)
        problems += wl.check(inputs, outs)
        for msg in set(ops.failures) - reported:  # counted in failed, not in correct
            print(f"operation failed: {msg}", file=sys.stderr)
            reported.add(msg)
        attempted += ops.attempted
        failed += len(ops.failures)
        k += 1
    return walls, flags, attempted, failed, problems, traced_outs, op_times


def median_round(op_times: list[dict]) -> float:
    """Sum over a round's operations of each one's median time over the
    rounds; an operation is its span name and call index within the round.
    On a shared machine single calls run up to 1.6x slower than the fastest
    one; the median of many calls moves far less from run to run than the
    fastest call, which a run reaches only now and then."""
    times: dict = {}
    for round_times in op_times:
        for op, t in round_times.items():
            times.setdefault(op, []).append(t)
    return sum(statistics.median(ts) for ts in times.values())


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    """The end-to-end metrics, the checker's problems and per-round details."""
    import workloads as W

    wl = W.WORKLOADS[workload]
    inputs = wl.build(seed, work_dir(workload))
    # each set-up is paired with a reference probe run right after it; the
    # pairs are spread evenly over the measured time, the rest run after the
    # last round
    setup: list[float] = []
    reference: list[float] = []
    start = time.perf_counter()
    probing = 0.0

    def probe_pair(force=False):
        nonlocal probing
        measured = time.perf_counter() - start - probing
        due = force or measured >= len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and due:
            t0 = time.perf_counter()
            setup.append(probe("setup_probe.py", workload, str(seed), str(work_dir(workload))))
            reference.append(probe("reference_probe.py"))
            probing += time.perf_counter() - t0

    walls, _, attempted, failed, problems, _, op_times = run_rounds(
        wl, inputs, seconds, 1, between=probe_pair)
    while len(setup) < SETUP_REPEATS:
        probe_pair(force=True)
    if workload == "cli":
        rss_kb = inputs["max_child_rss_kb"]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # times at the reference host speed: a shared host runs all work up to
    # 1.3x slower for minutes at a time, and the reference probe slows with it
    wall = median_round(op_times)
    metrics = {
        "setup_s": {"value": REFERENCE_S * statistics.median(
            s / r for s, r in zip(setup, reference)), "unit": "s"},
        "wall_s": {"value": wall * REFERENCE_S / statistics.median(reference), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }
    detail = {"setup_raw_s": setup, "reference_s": reference, "wall_raw_s": wall,
              "round_wall_s": walls}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems, detail


# ---------------------------------------------------------------------------
# traced run


def _median_ms(spans, name):
    durations = [s[3] - s[2] for s in spans if s[1] == name]
    return 1000.0 * statistics.median(durations) if durations else None


def import_times() -> tuple[float, float]:
    """(degelliptic cumulative, scipy self-time sum) in seconds, medians of
    IMPORT_REPEATS runs of ``python -X importtime``."""
    totals, scipys = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import degelliptic"],
            capture_output=True, text=True, check=True,
        )
        total = scipy = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cumulative_us = float(fields[0]), float(fields[1])
            except ValueError:
                continue  # the header line
            module = fields[2].strip()
            if module == "degelliptic":
                total = cumulative_us * 1e-6
            if module == "scipy" or module.startswith("scipy."):
                scipy += self_us * 1e-6
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def grid_probes(tracer) -> dict:
    """build_grid, scheme set-up (sweep with steps=0) and the residual cost
    per step (sweep with SWEEP_STEPS steps, less the steps=0 time)."""
    import numpy as np

    import degelliptic as dg
    import workloads as W

    metrics = {}
    for case, (domain, ham, h, K) in W.GRID_CASES.items():
        problem = W.grid_problem(domain, ham)
        for _ in range(PROBE_REPEATS):
            with tracer.span(f"grid.build_grid.{case}"):
                grid = dg.build_grid(problem.domain, h, K)
        zeros = np.zeros(grid.n_nodes)
        for _ in range(PROBE_REPEATS):
            with tracer.span(f"grid.scheme.{case}"):
                dg.sweep(problem, grid, zeros, 0.0, steps=0)
            with tracer.span(f"grid.sweep.{case}"):
                dg.sweep(problem, grid, zeros, 0.0, steps=SWEEP_STEPS)
        spans = tracer.spans
        scheme = _median_ms(spans, f"grid.scheme.{case}")
        metrics[f"grid.build_grid_ms.{case}"] = (_median_ms(spans, f"grid.build_grid.{case}"), "ms")
        metrics[f"grid.nodes.{case}"] = (grid.n_nodes, "count")
        metrics[f"grid.scheme_ms.{case}"] = (scheme, "ms")
        metrics[f"grid.residual_ms.{case}"] = (
            (_median_ms(spans, f"grid.sweep.{case}") - scheme) / SWEEP_STEPS, "ms")
    return metrics


def grid_solve_metrics(spans, solves: dict) -> dict:
    """Per case: solve time and iterations from SolveReport; Newton steps and
    linear-solve time from the spsolve spans under each solve span."""
    import closed_forms as cf
    import numpy as np

    metrics = {}
    for case, reports in solves.items():
        solve_ids = [s[0] for s in spans if s[1] == f"grid.solve.{case}"]
        steps, linear = [], []
        for sid in solve_ids:
            children = [s for s in spans if s[4] == sid and s[1] == "grid.spsolve"]
            steps.append(len(children))
            linear.append(sum(s[3] - s[2] for s in children))
        iterations = statistics.median(r["iterations"] for r in reports)
        newton = statistics.median(steps)
        metrics[f"grid.solve_s.{case}"] = (statistics.median(r["solve_s"] for r in reports), "s")
        metrics[f"grid.iterations.{case}"] = (iterations, "count")
        metrics[f"grid.newton_steps.{case}"] = (newton, "count")
        metrics[f"grid.linear_solve_s.{case}"] = (statistics.median(linear), "s")
        metrics[f"grid.jacobi_sweeps.{case}"] = (iterations - newton, "count")
        if reports[0]["domain"] == "disc":
            last = reports[-1]
            xy = last["nodes_xy"]
            exact = cf.model_first_zero_u(np.hypot(xy[:, 0], xy[:, 1]))
            metrics[f"grid.center_err.{case}"] = (abs(last["center"] - cf.U_AT_ZERO), "1")
            metrics[f"grid.max_err.{case}"] = (float(np.max(np.abs(last["values"] - exact))), "1")
    return metrics


SPAN_METRICS = {
    "radial.roots_ms": "radial.roots",
    "radial.blowup_ms": "radial.blowup",
    "barriers.supersolution_ms": "barriers.supersolution",
    "barriers.evaluate_ms": "barriers.evaluate",
    "verify.sigma_ms": "verify.sigma",
    "verify.epsilon_ms": "verify.epsilon",
    "verify.threshold_ms": "verify.threshold",
    "model.sampler_ms": "model.sampler",
}


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    """Rounds of ``workload`` for ``seconds``, alternating traced and
    untraced ones to give the tracing overhead, then one traced round of
    every other workload so that every layer is reported."""
    import workloads as W

    tracer = W.Tracer()
    attempted = failed = 0
    problems: list[str] = []
    grid_solves: dict = {}
    overhead = None
    for name in [workload] + [w for w in WORKLOAD_NAMES if w != workload]:
        wl = W.WORKLOADS[name]
        inputs = wl.build(seed, work_dir(name))
        own = name == workload
        walls, flags, a, f, p, outs, _ = run_rounds(
            wl, inputs, seconds if own else 0.0, 2 if own else 1, tracer,
            lambda k: k % 2 == 0 or not own,
        )
        if own:
            # round walls include the spans' own cost, which op times leave out
            overhead = statistics.median(w for w, on in zip(walls, flags) if on) - \
                statistics.median(w for w, on in zip(walls, flags) if not on)
        if wl.outputs is W.grid_outputs:
            for round_outs in outs:
                for case, out in round_outs.items():
                    grid_solves.setdefault(case, []).append(out)
        attempted, failed, problems = attempted + a, failed + f, problems + p

    spans = tracer.spans
    total_s, scipy_s = import_times()
    metrics = {"import.total_s": (total_s, "s"), "import.scipy_s": (scipy_s, "s"),
               "host.reference_s": (statistics.median(
                   probe("reference_probe.py") for _ in range(IMPORT_REPEATS)), "s")}
    metrics.update(grid_probes(tracer))
    metrics.update(grid_solve_metrics(spans, grid_solves))
    for branch in W.PROFILE_BRANCHES:
        metrics[f"radial.profile_ms.{branch}"] = (
            _median_ms(spans, f"radial.profile.{branch}"), "ms")
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = (_median_ms(spans, span), "ms")
    for command in W.CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = (_median_ms(spans, f"cli.{command}") / 1000.0, "s")
    metrics["trace.overhead_s"] = (overhead, "s")

    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    t_zero = spans[0][2] if spans else 0.0
    trace_path.write_text(json.dumps([
        {"id": s[0], "name": s[1], "start": s[2] - t_zero, "end": s[3] - t_zero,
         "parent": s[4]} for s in tracer.spans
    ]))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, problems, {"trace_file": str(trace_path)}


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process; one summary line each."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = result
        figures = ", ".join(
            f"{k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
        )
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}; {figures}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result, problems, detail = traced_run(args.workload, args.seed, args.seconds)
    else:
        result, problems, detail = untraced_run(args.workload, args.seed, args.seconds)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
