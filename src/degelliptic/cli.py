"""Command-line entry point.

Everything a run needs lives in one INI-style config file, whose schema is
the fields of ``RunConfig``: one field per key, with its section and typed
default.  The subcommand picks which slice of it gets used.  Commands
validate the full config before touching the filesystem.  Every CSV table
goes through the one writer, ``_table.write_csv`` (17 significant digits);
console summaries carry 15.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import itertools
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._table import write_csv
from .barriers import build_subsolution, build_supersolution
from .errors import ConfigError, DegellipticError, VerificationError
from .grid import (
    GridProblem,
    SolveControls,
    build_grid,
    report_to_text,
    solution_to_csv,
    solve,
)
from .model import (
    CoefficientLambdaN,
    ConvexDomain,
    LambdaK,
    LinearDegenerate,
    MatrixField,
    MinMax,
    MongeAmpere,
    Params,
    PowerNorm,
    ScalarField,
    TruncatedLower,
    TruncatedUpper,
    WeightedEigenvalues,
)
from .radial import (
    classify_blowup,
    explicit_sublinear_form,
    profile_to_csv,
    radial_profile,
    rbar,
)
from .verify import (
    VerifyProblem,
    epsilon_scaling,
    residual_check_radial,
    sigma_perturbation,
    threshold_probe,
)

__all__ = ["RunConfig", "main", "parse_config", "serialize_config"]

def _fmt(value: float) -> str:
    """Console float format: 15 significant digits, trailing zeros kept."""
    return f"{value:#.15g}"


# ---------------------------------------------------------------------------
# configuration


def _key(section: str, default):
    """A config key: the field's file section and its typed default."""
    return dataclasses.field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class RunConfig:
    """One flat record backing every subcommand, and the whole file schema:
    each field is one key, declared with its section and default, in file
    order; its type says how the value is parsed and written back
    (``_CODECS``).  Every key is optional.  parse -> serialize -> parse is
    the identity."""

    command: str = _key("run", "")
    out: str = _key("run", "out")
    # structural envelope
    beta: float = _key("params", 1.0)
    b: float = _key("params", 1.0)
    c: float = _key("params", 0.0)
    d: float = _key("params", 0.0)
    p: float = _key("params", 2.0)
    M: float = _key("params", 1.0)
    # operator / gradient-term / forcing selections
    operator: str = _key("problem", "CoefficientLambdaN")
    coefficient: float = _key("problem", 1.0)
    index: int = _key("problem", 1)
    weights: tuple[float, ...] = _key("problem", ())
    rows: tuple[tuple[float, ...], ...] = _key("problem", ())
    hamiltonian: str = _key("problem", "PowerNorm")
    ham_b: float = _key("problem", 1.0)
    ham_p: float = _key("problem", 2.0)
    hamiltonian_sign: float = _key("problem", 1.0)
    f: float = _key("problem", 0.0)
    dimension: int = _key("problem", 2)
    # domain
    radius: float = _key("domain", 1.0)
    centers: tuple[tuple[float, ...], ...] = _key("domain", ((0.0, 0.0),))
    # radial runs
    branch: str = _key("radial", "FirstZeroSuperlinear")
    R: float = _key("radial", 1.0)
    node_count: int = _key("radial", 512)
    r_min: float = _key("radial", 1e-06)
    include_radii: tuple[float, ...] = _key("radial", ())
    decades: int = _key("radial", 6)
    kind: str = _key("radial", "Lambda1")
    # barrier levels
    upper_m: float = _key("barrier", 1.0)
    lower_k: float = _key("barrier", 1.0)
    # grid solver controls
    h: float = _key("solver", 0.0625)
    K: int = _key("solver", 8)
    tol: float = _key("solver", 1e-05)
    # verification controls
    radii: tuple[float, ...] = _key("verify", (0.2, 0.5, 0.8))
    tolerance: float = _key("verify", 1e-06)
    sigma: float = _key("verify", 0.9)
    epsilon: float = _key("verify", 0.1)
    R_values: tuple[float, ...] = _key("sweep", ())

    @property
    def params(self) -> Params:
        return Params(beta=self.beta, b=self.b, c=self.c, d=self.d,
                      p=self.p, M=self.M)


def _parse_float(where: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {raw!r}") from None


def _parse_int(where: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: not an integer: {raw!r}") from None


def _parse_floats(where: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(where, part) for part in raw.split(",") if part.strip())


def _parse_rows(where: str, raw: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(_parse_floats(where, row) for row in raw.split(";") if row.strip())
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(f"{where}: rows differ in length: {raw!r}")
    return rows


def _format_floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


# field type -> (parse(where, raw), format(value))
_CODECS = {
    str: (lambda where, raw: raw, str),
    int: (_parse_int, str),
    # float() first, so numpy floats serialize as plain numbers
    float: (_parse_float, lambda value: repr(float(value))),
    tuple[float, ...]: (_parse_floats, _format_floats),
    tuple[tuple[float, ...], ...]: (
        _parse_rows,
        lambda rows: "; ".join(_format_floats(row) for row in rows),
    ),
}
_TYPES = typing.get_type_hints(RunConfig)
# key -> (section, parse, format), in file order: the file schema
_SCHEMA = {
    key.name: (key.metadata["section"], *_CODECS[_TYPES[key.name]])
    for key in dataclasses.fields(RunConfig)
}


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (M vs m)
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config syntax: {err}") from None

    # [DEFAULT] keys would leak into every section as fallbacks
    if cp.defaults():
        raise ConfigError(f"unknown config section [{cp.default_section}]")
    sections = {section for section, _, _ in _SCHEMA.values()}
    for section in cp.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA or _SCHEMA[key][0] != section:
                raise ConfigError(f"unknown config key [{section}] {key}")

    cfg = RunConfig(**{
        key: parse(f"[{section}] {key}", cp.get(section, key).strip())
        for key, (section, parse, _) in _SCHEMA.items()
        if cp.has_option(section, key)
    })
    if cfg.command and cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    for section, keys in itertools.groupby(_SCHEMA.items(), lambda kv: kv[1][0]):
        out.write(f"[{section}]\n")
        for key, (_, _, fmt) in keys:
            out.write(f"{key} = {fmt(getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# selection -> catalog objects


def _operator_from(cfg: RunConfig):
    name = cfg.operator
    if name == "CoefficientLambdaN":
        return CoefficientLambdaN(ScalarField.constant(cfg.coefficient))
    if name == "LambdaK":
        return LambdaK(cfg.index)
    if name == "WeightedEigenvalues":
        if not cfg.weights:
            raise ConfigError("WeightedEigenvalues needs [problem] weights")
        return WeightedEigenvalues(cfg.weights)
    if name == "MinMax":
        return MinMax()
    if name == "TruncatedLower":
        return TruncatedLower(cfg.index)
    if name == "TruncatedUpper":
        return TruncatedUpper(cfg.index)
    if name == "MongeAmpere":
        return MongeAmpere()
    if name == "LinearDegenerate":
        if not cfg.rows:
            raise ConfigError("LinearDegenerate needs [problem] rows")
        return LinearDegenerate(MatrixField.constant(cfg.rows))
    raise ConfigError(f"unknown operator {name!r}")


def _hamiltonian_from(cfg: RunConfig):
    name = cfg.hamiltonian
    if name in ("", "none", "None"):
        return None
    if name == "PowerNorm":
        return PowerNorm(cfg.ham_b, cfg.ham_p)
    raise ConfigError(f"unknown gradient term {name!r}")


def _domain_from(cfg: RunConfig) -> ConvexDomain:
    if not cfg.centers:
        raise ConfigError("domain needs at least one center")
    return ConvexDomain(radius=cfg.radius, centers=cfg.centers)


def _verify_problem(cfg: RunConfig) -> VerifyProblem:
    return VerifyProblem(
        operator=_operator_from(cfg),
        hamiltonian=_hamiltonian_from(cfg),
        f=cfg.f,
        N=cfg.dimension,
        R=cfg.R,
        hamiltonian_sign=cfg.hamiltonian_sign,
    )


def _grid_problem(cfg: RunConfig) -> GridProblem:
    return GridProblem(
        operator=_operator_from(cfg),
        hamiltonian=_hamiltonian_from(cfg),
        params=cfg.params,
        domain=_domain_from(cfg),
        f=cfg.f,
    )


# ---------------------------------------------------------------------------
# commands: each returns (summary lines, {filename: write callback})


def _table(header: str, rows, comment: str | None = None):
    """Write callback for one CSV table; the rows are taken now."""
    rows = list(rows)
    return lambda path: write_csv(path, header, rows, comment)


def cmd_rbar(cfg: RunConfig):
    params = cfg.params
    if not params.superlinear:
        raise ConfigError(
            "the sublinear case has no existence threshold (solutions exist"
            " on every ball); rbar applies to p > 1"
        )
    value = rbar(params)
    lines = [f"rbar = {_fmt(value)}"]
    if math.isinf(value):
        lines.append("zero forcing: profiles exist on every ball")
    else:
        lines.append(
            "at R = rbar the profile stays C1 up to the boundary while u''"
            " is unbounded there (root-finding switches to the double root)"
        )
    return lines, {}


def cmd_radial(cfg: RunConfig):
    prof = radial_profile(
        cfg.branch,
        cfg.R,
        cfg.params,
        node_count=cfg.node_count,
        r_min=cfg.r_min,
        include_radii=cfg.include_radii,
    )
    lines = [
        f"branch {prof.branch.value}: {prof.r_grid.size} nodes on"
        f" (0, {_fmt(cfg.R)}]",
        f"u(0+) = {_fmt(prof.u_at_zero)}",
        f"max |profile residual| = {np.max(np.abs(prof.residuals)):.3e}",
    ]
    return lines, {"profile.csv": lambda path: profile_to_csv(prof, path)}


def cmd_blowup(cfg: RunConfig):
    params = cfg.params
    cls = classify_blowup(params)
    if cfg.decades < 1:
        raise ConfigError("decades must be >= 1")
    branch = "ZeroM" if params.M == 0.0 else "SecondZeroSuperlinear"
    rows = []
    prev = None
    for k in range(1, cfg.decades + 1):
        prof = radial_profile(
            branch, cfg.R, params, node_count=cfg.node_count, r_min=10.0**-k
        )
        u_min = float(prof.u_values[0])
        growth = None if prev is None else u_min - prev
        rows.append((k, 10.0**-k, u_min, growth))
        prev = u_min
    if cls.kind == "Blowup":
        lines = [f"center behavior: Blowup (exponent p = {_fmt(params.p)})"]
    else:
        lines = [f"center behavior: Bounded, sup bound {_fmt(cls.bound)}"]
    lines.append(
        f"u(1e-{cfg.decades}) = {_fmt(rows[-1][2])}"
        + (
            f", last decade added {_fmt(rows[-1][3])}"
            if len(rows) > 1
            else ""
        )
    )
    comment = f"kind={cls.kind} bound={cls.bound!r}"
    return lines, {"blowup.csv": _table("k,r_min,u_rmin,decade_growth", rows, comment)}


def cmd_explicit(cfg: RunConfig):
    form = explicit_sublinear_form(cfg.kind, cfg.p, cfg.R, cfg.dimension)
    r = np.linspace(0.0, cfg.R, max(cfg.node_count, 2))
    u = form.value(r)
    du = form.du(r)  # exponent g > 2, so both derivatives vanish at r = 0
    ddu = form.ddu(r)
    lines = [
        f"{cfg.kind}: u = {'-' if form.sign < 0 else ''}K(R^g - r^g),"
        f" K = {_fmt(form.K)}, g = {_fmt(form.g)}",
        f"u(0) = {_fmt(float(u[0]))}",
    ]
    comment = (
        f"kind={cfg.kind} p={cfg.p:.17g} R={cfg.R:.17g}"
        f" N={cfg.dimension} K={form.K:.17g} g={form.g:.17g}"
    )
    return lines, {"explicit.csv": _table("r,u,du,ddu", zip(r, u, du, ddu), comment)}


def cmd_barrier(cfg: RunConfig):
    domain = _domain_from(cfg)
    upper = build_supersolution(domain, cfg.params, cfg.upper_m)
    lower = build_subsolution(domain, cfg.params, cfg.lower_k)
    grid = build_grid(domain, cfg.h, cfg.K)
    up = np.asarray(upper(grid.nodes_xy), dtype=float)
    low = np.asarray(lower(grid.nodes_xy), dtype=float)
    gap = up - low
    lines = [
        f"barriers on {grid.n_nodes} nodes: upper at forcing {_fmt(cfg.upper_m)},"
        f" lower slope {_fmt(cfg.lower_k)}",
        f"min upper-lower gap = {_fmt(float(gap.min()))}",
    ]
    if gap.min() < 0.0:
        raise VerificationError(
            "barrier ordering violated: upper < lower at a node"
        )
    comment = (
        f"h={grid.h:.17g} nodes={grid.n_nodes}"
        f" upper_m={cfg.upper_m:.17g} lower_k={cfg.lower_k:.17g}"
    )
    rows = zip(*grid.nodes_xy.T, low, up)
    return lines, {"barrier.csv": _table("x,y,lower,upper", rows, comment)}


def cmd_solve(cfg: RunConfig):
    problem = _grid_problem(cfg)
    grid = build_grid(problem.domain, cfg.h, cfg.K)
    controls = SolveControls(tol=cfg.tol)
    u, report = solve(problem, grid, controls)
    lines = [
        f"solved {grid.n_nodes} nodes in {report.iterations} iterations"
        f" ({report.wall_time:.3f}s)",
        f"residual = {report.residual_norm:.3e}"
        f" (stop {report.stop_residual:.3e})",
        f"min u = {_fmt(float(u.values.min()))},"
        f" max u = {_fmt(float(u.values.max()))}",
    ]
    files = {
        "solution.csv": lambda path: solution_to_csv(u, path),
        "report.txt": lambda path: Path(path).write_text(
            report_to_text(report), encoding="utf-8"
        ),
    }
    return lines, files


def _verify_checks(cfg: RunConfig):
    """(name, passed, report text) triples for the verification suite."""
    params = cfg.params
    problem = _verify_problem(cfg)
    prof = radial_profile(
        cfg.branch,
        cfg.R,
        params,
        node_count=cfg.node_count,
        r_min=cfg.r_min,
        include_radii=cfg.include_radii,
    )
    if not cfg.radii:
        raise ConfigError("verification needs [verify] radii")
    report = residual_check_radial(prof, problem, cfg.radii, cfg.tolerance)
    checks = [("residual", report.passed, report.to_text())]

    if params.superlinear:
        bumped = dataclasses.replace(params, M=params.M + cfg.epsilon)
        varphi = radial_profile(
            cfg.branch, cfg.R, bumped, node_count=cfg.node_count, r_min=cfg.r_min
        )
        cert = sigma_perturbation(
            prof, varphi, cfg.sigma, epsilon=cfg.epsilon, problem=problem
        )
        checks.append(("sigma_perturbation", cert.passed, cert.to_text()))
        if params.M > 0.0:
            threshold = rbar(params)
            verdicts = threshold_probe(
                params, [0.99 * threshold, threshold, 1.01 * threshold]
            )
            ok = (
                verdicts[0].exists
                and not verdicts[0].endpoint
                and verdicts[1].exists
                and verdicts[1].endpoint
                and not verdicts[2].exists
            )
            text = "\n".join(v.to_text() for v in verdicts) + "\n"
            checks.append(("threshold_probe", ok, text))
    else:
        cert = epsilon_scaling(prof, cfg.epsilon, cfg.f, problem=problem)
        checks.append(("epsilon_scaling", cert.passed, cert.to_text()))
    return checks


def cmd_verify(cfg: RunConfig):
    checks = _verify_checks(cfg)
    lines = [
        f"{name}: {'PASS' if passed else 'FAIL'}" for name, passed, _ in checks
    ]
    failed = [name for name, passed, _ in checks if not passed]

    def write(path):
        with open(path, "w", encoding="utf-8") as out:
            for name, passed, text in checks:
                out.write(f"== {name}: {'PASS' if passed else 'FAIL'}\n")
                out.write(text)
                out.write("\n")

    files = {"verify_report.txt": write}
    if failed:
        return lines, files, VerificationError(
            f"verification failed: {', '.join(failed)}"
        )
    return lines, files


def cmd_sweep(cfg: RunConfig):
    if not cfg.R_values:
        raise ConfigError("sweep needs [sweep] R_values")
    verdicts = threshold_probe(cfg.params, cfg.R_values)
    lines = [v.to_text() for v in verdicts]
    existing = sum(1 for v in verdicts if v.exists)
    lines.append(f"{existing} of {len(verdicts)} radii admit the profile")
    rows = [(v.R, v.exists, v.endpoint, v.fails_at, v.gap) for v in verdicts]
    return lines, {"sweep.csv": _table("R,exists,endpoint,fails_at,gap", rows)}


_DISPATCH = {
    "rbar": cmd_rbar,
    "radial": cmd_radial,
    "blowup": cmd_blowup,
    "explicit": cmd_explicit,
    "barrier": cmd_barrier,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}
COMMANDS = tuple(_DISPATCH)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degelliptic",
        description="Radial profiles, barriers, grid solves and verification"
        " for degenerate elliptic Dirichlet problems.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="INI config file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="accepted and ignored; every command is"
                        " deterministic")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    updates = {} if args.out is None else {"out": args.out}
    if cfg.command and cfg.command != args.command:
        raise ConfigError(
            f"config requests command {cfg.command!r} but"
            f" {args.command!r} was invoked"
        )
    updates["command"] = args.command
    return dataclasses.replace(cfg, **updates)


def run(cfg: RunConfig):
    """Execute cfg.command.

    Returns (summary lines, deferred verification failure or None); the
    deferred error still gets its report written, unlike configuration and
    numeric errors, which raise before any file output.
    """
    if cfg.command not in _DISPATCH:
        raise ConfigError(f"unknown command {cfg.command!r}")
    result = _DISPATCH[cfg.command](cfg)
    lines, files = result[0], result[1]
    deferred = result[2] if len(result) > 2 else None
    if files:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            write(out_dir / name)
    return lines, deferred


def _report_failure(err: DegellipticError) -> int:
    """Print the error and its diagnostics, one key: value line each."""
    print(f"error: {err}", file=sys.stderr)
    for key, value in err.diagnostics.items():
        print(f"  {key}: {value}", file=sys.stderr)
    return err.exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_flags(load_config(args.config), args)
        lines, failure = run(cfg)
    except DegellipticError as err:
        return _report_failure(err)
    for line in lines:
        print(line)
    if failure is not None:
        return _report_failure(failure)
    return 0


if __name__ == "__main__":
    sys.exit(main())
