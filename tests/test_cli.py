import dataclasses
import math
import re
import string
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degelliptic._table import write_csv
from degelliptic.barriers import barrier_to_csv, build_supersolution
from degelliptic.cli import (
    _CODECS,
    COMMANDS,
    RunConfig,
    main,
    parse_config,
    serialize_config,
)
from degelliptic.errors import ConfigError
from degelliptic.grid import GridProblem
from degelliptic.model import (
    CoefficientLambdaN,
    ConvexDomain,
    LambdaK,
    LinearDegenerate,
    MinMax,
    MongeAmpere,
    Params,
    PowerNorm,
    ScalarField,
    WeightedEigenvalues,
)
from degelliptic.radial import radial_profile, rbar
from degelliptic.verify import (
    VerifyProblem,
    convergence_study,
    residual_check_radial,
    residual_report_to_csv,
)

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


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    if "--out" in args:
        # every file a command writes has LF line ends, as the console does
        out_dir = Path(args[args.index("--out") + 1])
        for path in out_dir.glob("*"):
            assert b"\r" not in path.read_bytes(), path.name
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.command == ""
        assert cfg.out == "out"
        assert cfg.beta == 1.0 and cfg.M == 1.0
        assert cfg.h == 0.0625 and cfg.K == 8
        assert cfg.tol == 1e-05
        assert cfg.centers == ((0.0, 0.0),)
        assert cfg.radii == (0.2, 0.5, 0.8)
        assert cfg.R_values == ()

    def test_round_trip_identity(self):
        text = MODEL_INI + (
            "\n[domain]\nradius = 0.7\ncenters = -0.3, 0.0; 0.3, 0.0\n"
            "\n[solver]\ntol = 1e-07\n"
            "\n[sweep]\nR_values = 0.9, 1.0, 1.1\n"
        )
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg
        # and serialization is a fixed point after one pass
        assert serialize_config(parse_config(serialize_config(cfg))) == (
            serialize_config(cfg)
        )

    def test_numpy_floats_serialize_as_plain_numbers(self):
        cfg = dataclasses.replace(
            parse_config(""), beta=np.float64(2.0), tol=np.float64(0.001)
        )
        text = serialize_config(cfg)
        assert "beta = 2.0\n" in text and "tol = 0.001\n" in text
        assert parse_config(text) == cfg

    def test_keys_are_case_sensitive(self):
        cfg = parse_config("[params]\nM = 2.5\n")
        assert cfg.M == 2.5
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("[params]\nm = 2.5\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"\[bogus\]"):
            parse_config("[bogus]\nx = 1\n")

    def test_bad_number_names_the_key(self):
        with pytest.raises(ConfigError, match=r"\[params\] beta"):
            parse_config("[params]\nbeta = fast\n")
        with pytest.raises(ConfigError, match=r"\[solver\] K"):
            parse_config("[solver]\nK = many\n")

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config("[run]\ncommand = dance\n")

    def test_rows_and_tau(self, tmp_path, capsys):
        cfg = parse_config("[problem]\nrows = 1, 0; 0.4, 0.8\n")
        assert cfg.rows == ((1.0, 0.0), (0.4, 0.8))
        # there is no explicit-step solver, so tau is an unknown key
        with pytest.raises(ConfigError, match=r"unknown config key \[solver\] tau"):
            parse_config("[solver]\ntau = 0.01\n")
        path = write_config(tmp_path, MODEL_INI + "[solver]\ntau = 0.01\n")
        code, _, err = run_cli(capsys, "solve", "--config", path)
        assert code == 2
        assert "unknown config key [solver] tau" in err

    def test_max_iter_key_refused(self, tmp_path, capsys):
        # the Newton step budget comes from the grid, so max_iter is unknown
        with pytest.raises(ConfigError, match=r"unknown config key \[solver\] max_iter"):
            parse_config("[solver]\nmax_iter = 120\n")
        path = write_config(tmp_path, MODEL_INI + "[solver]\nmax_iter = 120\n")
        code, _, err = run_cli(capsys, "solve", "--config", path)
        assert code == 2
        assert "unknown config key [solver] max_iter" in err

    def test_init_key_refused(self, tmp_path, capsys):
        # every solve starts from the paper's barrier, so init is unknown
        with pytest.raises(ConfigError, match=r"unknown config key \[solver\] init"):
            parse_config("[solver]\ninit = zeros\n")
        path = write_config(tmp_path, MODEL_INI + "[solver]\ninit = barrier\n")
        code, _, err = run_cli(capsys, "solve", "--config", path)
        assert code == 2
        assert "unknown config key [solver] init" in err

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("params]\nbeta = 2\n")

    @pytest.mark.parametrize("other", ["", "[params]\n", "[solver]\n"])
    def test_default_section_refused(self, other):
        # configparser would apply [DEFAULT] keys as fallbacks to every section
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_config("[DEFAULT]\nbeta = 5\n" + other)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[problem]\nrows = 1, 0; 0.4\n", "[problem] rows"),
            ("[domain]\ncenters = 0, 0; 1\n", "[domain] centers"),
        ],
    )
    def test_ragged_rows_refused(self, text, where):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value).startswith(f"{where}: rows differ in length")


def _field_strategy(name, kind):
    floats = st.floats(allow_nan=False, allow_infinity=False)
    if name == "command":
        return st.sampled_from(("",) + COMMANDS)
    rows = st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(floats, min_size=n, max_size=n).map(tuple), max_size=3
        ).map(tuple)
    )
    return {
        str: st.text(string.ascii_letters + string.digits + "_./-", max_size=12),
        int: st.integers(),
        float: floats,
        tuple[float, ...]: st.lists(floats, max_size=4).map(tuple),
        tuple[tuple[float, ...], ...]: rows,
    }[kind]


CONFIGS = st.builds(
    RunConfig,
    **{
        name: _field_strategy(name, kind)
        for name, kind in typing.get_type_hints(RunConfig).items()
    },
)


# serialize_config(parse_config("")), byte for byte; an empty value is
# written as "key = ", with the space (\x20)
DEFAULT_INI = """\
[run]
command =\x20
out = out

[params]
beta = 1.0
b = 1.0
c = 0.0
d = 0.0
p = 2.0
M = 1.0

[problem]
operator = CoefficientLambdaN
coefficient = 1.0
index = 1
weights =\x20
rows =\x20
hamiltonian = PowerNorm
ham_b = 1.0
ham_p = 2.0
hamiltonian_sign = 1.0
f = 0.0
dimension = 2

[domain]
radius = 1.0
centers = 0.0, 0.0

[radial]
branch = FirstZeroSuperlinear
R = 1.0
node_count = 512
r_min = 1e-06
include_radii =\x20
decades = 6
kind = Lambda1

[barrier]
upper_m = 1.0
lower_k = 1.0

[solver]
h = 0.0625
K = 8
tol = 1e-05

[verify]
radii = 0.2, 0.5, 0.8
tolerance = 1e-06
sigma = 0.9
epsilon = 0.1

[sweep]
R_values =\x20

"""


def _default_text(key) -> str:
    """A field's typed default as the file writes it."""
    kind = typing.get_type_hints(RunConfig)[key.name]
    return _CODECS[kind][1](key.default)


class TestConfigSchema:
    def test_defaults_match_fields(self):
        keys = dataclasses.fields(RunConfig)
        hints = typing.get_type_hints(RunConfig)
        # every key has a section, and each section's keys are adjacent, so
        # the file has one header per section
        sections = [key.metadata["section"] for key in keys]
        runs = [s for i, s in enumerate(sections) if i == 0 or s != sections[i - 1]]
        assert len(runs) == len(set(runs)) == 9
        assert set(hints.values()) <= set(_CODECS)
        # every default parses on its own
        for key, section in zip(keys, sections):
            cfg = parse_config(f"[{section}]\n{key.name} = {_default_text(key)}\n")
            assert cfg == parse_config("") == RunConfig()

    def test_default_file_is_pinned(self):
        assert serialize_config(parse_config("")) == DEFAULT_INI
        assert parse_config(DEFAULT_INI) == RunConfig()

    def test_readme_table_lists_every_key_and_default(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = [
            line for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `[")
        ]
        documented = []
        for line in table:
            _, section, keys, _ = line.split("|")
            section = section.strip().strip("`[]")
            for key, default in re.findall(r"`(\w+)` \((`[^`]*`|empty|required)", keys):
                documented.append((section, key, default))
        expected = []
        for key in dataclasses.fields(RunConfig):
            text = _default_text(key)
            if key.name == "command":
                assert text == ""
                default = "required"
            else:
                default = f"`{text}`" if text else "empty"
            expected.append((key.metadata["section"], key.name, default))
        assert documented == expected

    @settings(max_examples=200, deadline=None)
    @given(CONFIGS)
    def test_round_trip_any_config(self, cfg):
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text


class TestSelections:
    def _cfg(self, extra):
        return parse_config("[problem]\n" + extra)

    def test_operator_catalog(self):
        from degelliptic.cli import _operator_from

        assert isinstance(
            _operator_from(self._cfg("operator = CoefficientLambdaN\n")),
            CoefficientLambdaN,
        )
        assert _operator_from(self._cfg("operator = LambdaK\nindex = 2\n")) == LambdaK(2)
        op = _operator_from(
            self._cfg("operator = WeightedEigenvalues\nweights = 1.0, 1.0\n")
        )
        assert isinstance(op, WeightedEigenvalues)
        assert isinstance(_operator_from(self._cfg("operator = MinMax\n")), MinMax)
        assert isinstance(
            _operator_from(self._cfg("operator = MongeAmpere\n")), MongeAmpere
        )
        assert isinstance(
            _operator_from(self._cfg("operator = LinearDegenerate\nrows = 1,0; 0,1\n")),
            LinearDegenerate,
        )

    def test_operator_validation(self):
        from degelliptic.cli import _operator_from

        with pytest.raises(ConfigError, match="weights"):
            _operator_from(self._cfg("operator = WeightedEigenvalues\n"))
        with pytest.raises(ConfigError, match="rows"):
            _operator_from(self._cfg("operator = LinearDegenerate\n"))
        with pytest.raises(ConfigError, match="unknown operator"):
            _operator_from(self._cfg("operator = Tricky\n"))

    def test_hamiltonian_selection(self):
        from degelliptic.cli import _hamiltonian_from

        assert _hamiltonian_from(self._cfg("hamiltonian = none\n")) is None
        ham = _hamiltonian_from(self._cfg("hamiltonian = PowerNorm\nham_p = 0.5\n"))
        assert ham.p == 0.5
        with pytest.raises(ConfigError, match="gradient term"):
            _hamiltonian_from(self._cfg("hamiltonian = Weird\n"))


class TestRbar:
    def test_model_fifteen_digits(self, tmp_path, capsys):
        path = write_config(tmp_path, MODEL_INI)
        code, out, err = run_cli(capsys, "rbar", "--config", path)
        assert code == 0
        assert "rbar = 1.00000000000000" in out

    def test_cubic_exponent_digits(self, tmp_path, capsys):
        # 2^(2/3)/3 printed to 15 significant digits
        path = write_config(tmp_path, "[params]\nbeta = 1.0\nb = 1.0\np = 3.0\nM = 1.0\n")
        code, out, _ = run_cli(capsys, "rbar", "--config", path)
        assert code == 0
        assert "0.529133683989400" in out

    def test_zero_forcing_is_infinite(self, tmp_path, capsys):
        path = write_config(tmp_path, "[params]\nbeta = 2.0\nb = 1.0\np = 2.0\nM = 0.0\n")
        code, out, _ = run_cli(capsys, "rbar", "--config", path)
        assert code == 0
        assert "rbar = inf" in out
        assert "every ball" in out

    def test_sublinear_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "[params]\nbeta = 1.0\nb = 1.0\np = 0.5\nM = 1.0\n")
        code, out, err = run_cli(capsys, "rbar", "--config", path)
        assert code == 2
        assert "no existence threshold" in err


class TestRadial:
    def test_model_profile_csv(self, tmp_path, capsys):
        path = write_config(
            tmp_path, MODEL_INI + "\n[radial]\nR = 1.0\ninclude_radii = 0.5\n"
        )
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "radial", "--config", path, "--out", out_dir)
        assert code == 0
        rows = {
            line.split(",")[0]: line.split(",")
            for line in (out_dir / "profile.csv").read_text().splitlines()[2:]
        }
        u_half = float(rows["0.5"][2])
        assert u_half == pytest.approx(0.24221468741956725, abs=1e-6)

    def test_nan_include_radius_exits_2(self, tmp_path, capsys):
        # a config error, refused before any profile is computed (exit 3
        # would read as a numeric failure)
        path = write_config(
            tmp_path, MODEL_INI + "\n[radial]\nR = 1.0\ninclude_radii = 0.5, nan\n"
        )
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "radial", "--config", path, "--out", out_dir)
        assert code == 2
        assert out == ""
        assert "include_radii must lie in (0, R]" in err
        assert not out_dir.exists()

    def test_threshold_refusal_no_partial_output(self, tmp_path, capsys):
        # one refusal, with the sign gap 1 - 1/R^2, for the radial profile
        # and the supersolution alike
        text = MODEL_INI + "\n[radial]\nR = 1.3\n\n[domain]\nradius = 1.3\n"
        path = write_config(tmp_path, text)
        out_dir = tmp_path / "results"
        for command in ("radial", "barrier"):
            code, out, err = run_cli(
                capsys, command, "--config", path, "--out", out_dir
            )
            assert code == 2
            assert out == ""
            assert err.splitlines() == [
                "error: ball radius 1.3 exceeds the existence threshold 1.0"
                " at forcing magnitude 1.0",
                "  gap: 0.40828402366863914",
                "  radius: 1.3",
            ]
            assert not out_dir.exists()

    def test_numeric_error_prints_diagnostics(self, tmp_path, capsys):
        # p barely above 1: the second zero overflows double precision at
        # r_min = 1e-6, and root validation refuses it
        text = (
            "[params]\nbeta = 2.0\nb = 1.0\np = 1.005\nM = 1.0\n\n"
            "[radial]\nbranch = SecondZeroSuperlinear\nR = 1.0\n"
        )
        path = write_config(tmp_path, text)
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "radial", "--config", path, "--out", out_dir)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == "error: root or its residual is not finite"
        assert lines[1:] == ["  radius: 1e-06", "  root: inf"]
        assert not out_dir.exists()


class TestBlowup:
    def test_model_decades(self, tmp_path, capsys):
        path = write_config(tmp_path, MODEL_INI + "\n[radial]\ndecades = 3\n")
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "blowup", "--config", path, "--out", out_dir)
        assert code == 0
        assert "Blowup" in out
        data = np.loadtxt(
            out_dir / "blowup.csv", delimiter=",", skiprows=2, usecols=(0, 1, 2)
        )
        # each decade toward the center adds 2*log(10) up to the O(r^2)
        # tail of the bounded terms
        growth = np.diff(data[:, 2])
        assert np.all(growth >= 0.5)
        assert growth == pytest.approx([2 * math.log(10.0)] * 2, abs=5e-3)

    def test_bounded_exponent(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[params]\nbeta = 1.0\nb = 1.0\np = 3.0\nM = 1.0\n"
            "\n[radial]\nR = 0.5\ndecades = 3\n",
        )
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "blowup", "--config", path, "--out", out_dir)
        assert code == 0
        assert "Bounded" in out and "1.45483151462896" in out
        data = np.loadtxt(
            out_dir / "blowup.csv", delimiter=",", skiprows=2, usecols=(2,)
        )
        assert np.all(data <= 1.4548315146289619)


class TestExplicit:
    def test_monge_ampere_form(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[params]\np = 0.5\n\n[radial]\nkind = MongeAmpere\nnode_count = 65\n",
        )
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "explicit", "--config", path, "--out", out_dir)
        assert code == 0
        assert "u(0) = -0.166666666666667" in out
        header = (out_dir / "explicit.csv").read_text().splitlines()[0]
        assert "K=0.16666666666666666" in header and "g=3" in header

    def test_superlinear_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "[params]\np = 2.0\n")
        code, _, err = run_cli(capsys, "explicit", "--config", path)
        assert code == 2
        assert "p in (0, 1)" in err


LENS_INI = MODEL_INI + """
[domain]
radius = 1.0
centers = -0.3, 0.0; 0.3, 0.0

[solver]
h = 0.125
K = 8
tol = 0.0001
"""


class TestBarrier:
    def test_lens_barriers_ordered(self, tmp_path, capsys):
        path = write_config(tmp_path, LENS_INI)
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "barrier", "--config", path, "--out", out_dir)
        assert code == 0
        data = np.loadtxt(out_dir / "barrier.csv", delimiter=",", skiprows=2)
        lower, upper = data[:, 2], data[:, 3]
        assert np.all(upper >= lower)
        assert "min upper-lower gap" in out


class TestSolve:
    def test_lens_solve_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, LENS_INI)
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "solve", "--config", path, "--out", out_dir)
        assert code == 0
        assert "solved" in out and "residual" in out
        report = (out_dir / "report.txt").read_text()
        assert "iterations:" in report and "residual_norm:" in report
        for gone in ("init:", "upwind_steps:", "factorizations:", "form_gap:"):
            assert gone not in report
        data = np.loadtxt(out_dir / "solution.csv", delimiter=",", skiprows=2)
        assert data.shape[1] == 3
        assert np.all(data[:, 2] >= 0.0)

    def test_reruns_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, LENS_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "solve", "--config", path, "--out", a)[0] == 0
        assert run_cli(capsys, "solve", "--config", path, "--out", b)[0] == 0
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("ham_p = 2.0", "ham_p = nan", "gradient exponent p > 0, got nan"),
            (
                "operator = CoefficientLambdaN",
                "operator = WeightedEigenvalues\nweights = inf, 1.0",
                "eigenvalue weight >= 0, got inf",
            ),
        ],
        ids=["ham-p-nan", "weight-inf"],
    )
    def test_non_finite_spec_value_exits_2(self, tmp_path, capsys, old, new, message):
        # a NaN or inf admitted by a spec would compare false in every later
        # check and reach the solve, which reports a blow-up (exit 3)
        path = write_config(tmp_path, LENS_INI.replace(old, new))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "solve", "--config", path, "--out", out_dir)
        assert code == 2
        assert err.startswith("error: need a finite real ") and message in err
        assert "blew up" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1, 0; 0.4", "[problem] rows: rows differ in length"),
            ("1, 0, 5; 0, 1, 0", "must be 2x2 on grids"),
        ],
    )
    def test_bad_diffusion_rows_exit_2(self, tmp_path, capsys, rows, message):
        text = LENS_INI.replace(
            "operator = CoefficientLambdaN",
            f"operator = LinearDegenerate\nrows = {rows}",
        )
        path = write_config(tmp_path, text)
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "solve", "--config", path, "--out", out_dir)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()

    def test_k_not_a_multiple_of_4_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, LENS_INI.replace("K = 8", "K = 6"))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "solve", "--config", path, "--out", out_dir)
        assert code == 2
        assert "multiple of 4" in err
        assert not out_dir.exists()

    def test_envelope_mismatch_is_config_error(self, tmp_path, capsys):
        # gradient growth above the declared envelope b
        bad = LENS_INI.replace("ham_b = 1.0", "ham_b = 2.0")
        path = write_config(tmp_path, bad)
        code, _, err = run_cli(capsys, "solve", "--config", path, "--out", tmp_path / "o")
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_near_linear_gradient_term_solves(self, tmp_path, capsys):
        # p = 1.00001 on a disc of radius 0.99 rbar: a well-posed problem,
        # solved with the gradient term as written
        radius = 0.99 * rbar(Params(beta=2.0, b=1.0, p=1.00001))
        text = (
            MODEL_INI.replace("p = 2.0", "p = 1.00001")
            .replace("ham_p = 2.0", "ham_p = 1.00001")
            + f"\n[domain]\nradius = {radius!r}\ncenters = 0.0, 0.0\n"
            + f"\n[solver]\nh = {radius / 4!r}\n"
        )
        path = write_config(tmp_path, text)
        out_dir = tmp_path / "o"
        code, out, _ = run_cli(capsys, "solve", "--config", path, "--out", out_dir)
        assert code == 0
        assert "solved" in out
        assert (out_dir / "solution.csv").is_file()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_prints_the_failure_record(self, tmp_path, capsys):
        text = (
            MODEL_INI.replace("hamiltonian = PowerNorm", "hamiltonian = none")
            .replace("f = -1.0", "f = 1e308")
            + "\n[solver]\nh = 0.125\ntol = 1e-12\n"
        )
        path = write_config(tmp_path, text)
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "solve", "--config", path, "--out", out_dir)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == "error: iteration blew up (non-finite residual)"
        keys = [line.split(":")[0].strip() for line in lines[1:]]
        assert keys == ["iterations", "residual", "residual_history"]
        assert not out_dir.exists()


VERIFY_INI = MODEL_INI + """
[radial]
R = 0.9

[verify]
radii = 0.2, 0.5, 0.8
tolerance = 1e-06
sigma = 0.9
epsilon = 0.1
"""


class TestVerify:
    def test_model_suite_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, VERIFY_INI)
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "verify", "--config", path, "--out", out_dir)
        assert code == 0
        assert "residual: PASS" in out
        assert "sigma_perturbation: PASS" in out
        assert "threshold_probe: PASS" in out
        report = (out_dir / "verify_report.txt").read_text()
        assert report.count("PASS") == 3 and "FAIL" not in report

    def test_sublinear_suite_uses_scaling(self, tmp_path, capsys):
        text = (
            "[params]\nbeta = 1.0\nb = 1.0\np = 0.5\nM = 1.0\n\n"
            "[problem]\noperator = LambdaK\nindex = 2\nhamiltonian = PowerNorm\n"
            "ham_b = 1.0\nham_p = 0.5\nf = -1.0\n\n"
            "[radial]\nbranch = FirstZeroSublinear\nR = 1.0\n"
        )
        path = write_config(tmp_path, text)
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "verify", "--config", path, "--out", out_dir)
        assert code == 0
        assert "epsilon_scaling: PASS" in out

    def test_wrong_coefficient_fails_with_report(self, tmp_path, capsys):
        bad = VERIFY_INI.replace("coefficient = 2.0", "coefficient = 3.0")
        path = write_config(tmp_path, bad)
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "verify", "--config", path, "--out", out_dir)
        assert code == 4
        assert "residual: FAIL" in out
        assert "verification failed" in err
        assert "FAIL" in (out_dir / "verify_report.txt").read_text()


class TestSweep:
    def test_threshold_bracket(self, tmp_path, capsys):
        path = write_config(
            tmp_path, MODEL_INI + "\n[sweep]\nR_values = 0.9, 1.0, 1.1\n"
        )
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "sweep", "--config", path, "--out", out_dir)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("Exists")
        assert "(endpoint)" in lines[1]
        assert "FailsAt" in lines[2]
        assert "2 of 3" in lines[3]
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert rows[0] == "R,exists,endpoint,fails_at,gap"
        assert len(rows) == 4

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, MODEL_INI)
        code, _, err = run_cli(capsys, "sweep", "--config", path)
        assert code == 2
        assert "R_values" in err


EVERY_COMMAND_INI = LENS_INI + """
[radial]
R = 0.9
decades = 3

[verify]
radii = 0.2, 0.5, 0.8
tolerance = 1e-06
sigma = 0.9
epsilon = 0.1

[sweep]
R_values = 0.9, 1.0, 1.1
"""
EXPLICIT_INI = "[params]\np = 0.5\n\n[radial]\nkind = MongeAmpere\nnode_count = 65\n"

# the files each command writes, as the README's command table lists them
COMMAND_FILES = {
    "rbar": [],
    "radial": ["profile.csv"],
    "blowup": ["blowup.csv"],
    "explicit": ["explicit.csv"],
    "barrier": ["barrier.csv"],
    "solve": ["report.txt", "solution.csv"],
    "verify": ["verify_report.txt"],
    "sweep": ["sweep.csv"],
}


def _written(out_dir):
    return sorted(p.name for p in out_dir.glob("*")) if out_dir.exists() else []


def _stable_bytes(path):
    """The file's bytes without report.txt's wall-time line."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(b"wall_time_s:"))


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Each command run twice on one config: {command: (out_a, out_b)}."""
    root = tmp_path_factory.mktemp("cli_runs")
    configs = {}
    for name, text in (("every", EVERY_COMMAND_INI), ("explicit", EXPLICIT_INI)):
        configs[name] = root / f"{name}.ini"
        configs[name].write_text(text, encoding="utf-8")
    runs = {}
    for command in COMMANDS:
        config = configs["explicit" if command == "explicit" else "every"]
        runs[command] = (root / command / "a", root / command / "b")
        for out_dir in runs[command]:
            assert main([command, "--config", str(config), "--out", str(out_dir)]) == 0
    return runs


def _check_cells(path):
    """Every cell of a CSV table is a number written as f"{x:.17g}", a bool
    column's True/False, or empty where the value is missing."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0].startswith("# "):
        lines = lines[1:]
    header = lines[0].split(",")
    assert len(lines) > 1
    for i, line in enumerate(lines[1:]):
        row = dict(zip(header, line.split(",")))
        assert len(row) == len(header) == line.count(",") + 1
        missing = {
            "decade_growth": i == 0,
            "order": i == 0,
            "fails_at": row.get("exists") == "True",
            "gap": row.get("exists") == "True",
        }
        for column, cell in row.items():
            if column in ("exists", "endpoint"):
                assert cell in ("True", "False")
            elif missing.get(column, False):
                assert cell == "", (path.name, column, i)
            else:
                assert cell == f"{float(cell):.17g}", (path.name, column, i)


class TestOutputFiles:
    def test_each_command_writes_its_files(self, cli_runs):
        assert set(cli_runs) == set(COMMAND_FILES)
        for command, out_dirs in cli_runs.items():
            for out_dir in out_dirs:
                assert _written(out_dir) == COMMAND_FILES[command], command

    def test_reruns_byte_identical(self, cli_runs):
        for command, (a, b) in cli_runs.items():
            for name in _written(a):
                assert _stable_bytes(a / name) == _stable_bytes(b / name), name

    def test_cli_tables_share_one_cell_format(self, cli_runs):
        tables = [
            a / name
            for a, _ in cli_runs.values()
            for name in _written(a)
            if name.endswith(".csv")
        ]
        assert len(tables) == 6
        for path in tables:
            _check_cells(path)
        sweep = (cli_runs["sweep"][0] / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in sweep[1:]] == ["True", "True", "False"]

    def test_library_tables_share_one_cell_format(self, tmp_path):
        params = Params(beta=2.0, b=1.0, p=2.0, M=1.0)
        disc = ConvexDomain(radius=1.0, centers=((0.0, 0.0),))
        problem = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=params,
            domain=disc,
            f=-1.0,
        )
        verify_problem = VerifyProblem(
            operator=problem.operator, hamiltonian=problem.hamiltonian, f=-1.0, N=2
        )
        profile = radial_profile("FirstZeroSuperlinear", 0.9, params, node_count=64)
        barrier_to_csv(
            build_supersolution(disc, params, 0.5), tmp_path / "barrier.csv", 16
        )
        residual_report_to_csv(
            residual_check_radial(profile, verify_problem, [0.2, 0.5, 0.8]),
            tmp_path / "residual.csv",
        )
        convergence_study(problem, [0.25, 0.125]).to_csv(tmp_path / "order.csv")
        for name in ("barrier.csv", "residual.csv", "order.csv"):
            _check_cells(tmp_path / name)

    def test_write_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(0.1, None, 3, True), (np.float64(1 / 3), 2.5, np.int64(7), False)]
        write_csv(path, "a,b,c,d", rows, comment="note")
        assert path.read_text(encoding="utf-8") == (
            "# note\na,b,c,d\n0.10000000000000001,,3,True\n"
            "0.33333333333333331,2.5,7,False\n"
        )
        write_csv(path, "a", [])
        assert path.read_bytes() == b"a\n"


class TestFlagsAndDispatch:
    def test_out_flag_overrides_config(self, tmp_path, capsys):
        text = MODEL_INI + f"\n[run]\nout = {tmp_path / 'from_config'}\n"
        path = write_config(tmp_path, text + "\n[sweep]\nR_values = 0.5\n")
        code, _, _ = run_cli(
            capsys, "sweep", "--config", path, "--out", tmp_path / "flagged"
        )
        assert code == 0
        assert (tmp_path / "flagged" / "sweep.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, MODEL_INI + "\n[run]\ncommand = rbar\n")
        code, _, err = run_cli(capsys, "radial", "--config", path)
        assert code == 2
        assert "rbar" in err

    def test_matching_command_key_allowed(self, tmp_path, capsys):
        path = write_config(tmp_path, MODEL_INI + "\n[run]\ncommand = rbar\n")
        assert run_cli(capsys, "rbar", "--config", path)[0] == 0

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "rbar", "--config", tmp_path / "nope.ini")
        assert code == 2
        assert "cannot read config" in err

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        # the thread count had no reader and is gone, from the file and the
        # command line alike
        path = write_config(tmp_path, MODEL_INI + "\n[run]\nthreads = 2\n")
        code, _, err = run_cli(capsys, "rbar", "--config", path)
        assert code == 2
        assert "threads" in err
        with pytest.raises(SystemExit) as exc:
            main(["rbar", "--config", str(path), "--threads", "2"])
        assert exc.value.code == 2

    def test_seed_accepted(self, tmp_path, capsys):
        path = write_config(tmp_path, MODEL_INI)
        code, out, _ = run_cli(capsys, "rbar", "--config", path, "--seed", 7)
        assert code == 0
        assert "rbar = 1.00000000000000" in out

    def test_seed_key_is_unknown(self, tmp_path, capsys):
        # no command read the seed; the key is gone, while the flag is
        # still accepted and ignored
        path = write_config(tmp_path, MODEL_INI + "\n[run]\nseed = 7\n")
        code, _, err = run_cli(capsys, "rbar", "--config", path)
        assert code == 2
        assert "unknown config key [run] seed" in err

    def test_module_entry_point(self, tmp_path):
        path = write_config(tmp_path, MODEL_INI)
        proc = subprocess.run(
            [sys.executable, "-m", "degelliptic.cli", "rbar", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "1.00000000000000" in proc.stdout
