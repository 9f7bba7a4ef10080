"""Closed-form references and output checkers for the benchmark.

Everything here is worked out by hand from the equations, not taken from
the package: this module imports numpy only, so a fault in the package
cannot also bend the reference it is checked against.  Each checker takes
plain outputs (arrays, numbers, text) and returns a list of problems; an
empty list means the output is right.

Model case: F = 2 lambda_N(D^2 u), H = |Du|^2, f = -1 on the unit disc,
i.e. Params(beta=2, b=1, p=2, M=1).  Its radial roots are
s = 1/r -+ sqrt(1/r^2 - 1), and with w = sqrt(1 - r^2):
  first zero   u(r) = w - log(1 + w) - (W - log(1 + W)),  W = w(R)
  second zero  u(r) = log(1 + w) - 2 log r - w              (R = 1)
  zero forcing u(r) = 2 log(R / r)                          (M = 0)
The sublinear case (1, 1, 1/2, 1) solves s - r sqrt(s) - r = 0, so
sqrt(s) = (r + sqrt(r^2 + 4 r)) / 2.
"""

from __future__ import annotations

import math

import numpy as np

U_AT_ZERO = 1.0 - math.log(2.0)
# criterion-9 gate: center (and max-norm) error within 5 % of u(0)
GRID_GATE = 0.05 * U_AT_ZERO
GOLDEN_ROOT = (3.0 + math.sqrt(5.0)) / 2.0
# sup bound of the bounded second-zero family at (beta, b, p, M) = (1, 1, 3, 1)
P3_CENTER_BOUND = 1.454832
ROOT_TOL = 1e-10
PROFILE_TOL = 1e-8
CENTER_TOL = 1e-6
CERT_TOL = 1e-10
BOUNDARY_GAP_TOL = 1e-6
# the supersolution is a cubic Hermite interpolant held within 1e-8 of the
# exact profile; evaluating it at arbitrary points keeps that order
BARRIER_TOL = 1e-7


def _problem(problems: list[str], ok, message: str) -> None:
    if not bool(ok):
        problems.append(message)


def _max_abs(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        return math.inf
    d = np.abs(a - b)
    return math.inf if not np.all(np.isfinite(d)) else float(d.max())


# ---------------------------------------------------------------------------
# references


def model_roots(r):
    """(first, second) zeros of phi(r, s) = -2 s / r + s^2 + 1, cancellation-free."""
    r = np.asarray(r, dtype=float)
    w = np.sqrt(1.0 - r * r)
    return r / (1.0 + w), (1.0 + w) / r


def model_first_zero_u(r, R: float = 1.0):
    def U(x):
        w = np.sqrt(np.maximum(1.0 - np.asarray(x, dtype=float) ** 2, 0.0))
        return w - np.log1p(w)

    return U(r) - U(R)


def model_second_zero_u(r):
    r = np.asarray(r, dtype=float)
    w = np.sqrt(1.0 - r * r)
    return np.log1p(w) - 2.0 * np.log(r) - w


def zero_forcing_u(r, R: float = 1.0):
    return 2.0 * np.log(R / np.asarray(r, dtype=float))


def sublinear_s(r):
    r = np.asarray(r, dtype=float)
    return ((r + np.sqrt(r * r + 4.0 * r)) / 2.0) ** 2


_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def sublinear_u(r, R: float = 1.0):
    """u(r) = integral_r^R s, by Gauss-Legendre in y = sqrt(t), where the
    integrand 2 y s(y^2) is smooth."""
    out = []
    yb = math.sqrt(R)
    for ri in np.atleast_1d(np.asarray(r, dtype=float)):
        ya = math.sqrt(ri)
        y = 0.5 * (yb - ya) * _GL_X + 0.5 * (yb + ya)
        out.append(0.5 * (yb - ya) * float(np.sum(_GL_W * sublinear_s(y * y) * 2.0 * y)))
    return np.array(out)


def threshold_radius(beta, b, p, M) -> float:
    """The radius at which min_s phi(R, s) = 0, from the stationary point
    s1 = (beta / (R p b))^(1/(p-1)): solving phi(R, s1(R)) = 0 for R."""
    return beta * (p - 1.0) ** ((p - 1.0) / p) / (p * b ** (1.0 / p) * M ** ((p - 1.0) / p))


def threshold_gap(R, beta, b, p, M) -> float:
    """min over s > 0 of phi(R, s) = -beta s / R + b s^p + M."""
    s1 = (beta / (R * p * b)) ** (1.0 / (p - 1.0))
    return -beta * s1 / R + b * s1**p + M


def explicit_lambda1(p: float, R: float, r):
    """u = K (R^g - r^g) solving lambda_1(D^2 u) + |Du|^p = 0: the radial
    eigenvalues are u'' and u'/r, the smaller is u'', and matching powers
    of r gives g = (2 - p)/(1 - p), K^(1-p) = g^(p-1) / (g - 1)."""
    g = (2.0 - p) / (1.0 - p)
    K = (g ** (p - 1.0) / (g - 1.0)) ** (1.0 / (1.0 - p))
    r = np.asarray(r, dtype=float)
    u = K * (R**g - r**g)
    du = -K * g * r ** (g - 1.0)
    ddu = -K * g * (g - 1.0) * r ** (g - 2.0)
    return K, g, u, du, ddu


def sigma_margins(r, sigma: float = 0.9):
    """Margins of sigma v + (1-sigma) varphi for the model operator, v and
    varphi the first-zero solutions at M = 1 and M = 1.1 on the 0.9-ball,
    s = M r / (1 + w), w = sqrt(1 - M r^2)."""
    r = np.asarray(r, dtype=float)
    w1 = np.sqrt(1.0 - r**2)
    w2 = np.sqrt(1.0 - 1.1 * r**2)
    du = sigma * (-r / (1.0 + w1)) + (1.0 - sigma) * (-1.1 * r / (1.0 + w2))
    ddu = sigma * (-1.0 / ((1.0 + w1) * w1)) + (1.0 - sigma) * (
        -1.1 / ((1.0 + w2) * w2)
    )
    return -(2.0 * np.maximum(ddu, du / r) + np.abs(du) ** 2 + 1.0)


def epsilon_margins(r, eps: float = 0.1):
    """Margins of (1+eps) v for lambda_2 + |Du|^(1/2) = -1, v the sublinear
    profile with s' = (r + t)(t + r + 2)/(2t), t = sqrt(r^2 + 4r)."""
    r = np.asarray(r, dtype=float)
    t = np.sqrt(r**2 + 4.0 * r)
    s = ((r + t) / 2.0) ** 2
    sprime = (r + t) * (t + r + 2.0) / (2.0 * t)
    du = -(1.0 + eps) * s
    ddu = -(1.0 + eps) * sprime
    return -(np.maximum(ddu, du / r) + np.abs(du) ** 0.5 + 1.0)


def lens_barriers(xy, centers, R: float = 1.0):
    """Closed forms of the model barriers on a ball intersection: with d the
    largest distance to a center, upper = u0(d) for the first-zero profile
    u0 on the R-ball, lower = (d^2 - R^2) / (2 beta) at K = 1, beta = 2."""
    xy = np.asarray(xy, dtype=float)
    d = np.max(
        [np.hypot(xy[:, 0] - cx, xy[:, 1] - cy) for cx, cy in centers], axis=0
    )
    d = np.minimum(d, R)
    return model_first_zero_u(d, R), (d * d - R * R) / 4.0


# ---------------------------------------------------------------------------
# grid solutions


def symmetry_tolerance(stop: float, R: float, beta: float) -> float:
    """u(x) and u(-x) both meet the stop residual of one point-symmetric
    discrete problem; the paraboloid (R^2 - |x - y|^2) stop / beta bounds
    their gap by stop R^2 / beta, and the factor 10 covers the linearised
    gradient term that bound leaves out."""
    return 10.0 * stop * R * R / beta


def point_symmetry_gap(xy, values, h: float) -> float:
    """max |u(x) - u(-x)| over the nodes; inf if a node has no mirror."""
    keys = np.rint(np.asarray(xy) / h).astype(np.int64)
    index = {(int(i), int(j)): k for k, (i, j) in enumerate(keys)}
    gap = 0.0
    for k, (i, j) in enumerate(keys):
        m = index.get((-int(i), -int(j)))
        if m is None:
            return math.inf
        gap = max(gap, abs(float(values[k]) - float(values[m])))
    return gap


def check_grid_solution(sol: dict) -> list[str]:
    """Properties every converged solve must have; disc cases also meet the
    closed form u = w - log(1 + w), lens cases the barrier sandwich."""
    problems: list[str] = []
    name = sol["case"]
    values = np.asarray(sol["values"], dtype=float)
    xy = np.asarray(sol["nodes_xy"], dtype=float)
    _problem(problems, values.size > 0 and np.all(np.isfinite(values)),
             f"{name}: non-finite or empty solution")
    _problem(problems, sol["residual"] <= sol["stop"],
             f"{name}: residual {sol['residual']:.3e} above stop {sol['stop']:.3e}")
    _problem(problems, values.size > 0 and float(values.min()) > 0.0,
             f"{name}: solution not positive")
    sym = point_symmetry_gap(xy, values, sol["h"])
    tol = symmetry_tolerance(sol["stop"], sol["radius"], sol["beta"])
    _problem(problems, sym <= tol,
             f"{name}: |u(x) - u(-x)| = {sym:.3e} above {tol:.3e}")
    if sol["domain"] == "disc":
        center_err = abs(sol["center"] - U_AT_ZERO)
        _problem(problems, center_err <= GRID_GATE,
                 f"{name}: center error {center_err:.3e} above {GRID_GATE:.3e}")
        max_err = _max_abs(values, model_first_zero_u(np.hypot(xy[:, 0], xy[:, 1])))
        _problem(problems, max_err <= GRID_GATE,
                 f"{name}: max error {max_err:.3e} above {GRID_GATE:.3e}")
    else:
        upper, lower = lens_barriers(xy, sol["centers"])
        slack = 10.0 * sol["h"]
        _problem(problems, values.size > 0 and float(np.max(values - upper)) <= slack,
                 f"{name}: solution above the supersolution by more than 10h")
        _problem(problems, values.size > 0 and float(np.max(lower - values)) <= slack,
                 f"{name}: solution below the subsolution by more than 10h")
    return problems


def check_disc_ladder(center_errors: list[float]) -> list[str]:
    """Center errors over h = 1/16, 1/32, 1/64 at K = 8 strictly decrease."""
    ok = all(a > b for a, b in zip(center_errors, center_errors[1:]))
    return [] if ok else [f"K = 8 center errors not strictly decreasing: {center_errors}"]


# ---------------------------------------------------------------------------
# radial side


def check_roots(r, first, second) -> list[str]:
    lo, hi = model_roots(r)
    problems: list[str] = []
    e1, e2 = _max_abs(first, lo), _max_abs(second, hi)
    _problem(problems, e1 <= ROOT_TOL, f"first_zero off 1/r - sqrt(1/r^2 - 1) by {e1:.3e}")
    _problem(problems, e2 <= ROOT_TOL, f"second_zero off 1/r + sqrt(1/r^2 - 1) by {e2:.3e}")
    return problems


def check_profile(branch: str, r, u, u_at_zero, s=None) -> list[str]:
    """Profiles of the four branches against their closed forms (R = 1)."""
    problems: list[str] = []
    if branch == "FirstZeroSuperlinear":
        err = _max_abs(u, model_first_zero_u(r))
        _problem(problems, abs(u_at_zero - U_AT_ZERO) <= CENTER_TOL,
                 f"{branch}: u(0+) = {u_at_zero!r}, not 1 - log 2")
    elif branch == "SecondZeroSuperlinear":
        err = _max_abs(u, model_second_zero_u(r))
        _problem(problems, u_at_zero == math.inf, f"{branch}: bounded center value")
    elif branch == "ZeroM":
        err = _max_abs(u, zero_forcing_u(r))
        _problem(problems, u_at_zero == math.inf, f"{branch}: bounded center value")
    elif branch == "FirstZeroSublinear":
        err = _max_abs(u, sublinear_u(r))
        _problem(problems, abs(u_at_zero - float(sublinear_u(0.0)[0])) <= CENTER_TOL,
                 f"{branch}: u(0+) = {u_at_zero!r} off the quadrature")
        _problem(problems, s is not None and abs(float(s[-1]) - GOLDEN_ROOT) <= ROOT_TOL,
                 f"{branch}: s(1) is not (3 + sqrt 5)/2")
    else:
        return [f"unknown branch {branch}"]
    _problem(problems, err <= PROFILE_TOL, f"{branch}: profile off its closed form by {err:.3e}")
    return problems


def check_blowup(ladder, p3_bound, p3_center, p2_kind) -> list[str]:
    """ladder: (r_min, u(r_min)) for r_min = 1e-1 .. 1e-6 on the p = 2
    second-zero branch; u must follow log(1+w) - 2 log r - w and so gain
    at least 0.5 per decade."""
    problems: list[str] = []
    r = np.array([row[0] for row in ladder])
    u = np.array([row[1] for row in ladder])
    err = _max_abs(u, model_second_zero_u(r))
    _problem(problems, len(ladder) == 6 and err <= PROFILE_TOL,
             f"blow-up ladder off its closed form by {err:.3e}")
    _problem(problems, u.size > 1 and u[0] >= 0.5 and float(np.min(np.diff(u))) >= 0.5,
             "blow-up ladder gains less than 0.5 per decade")
    _problem(problems, p2_kind == "Blowup", f"p = 2 classified {p2_kind}")
    _problem(problems, p3_bound is not None and p3_bound <= P3_CENTER_BOUND,
             f"p = 3 sup bound {p3_bound!r} above {P3_CENTER_BOUND}")
    _problem(problems, p3_bound is not None and p3_center < p3_bound,
             f"p = 3 center {p3_center!r} not below the bound {p3_bound!r}")
    return problems


def check_barrier(interior_xy, upper_interior, boundary_gap, centers) -> list[str]:
    problems: list[str] = []
    upper, _ = lens_barriers(interior_xy, centers)
    err = _max_abs(upper_interior, upper)
    _problem(problems, err <= BARRIER_TOL, f"supersolution off u0(max distance) by {err:.3e}")
    gap = float(np.max(np.abs(boundary_gap))) if np.size(boundary_gap) else math.inf
    _problem(problems, gap <= BOUNDARY_GAP_TOL, f"boundary barrier gap {gap:.3e}")
    return problems


def check_sigma(cert: dict) -> list[str]:
    problems: list[str] = []
    err = _max_abs(cert["margins"], sigma_margins(cert["radii"]))
    _problem(problems, err <= CERT_TOL, f"sigma margins off the closed form by {err:.3e}")
    _problem(problems, abs(cert["slack"] - 0.1 * 0.1) <= CERT_TOL, "sigma slack is not (1 - sigma) eps")
    _problem(problems, cert["passed"] and cert["min_margin"] >= cert["slack"] - CERT_TOL,
             "sigma certificate does not hold")
    return problems


def check_epsilon(cert: dict) -> list[str]:
    problems: list[str] = []
    err = _max_abs(cert["margins"], epsilon_margins(cert["radii"]))
    _problem(problems, err <= CERT_TOL, f"epsilon margins off the closed form by {err:.3e}")
    _problem(problems, abs(cert["slack"] - 0.1) <= CERT_TOL, "epsilon slack is not eps sup|f|")
    _problem(problems, cert["passed"] and cert["min_margin"] >= cert["slack"] - CERT_TOL,
             "epsilon certificate does not hold")
    _problem(problems, cert["h2_min_margin"] >= -1e-12, "H2 scaling margin negative")
    return problems


def check_threshold(params: tuple, rbar_value: float, verdicts) -> list[str]:
    """verdicts at 0.99, 1.00, 1.01 x rbar, each (exists, endpoint, fails_at, gap)."""
    problems: list[str] = []
    beta, b, p, M = params
    R0 = threshold_radius(beta, b, p, M)
    _problem(problems, abs(rbar_value - R0) <= 1e-12 * R0,
             f"rbar{params} = {rbar_value!r}, closed form {R0!r}")
    below, at, above = verdicts
    _problem(problems, below[0] and not below[1], f"0.99 rbar{params}: {below}")
    _problem(problems, at[0] and at[1], f"rbar{params}: {at}")
    _problem(problems, not above[0] and above[2] is not None
             and abs(above[2] - 1.01 * R0) <= 1e-12 * R0, f"1.01 rbar{params}: {above}")
    gap = threshold_gap(1.01 * rbar_value, beta, b, p, M)
    _problem(problems, above[3] is not None and abs(above[3] - gap) <= 1e-10 * max(1.0, abs(gap))
             and gap > 0.0, f"1.01 rbar{params}: gap {above[3]!r}, closed form {gap!r}")
    return problems


def check_sampler(catalog_passed: list[bool], extended: dict) -> list[str]:
    """Every catalog operator passes at its ellipticity constant;
    NonconvexPair(1, 2) at beta = 1 fails the increment bound on Y <= 0 by
    at least 2 - beta while F1 and deg2 still pass."""
    problems: list[str] = []
    _problem(problems, catalog_passed and all(catalog_passed),
             f"catalog verdicts {catalog_passed}")
    _problem(problems, not extended["passed"] and extended["worst"] >= 1.0 - 1e-12,
             f"extended ellipticity verdict {extended}")
    _problem(problems, extended["F1"] and extended["deg2"], "NonconvexPair fails F1 or deg2")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs


def _csv_rows(text: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV whose first line may be a # comment."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], np.zeros((0, 0))
    header = lines[0].split(",")
    rows = [[float(v) if v else math.nan for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows, dtype=float)


def _printed(stdout: str, prefix: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            try:
                return float(line[len(prefix):].split()[0].rstrip(","))
            except (ValueError, IndexError):
                return None
    return None


def check_cli(inputs: dict, results: dict) -> list[str]:
    """results: command -> {"code", "stdout", "files": {name: text}}."""
    problems: list[str] = []
    for command, res in results.items():
        _problem(problems, res["code"] == 0, f"{command}: exit code {res['code']}")
    checkers = {
        "rbar": _cli_rbar,
        "radial": _cli_radial,
        "blowup": _cli_blowup,
        "explicit": _cli_explicit,
        "barrier": _cli_barrier,
        "solve": _cli_solve,
        "verify": _cli_verify,
        "sweep": _cli_sweep,
    }
    for command, check in checkers.items():
        if command not in results:
            problems.append(f"{command}: not run")
            continue
        try:
            problems.extend(check(results, inputs))
        except (KeyError, ValueError, IndexError) as err:
            problems.append(f"{command}: unreadable output ({err!r})")
    return problems


def _cli_rbar(results, inputs):
    out = results["rbar"]["stdout"]
    return [] if "rbar = 1.00000000000000" in out.splitlines()[0] else [f"rbar: printed {out!r}"]


def _cli_radial(results, inputs):
    res = results["radial"]
    problems: list[str] = []
    u0 = _printed(res["stdout"], "u(0+) = ")
    _problem(problems, u0 is not None and abs(u0 - U_AT_ZERO) <= CENTER_TOL,
             f"radial: printed u(0+) = {u0!r}")
    header, rows = _csv_rows(res["files"]["profile.csv"])
    r, s, u, resid = (rows[:, header.index(k)] for k in ("r", "s", "u", "residual"))
    err = _max_abs(u, model_first_zero_u(r))
    _problem(problems, err <= PROFILE_TOL, f"radial: profile.csv u off the closed form by {err:.3e}")
    serr = _max_abs(s, model_roots(r)[0])
    _problem(problems, serr <= ROOT_TOL, f"radial: profile.csv s off the root by {serr:.3e}")
    _problem(problems, float(np.max(np.abs(resid))) <= 1e-9, "radial: profile residual above 1e-9")
    return problems


def _cli_blowup(results, inputs):
    res = results["blowup"]
    problems: list[str] = []
    _problem(problems, res["stdout"].startswith("center behavior: Blowup"),
             "blowup: p = 2 not reported as Blowup")
    header, rows = _csv_rows(res["files"]["blowup.csv"])
    ladder = [(row[header.index("r_min")], row[header.index("u_rmin")]) for row in rows]
    r = np.array([x for x, _ in ladder])
    u = np.array([y for _, y in ladder])
    err = _max_abs(u, model_second_zero_u(r))
    _problem(problems, len(ladder) == 6 and err <= PROFILE_TOL,
             f"blowup: blowup.csv off the closed form by {err:.3e}")
    last = _printed(res["stdout"].splitlines()[1], "u(1e-6) = ")
    _problem(problems, last is not None and u.size and abs(last - u[-1]) <= 1e-12 * abs(u[-1]),
             "blowup: printed u(1e-6) differs from the CSV")
    return problems


def _cli_explicit(results, inputs):
    res = results["explicit"]
    p = inputs["explicit_p"]
    header, rows = _csv_rows(res["files"]["explicit.csv"])
    r = rows[:, header.index("r")]
    K, g, u, du, ddu = explicit_lambda1(p, 1.0, r)
    problems: list[str] = []
    for name, ref in (("u", u), ("du", du), ("ddu", ddu)):
        err = _max_abs(rows[:, header.index(name)], ref)
        _problem(problems, err <= 1e-12 * max(1.0, float(np.max(np.abs(ref)))),
                 f"explicit: {name} off K (R^g - r^g) by {err:.3e}")
    printed = _printed(res["stdout"], "u(0) = ")
    _problem(problems, printed is not None and abs(printed - K) <= 1e-13,
             f"explicit: printed u(0) = {printed!r}, closed form {K!r}")
    return problems


def _cli_barrier(results, inputs):
    header, rows = _csv_rows(results["barrier"]["files"]["barrier.csv"])
    xy = rows[:, [header.index("x"), header.index("y")]]
    upper, lower = lens_barriers(xy, inputs["centers"])
    problems: list[str] = []
    eu = _max_abs(rows[:, header.index("upper")], upper)
    el = _max_abs(rows[:, header.index("lower")], lower)
    _problem(problems, eu <= BARRIER_TOL, f"barrier: upper off u0(|x|) by {eu:.3e}")
    _problem(problems, el <= 1e-13, f"barrier: lower off (|x|^2 - 1)/4 by {el:.3e}")
    return problems


def _cli_solve(results, inputs):
    files = results["solve"]["files"]
    header, rows = _csv_rows(files["solution.csv"])
    xy = rows[:, [header.index("x"), header.index("y")]]
    values = rows[:, header.index("u")]
    report = dict(
        line.split(": ", 1) for line in files["report.txt"].splitlines() if ": " in line
    )
    h = inputs["h"]
    center = [v for (x, y), v in zip(xy, values) if abs(x) < 1e-12 and abs(y) < 1e-12]
    sol = {
        "case": "cli-solve",
        "domain": "disc",
        "h": h,
        "radius": 1.0,
        "beta": 2.0,
        "centers": inputs["centers"],
        "values": values,
        "nodes_xy": xy,
        "residual": results["solve"]["residual"],
        "stop": float(report["stop_residual"]),
        "center": center[0] if center else math.nan,
    }
    problems = check_grid_solution(sol)
    _problem(problems, float(report["residual_norm"]) <= sol["stop"],
             "solve: reported residual above the stop residual")
    bh, brows = _csv_rows(results["barrier"]["files"]["barrier.csv"])
    bxy = brows[:, [bh.index("x"), bh.index("y")]]
    same_nodes = bxy.shape == xy.shape and _max_abs(bxy, xy) <= 1e-15
    slack = 10.0 * h
    _problem(problems, same_nodes, "solve: nodes differ from the barrier command's")
    if same_nodes:
        _problem(problems, float(np.max(values - brows[:, bh.index("upper")])) <= slack
                 and float(np.max(brows[:, bh.index("lower")] - values)) <= slack,
                 "solve: solution outside the barrier command's bounds")
    return problems


def _cli_verify(results, inputs):
    res = results["verify"]
    problems: list[str] = []
    expected = ["residual: PASS", "sigma_perturbation: PASS", "threshold_probe: PASS"]
    _problem(problems, res["stdout"].splitlines() == expected, f"verify: printed {res['stdout']!r}")
    report = res["files"]["verify_report.txt"]
    fields = {}
    for line in report.splitlines():
        if ": " in line and not line.startswith("=="):
            fields.setdefault(line.split(": ", 1)[0], line.split(": ", 1)[1])
    slack = float(fields["certified_slack"])
    min_margin = float(fields["min_margin"])
    _problem(problems, abs(slack - (1.0 - 0.9) * 0.1) <= CERT_TOL, f"verify: slack {slack!r}")
    # the sampled minimum cannot undercut the closed-form infimum over (0, R]
    dense = np.linspace(1e-6, 0.9, 200_001)
    inf_margin = float(np.min(sigma_margins(dense)))
    _problem(problems, min_margin >= max(slack, inf_margin) - CERT_TOL,
             f"verify: min margin {min_margin!r} below {max(slack, inf_margin)!r}")
    tags = [ln.split(": ", 1)[1] for ln in report.splitlines() if ln.startswith("R=")]
    _problem(problems, len(tags) == 3 and tags[0] == "Exists" and tags[1] == "Exists (endpoint)"
             and tags[2].startswith("FailsAt"), f"verify: threshold verdicts {tags}")
    return problems


def _cli_sweep(results, inputs):
    res = results["sweep"]
    header, rows = _csv_rows(
        res["files"]["sweep.csv"].replace("True", "1").replace("False", "0")
    )
    problems: list[str] = []
    radii = np.asarray(inputs["sweep_radii"], dtype=float)
    _problem(problems, rows.shape[0] == radii.size and _max_abs(rows[:, 0], radii) <= 1e-15,
             "sweep: radii differ from the config")
    if rows.shape[0] != radii.size:
        return problems
    for row in rows:
        R = row[header.index("R")]
        exists = bool(row[header.index("exists")])
        _problem(problems, exists == (R <= 1.0), f"sweep: R = {R!r} exists = {exists}")
        if not exists:
            gap = 1.0 - 1.0 / (R * R)
            got = row[header.index("gap")]
            _problem(problems, abs(got - gap) <= 1e-12 and row[header.index("fails_at")] == R,
                     f"sweep: R = {R!r} gap {got!r}, closed form 1 - 1/R^2 = {gap!r}")
    admitted = int(np.sum(radii <= 1.0))
    _problem(problems, f"{admitted} of {radii.size} radii admit the profile" in res["stdout"],
             "sweep: printed count of admitted radii is wrong")
    return problems
