"""Wide-stencil grid tests.

Frozen numeric targets come from closed forms: the unit-disc benchmark at
(beta, b, p, M) = (2, 1, 2, 1) has u(0) = 1 - log 2, and the pure-lambda_1
problem with manufactured forcing -|x|/2 is solved by (1 - |x|^3)/12.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degelliptic import grid as grid_module
from degelliptic.errors import (
    ConfigError,
    NumericError,
    ThresholdError,
    UnsupportedDiscretizationError,
)
from degelliptic.grid import (
    Grid2D,
    GridFunction,
    GridProblem,
    SolveControls,
    _Scheme,
    _direction_fan,
    build_grid,
    discrete_gradient,
    discrete_operator,
    discrete_second_difference,
    report_to_text,
    residual_norm,
    solution_to_csv,
    solve,
    sweep,
)
from degelliptic.barriers import (
    build_subsolution,
    build_supersolution,
    evaluate_barrier,
    sample_boundary,
)
from degelliptic.model import (
    AnisotropicPower,
    CoefficientLambdaN,
    CompactPerturbation,
    ConvexDomain,
    LambdaK,
    LinearDegenerate,
    MatrixField,
    MinMax,
    MongeAmpere,
    Params,
    PowerNorm,
    ScalarField,
    SupInf,
    SymMatrix,
    TruncatedLower,
    WeightedEigenvalues,
    ellipticity_constant,
    evaluate_hamiltonian,
)
from degelliptic.radial import radial_profile, rbar

MODEL = Params(beta=2.0, b=1.0, p=2.0, M=1.0)
SUB = Params(beta=1.0, b=1.0, p=0.5, M=1.0)
U_AT_ZERO = 1.0 - math.log(2.0)

DISC = ConvexDomain(radius=1.0, centers=((0.0, 0.0),))
LENS = ConvexDomain(radius=1.0, centers=((-0.3, 0.0), (0.3, 0.0)))
ANISO_A = ((0.8, 0.2), (0.2, 0.5))  # diagonally dominant: a lattice split exists

BENCH = GridProblem(
    operator=CoefficientLambdaN(ScalarField.constant(2.0)),
    hamiltonian=PowerNorm(b=1.0, p=2.0),
    params=MODEL,
    domain=DISC,
    f=-1.0,
)

# the diagnostics of every NumericError that solve raises
FAILURE_KEYS = {
    "iterations",
    "factorizations",
    "upwind_steps",
    "residual",
    "residual_history",
    "policy_changes",
    "form_gap",
}


def quadratic_field(grid, a_matrix):
    a = np.asarray(a_matrix, dtype=float)
    pts = grid.nodes_xy
    return GridFunction(
        grid=grid, values=0.5 * np.einsum("ij,jk,ik->i", pts, a, pts)
    )


LINDEG_SIGMA = ((1.0, 0.0), (0.4, 0.8))


def _operator_at_origin(spec, grid):
    return discrete_operator(spec, quadratic_field(grid, np.eye(2)), (0.0, 0.0))


def _solve_on(spec, grid):
    return solve(GridProblem(spec, None, MODEL, grid.domain, -1.0), grid)


UNSUPPORTED = (
    MongeAmpere(),
    SupInf(rows=((LambdaK(1),),)),
    TruncatedLower(1),
    LambdaK(3),
    WeightedEigenvalues((1.0, 2.0, 3.0)),
)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.fixture(scope="module")
def disc_h4():
    return build_grid(DISC, 1 / 4, 8)


@pytest.fixture(scope="module")
def disc_h8():
    return build_grid(DISC, 1 / 8, 8)


@pytest.fixture(scope="module")
def disc_h16():
    return build_grid(DISC, 1 / 16, 8)


@pytest.fixture(scope="module")
def bench_h16(disc_h16):
    return solve(BENCH, disc_h16, SolveControls(tol=1e-5))


@pytest.fixture(scope="module")
def model_profile():
    return radial_profile("FirstZeroSuperlinear", 1.0, MODEL, node_count=4096)


def oracle_on(grid, profile):
    r = np.hypot(grid.nodes_xy[:, 0], grid.nodes_xy[:, 1])
    return GridFunction(grid=grid, values=profile.value(r))


class TestDirectionFan:
    def test_k8_primitive_vectors(self):
        assert _direction_fan(8) == (
            (1, 0),
            (2, 1),
            (1, 1),
            (1, 2),
            (0, 1),
            (-1, 2),
            (-1, 1),
            (-2, 1),
        )

    def test_k4_axes_and_diagonals(self):
        assert _direction_fan(4) == ((1, 0), (1, 1), (0, 1), (-1, 1))

    def test_k16_ties_go_to_the_shorter_vector(self):
        # (2, 1) and (3, 1) lie equally far from pi / 8 in angle; the
        # shorter (2, 1) fixes its images (1, 2), (-1, 2) and (-2, 1)
        assert _direction_fan(16) == (
            (1, 0), (4, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 4),
            (0, 1), (-1, 4), (-1, 2), (-2, 3), (-1, 1), (-3, 2), (-2, 1), (-4, 1),
        )

    def test_fan_size_and_primitivity(self):
        for k in range(4, 65, 4):
            fan = _direction_fan(k)
            assert len(fan) == k
            assert all(math.gcd(a, b) == 1 for a, b in fan)
            # one representative per line: no direction repeats up to sign
            lines = {(a, b) for a, b in fan} | {(-a, -b) for a, b in fan}
            assert len(lines) == 2 * k

    def test_closed_under_mirror(self):
        for k in range(4, 65, 4):
            fan = _direction_fan(k)
            lines = {(a, b) for a, b in fan} | {(-a, -b) for a, b in fan}
            assert all((-a, b) in lines for a, b in fan), k

    def test_orthogonal_pairing(self):
        # eigenvalue scans rely on the fan being closed under 90-degree
        # rotation so that min+max pairs up orthogonally
        for k in range(4, 65, 4):
            fan = _direction_fan(k)
            lines = {(a, b) for a, b in fan} | {(-a, -b) for a, b in fan}
            assert all((-b, a) in lines for a, b in fan), k
            # the axes and diagonals sit at the quarter slots
            quarters = [fan[j * k // 4] for j in range(4)]
            assert quarters == [(1, 0), (1, 1), (0, 1), (-1, 1)]


class TestBuildGrid:
    def test_unit_disc_node_count(self, disc_h4):
        assert disc_h4.n_nodes == 45
        assert int(disc_h4.mask.sum()) == 45

    def test_lens_membership(self):
        g = build_grid(LENS, 1 / 8, 8)
        pts = g.nodes_xy
        for cx, cy in ((-0.3, 0.0), (0.3, 0.0)):
            assert np.all(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) < 1.0)

    def test_h_too_coarse(self):
        with pytest.raises(ConfigError, match="too coarse"):
            build_grid(DISC, 0.3, 8)

    def test_k_too_small(self):
        with pytest.raises(ConfigError, match="K >= 4"):
            build_grid(DISC, 0.25, 3)

    def test_k_not_a_multiple_of_4(self):
        with pytest.raises(ConfigError, match="multiple of 4"):
            build_grid(DISC, 0.25, 6)

    def test_numpy_integer_k(self):
        g = build_grid(DISC, 0.25, np.int64(8))
        assert type(g.K) is int and g.K == 8
        assert g.directions == build_grid(DISC, 0.25, 8).directions

    def test_float_k_refused(self):
        with pytest.raises(ConfigError, match="integer K"):
            build_grid(DISC, 0.25, 8.0)

    def test_degenerate_domain(self):
        # three balls whose intersection is a sliver around an off-lattice
        # point: no node of the h = 0.05 lattice falls inside
        t = (0.505, 0.505)
        centers = tuple(
            (t[0] + (1 - 1e-4) * math.cos(a), t[1] + (1 - 1e-4) * math.sin(a))
            for a in (
                math.pi / 2,
                math.pi / 2 + 2 * math.pi / 3,
                math.pi / 2 + 4 * math.pi / 3,
            )
        )
        dom = ConvexDomain(radius=1.0, centers=centers)
        with pytest.raises(ConfigError, match="degenerate domain"):
            build_grid(dom, 0.05, 8)

    def test_cut_fractions_in_range(self, disc_h16):
        # every arm is positive and at most the full lattice step h |v|
        g = disc_h16
        full = g.h * np.hypot(*np.asarray(g.directions, dtype=float).T)
        for arm in (g.hp, g.hm):
            assert np.all(arm > 0.0)
            assert np.all(arm <= full)

    def test_cut_points_on_circle(self, disc_h16):
        g = disc_h16
        n = g.n_nodes
        dirs = np.asarray(g.directions, dtype=float)
        for k in range(len(g.directions)):
            cut = g.nb_plus[:, k] == n
            if not np.any(cut):
                continue
            ends = g.nodes_xy[cut] + g.hp[cut, k][:, None] * dirs[k] / np.hypot(
                *dirs[k]
            )
            assert np.max(np.abs(np.hypot(ends[:, 0], ends[:, 1]) - 1.0)) < 1e-12

    def test_mask_consistent_with_membership(self):
        # the lens box is wider than tall, so rows must be y and columns x
        g = build_grid(LENS, 1 / 8, 8)
        inside = LENS.contains(np.stack(
            np.meshgrid(g.xs, g.ys), axis=-1
        ).reshape(-1, 2)).reshape(g.mask.shape)
        assert g.mask.dtype == bool
        assert np.array_equal(g.mask, inside)

    def test_bounding_box_covers_domain(self, disc_h4):
        assert disc_h4.xs[0] <= -1.0 and disc_h4.xs[-1] >= 1.0
        assert disc_h4.ys[0] <= -1.0 and disc_h4.ys[-1] >= 1.0

    def test_node_index_lookup(self, disc_h4):
        i = disc_h4.node_index((0.25, -0.5))
        assert np.allclose(disc_h4.nodes_xy[i], (0.25, -0.5))
        with pytest.raises(ConfigError):
            disc_h4.node_index((2.0, 0.0))
        with pytest.raises(ConfigError):
            disc_h4.node_index((0.13, 0.0))

    def test_build_deterministic(self):
        a = build_grid(DISC, 1 / 8, 8)
        b = build_grid(DISC, 1 / 8, 8)
        assert np.array_equal(a.hp, b.hp)
        assert np.array_equal(a.nb_minus, b.nb_minus)
        assert np.array_equal(a.nodes_xy, b.nodes_xy)

    def test_rejects_3d_domain(self):
        dom3 = ConvexDomain(radius=1.0, centers=((0.0, 0.0, 0.0),))
        with pytest.raises(ConfigError, match="two-dimensional"):
            build_grid(dom3, 0.1, 8)


class TestGridFunction:
    def test_shape_and_finiteness_checks(self, disc_h4):
        with pytest.raises(ConfigError, match="node values"):
            GridFunction(grid=disc_h4, values=np.zeros(7))
        bad = np.zeros(disc_h4.n_nodes)
        bad[3] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            GridFunction(grid=disc_h4, values=bad)

    def test_from_callable_scalar_and_vector(self, disc_h4):
        u = GridFunction.from_callable(disc_h4, lambda p: p[0] + p[1])
        v = GridFunction.from_callable(disc_h4, lambda P: P[:, 0] + P[:, 1])
        assert np.array_equal(u.values, v.values)

    def test_from_callable_two_nodes(self):
        # a thin lens with two nodes: its (2, 2) node stack must not pass for
        # one point under a point-wise p[0]
        lens = ConvexDomain(1.0, ((0.125, 0.97), (0.125, -0.97)))
        grid = build_grid(lens, 0.25, 8)
        assert grid.nodes_xy.tolist() == [[0.0, 0.0], [0.25, 0.0]]
        u = GridFunction.from_callable(grid, lambda p: p[0])
        assert u.values.tolist() == [0.0, 0.25]

    def test_extended_appends_boundary_zero(self, disc_h4):
        u = GridFunction.from_callable(disc_h4, lambda p: 1.0)
        ext = u.extended()
        assert ext.shape == (disc_h4.n_nodes + 1,)
        assert ext[-1] == 0.0

    def test_to_dense_masks_exterior(self, disc_h4):
        u = GridFunction.from_callable(disc_h4, lambda p: 2.0)
        dense = u.to_dense()
        assert np.all(np.isnan(dense[disc_h4.mask == 0]))
        assert np.all(dense[disc_h4.mask > 0] == 2.0)

    def test_values_immutable(self, disc_h4):
        u = GridFunction.from_callable(disc_h4, lambda p: 0.0)
        with pytest.raises(ValueError):
            u.values[0] = 1.0


class TestSecondDifference:
    def test_quadratic_exact_all_directions(self, disc_h4):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(2, 2))
        a = (m + m.T) / 2.0
        u = quadratic_field(disc_h4, a)
        i = disc_h4.node_index((0.0, 0.0))
        for k, (va, vb) in enumerate(disc_h4.directions):
            e = np.array([va, vb], dtype=float)
            e /= np.hypot(va, vb)
            assert discrete_second_difference(u, i, k) == pytest.approx(
                float(e @ a @ e), abs=1e-12
            )

    def test_constant_gives_zero_inside(self, disc_h4):
        u = GridFunction.from_callable(disc_h4, lambda p: 3.5)
        i = disc_h4.node_index((0.0, 0.25))
        assert discrete_second_difference(u, i, (1, 0)) == 0.0

    def test_norm_squared_gives_two(self, disc_h4):
        u = GridFunction.from_callable(disc_h4, lambda P: P[:, 0] ** 2 + P[:, 1] ** 2)
        i = disc_h4.node_index((-0.25, 0.0))
        for k in range(len(disc_h4.directions)):
            assert discrete_second_difference(u, i, k) == pytest.approx(
                2.0, abs=1e-12
            )

    def test_direction_resolved_by_vector(self, disc_h4):
        u = GridFunction.from_callable(disc_h4, lambda P: P[:, 0] ** 2)
        i = disc_h4.node_index((0.0, 0.0))
        assert discrete_second_difference(u, i, (-2, -1)) == pytest.approx(
            discrete_second_difference(u, i, (2, 1)), abs=0
        )
        with pytest.raises(ConfigError, match="not in the stencil fan"):
            discrete_second_difference(u, i, (3, 1))


class TestDiscreteGradient:
    def test_linear_exact(self, disc_h4):
        u = GridFunction.from_callable(disc_h4, lambda P: 3.0 * P[:, 0] - 2.0 * P[:, 1])
        g = discrete_gradient(u, (0.25, 0.25))
        assert np.allclose(g, (3.0, -2.0), atol=1e-12)

    def test_quadratic_exact(self, disc_h4):
        u = GridFunction.from_callable(
            disc_h4, lambda P: 0.5 * (P[:, 0] ** 2 + P[:, 1] ** 2)
        )
        g = discrete_gradient(u, (0.25, 0.0))
        assert np.allclose(g, (0.25, 0.0), atol=1e-12)


class TestDiscreteOperator:
    def test_aligned_rank_one_exact(self, disc_h4):
        u = quadratic_field(disc_h4, np.diag([1.0, 0.0]))
        i = disc_h4.node_index((0.0, 0.0))
        assert discrete_operator(LambdaK(1), u, i) == pytest.approx(0.0, abs=1e-12)
        assert discrete_operator(LambdaK(2), u, i) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_rank_one_within_angular_bound(self, disc_h4):
        # worst-case orientation halfway between fan angles; the resolution
        # error is sin^2(pi/16) * eigengap = 0.0381
        r = rotation(math.pi / 16)
        u = quadratic_field(disc_h4, r @ np.diag([1.0, 0.0]) @ r.T)
        i = disc_h4.node_index((0.0, 0.0))
        l1 = discrete_operator(LambdaK(1), u, i)
        ln = discrete_operator(LambdaK(2), u, i)
        assert abs(l1 - 0.0) < 0.04
        assert abs(ln - 1.0) < 0.04
        # orthogonal pairing makes the angular errors cancel in the sum
        assert discrete_operator(MinMax(), u, i) == pytest.approx(1.0, abs=1e-12)
        assert discrete_operator(
            WeightedEigenvalues((2.0, 3.0)), u, i
        ) == pytest.approx(2.0 * l1 + 3.0 * ln, abs=1e-12)

    def test_isotropic_quadratic_exact(self, disc_h4):
        u = quadratic_field(disc_h4, np.eye(2))
        i = disc_h4.node_index((0.25, -0.25))
        assert discrete_operator(LambdaK(1), u, i) == pytest.approx(1.0, abs=1e-12)
        assert discrete_operator(LambdaK(2), u, i) == pytest.approx(1.0, abs=1e-12)

    def test_radial_concave_max_eigenvalue(self, disc_h16, model_profile):
        # for the concave radial benchmark profile the larger Hessian
        # eigenvalue is u'(r)/r; measured error 1.8e-3 at h = 1/16
        u = oracle_on(disc_h16, model_profile)
        r = math.hypot(0.5, 0.25)
        s0 = 1.0 / r - math.sqrt(1.0 / r**2 - 1.0)
        est = discrete_operator(LambdaK(2), u, (0.5, 0.25))
        assert est == pytest.approx(-s0 / r, abs=5e-3)

    def test_coefficient_scales_max_eigenvalue(self, disc_h4):
        a = ScalarField(fn=lambda x: 2.0 + x[0], lower=1.0, upper=3.0)
        u = quadratic_field(disc_h4, np.eye(2))
        assert discrete_operator(
            CoefficientLambdaN(a), u, (0.25, 0.25)
        ) == pytest.approx(2.25, abs=1e-12)

    def test_linear_degenerate_matches_trace(self, disc_h4):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(2, 2))
        b = (m + m.T) / 2.0
        u = quadratic_field(disc_h4, b)
        i = disc_h4.node_index((0.0, 0.0))
        for sig in (((1.0, 0.0), (0.4, 0.8)), ((1.0, 0.0), (-0.4, 0.8))):
            s = np.asarray(sig)
            spec = LinearDegenerate(MatrixField.constant(s))
            a = s.T @ s
            assert discrete_operator(spec, u, i) == pytest.approx(
                float(np.trace(a @ b)), abs=1e-12
            )

    def test_linear_degenerate_needs_diagonal_dominance(self, disc_h4):
        spec = LinearDegenerate(MatrixField.constant([[1.0, 0.0], [0.9, 0.1]]))
        u = quadratic_field(disc_h4, np.eye(2))
        with pytest.raises(UnsupportedDiscretizationError, match="dominant"):
            discrete_operator(spec, u, (0.0, 0.0))

    @pytest.mark.parametrize(
        "sigma", [[[1.0, 0.0, 5.0], [0.0, 1.0, 0.0]], [[1.0], [0.0]]]
    )
    def test_linear_degenerate_needs_2x2_diffusion(self, disc_h4, sigma):
        # sigma^T sigma is 3x3 and 1x1 here; neither fits the plane lattice
        spec = LinearDegenerate(MatrixField.constant(sigma))
        u = quadratic_field(disc_h4, np.eye(2))
        with pytest.raises(ConfigError, match="diffusion matrix must be 2x2"):
            discrete_operator(spec, u, (0.0, 0.0))

    # both public entries to the operator discretization refuse these; the
    # discrete_operator cases keep the bare operator name as their id
    @pytest.mark.parametrize(
        "spec, apply",
        [
            pytest.param(s, apply, id=type(s).__name__ + suffix)
            for apply, suffix in ((_operator_at_origin, ""), (_solve_on, "-solve"))
            for s in UNSUPPORTED
        ],
    )
    def test_unsupported_specs(self, disc_h4, spec, apply):
        with pytest.raises(UnsupportedDiscretizationError):
            apply(spec, disc_h4)

    @pytest.mark.parametrize(
        "apply", [_operator_at_origin, _solve_on], ids=["discrete_operator", "solve"]
    )
    def test_coefficient_below_infimum_refused(self, disc_h4, apply):
        # a(x) = x_1 drops below its declared infimum 1 at every node with
        # x_1 < 1, the origin included
        a = ScalarField(fn=lambda x: x[..., 0], lower=1.0, upper=3.0)
        with pytest.raises(ConfigError, match="declared infimum"):
            apply(CoefficientLambdaN(a), disc_h4)

    def test_non_finite_coefficient_is_named(self, disc_h4):
        # a(x) is NaN for x_1 > 0.3; the refusal names the coefficient, not
        # the forcing
        a = ScalarField(
            fn=lambda x: np.where(x[..., 0] > 0.3, np.nan, 2.0), lower=1.0, upper=3.0
        )
        with pytest.raises(ConfigError, match="coefficient must be finite on the grid"):
            _solve_on(CoefficientLambdaN(a), disc_h4)
        with pytest.raises(ConfigError, match="forcing must be finite on the grid"):
            solve(GridProblem(LambdaK(1), None, MODEL, DISC, math.nan), disc_h4)

    @pytest.mark.parametrize(
        "spec, reference",
        [
            (LambdaK(1), lambda d2, x: d2.min()),
            (LambdaK(2), lambda d2, x: d2.max()),
            (MinMax(), lambda d2, x: d2.min() + d2.max()),
            (
                WeightedEigenvalues((0.5, 1.5)),
                lambda d2, x: 0.5 * d2.min() + 1.5 * d2.max(),
            ),
            (
                CoefficientLambdaN(
                    ScalarField(fn=lambda x: 2.0 + x[..., 0], lower=1.0, upper=3.0)
                ),
                lambda d2, x: (2.0 + x[0]) * d2.max(),
            ),
            (LinearDegenerate(MatrixField.constant(LINDEG_SIGMA)), None),
        ],
        ids=["lambda1", "lambda2", "minmax", "weighted", "coefficient", "lindeg"],
    )
    def test_agrees_with_scheme(self, spec, reference):
        # the scheme and the per-node operator against min / max / sums of
        # discrete_second_difference over the fan, and against the trace
        # split of A = sigma^T sigma, A = sum_k w_k e_k e_k^T with the axes
        # and the (1, sign a01) diagonal; on a random lens field (second
        # differences up to about 2e4 at the cut cells) all agree to rounding,
        # measured 3e-15 relative at most
        g = build_grid(LENS, 1 / 8, 8)
        u = GridFunction(
            grid=g, values=np.random.default_rng(11).normal(size=g.n_nodes)
        )
        a = np.asarray(LINDEG_SIGMA).T @ np.asarray(LINDEG_SIGMA)
        off = a[0, 1]
        split = {
            (1, 0): a[0, 0] - abs(off),
            (0, 1): a[1, 1] - abs(off),
            (1, 1): max(2.0 * off, 0.0),
            (-1, 1): max(-2.0 * off, 0.0),
        }
        want = []
        for i, x in enumerate(g.nodes_xy):
            if reference is None:
                want.append(
                    sum(
                        w * discrete_second_difference(u, i, v)
                        for v, w in split.items()
                    )
                )
            else:
                d2 = np.array(
                    [discrete_second_difference(u, i, k) for k in range(g.K)]
                )
                want.append(reference(d2, x))
        prob = GridProblem(
            operator=spec, hamiltonian=None, params=MODEL, domain=LENS, f=0.0
        )
        scheme = _Scheme(prob, g)
        # f = 0 and no gradient term: the scheme's residual is F_h
        got = scheme.linearize(u.extended()).resid
        per_node = [discrete_operator(spec, u, i) for i in range(g.n_nodes)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(per_node, want, rtol=1e-12, atol=0.0)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "spec",
        [
            LambdaK(1),
            LambdaK(2),
            MinMax(),
            WeightedEigenvalues((1.0, 2.0)),
            CoefficientLambdaN(ScalarField.constant(2.0)),
            LinearDegenerate(MatrixField.constant([[1.0, 0.0], [0.4, 0.8]])),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_neighbor_increase_never_decreases_operator(self, disc_h8, spec):
        rng = np.random.default_rng(11)
        base = rng.normal(size=disc_h8.n_nodes)
        u = GridFunction(grid=disc_h8, values=base)
        nodes = rng.integers(0, disc_h8.n_nodes, size=10)
        for i in nodes:
            before = discrete_operator(spec, u, int(i))
            neighbors = set(disc_h8.nb_plus[i]) | set(disc_h8.nb_minus[i])
            neighbors.discard(disc_h8.n_nodes)  # boundary slot is pinned
            neighbors.discard(int(i))
            for j in neighbors:
                bumped = base.copy()
                bumped[j] += 1e-3
                after = discrete_operator(
                    spec, GridFunction(grid=disc_h8, values=bumped), int(i)
                )
                assert after - before >= -1e-12


JACOBIAN_OPERATORS = pytest.mark.parametrize(
    "operator",
    [
        MinMax(),
        LambdaK(1),
        LinearDegenerate(MatrixField.constant(np.eye(2))),
        WeightedEigenvalues((0.5, 1.5)),
        CoefficientLambdaN(
            ScalarField(fn=lambda x: 2.0 + x[..., 0], lower=1.0, upper=3.0)
        ),
    ],
)
JACOBIAN_HAMILTONIANS = pytest.mark.parametrize(
    "ham",
    [
        PowerNorm(b=1.0, p=1.5),
        AnisotropicPower(A=SymMatrix([[2.0, 0.5], [0.5, 1.0]]), p=3.0),
        AnisotropicPower(A=SymMatrix([[2.0, 0.5], [0.5, 1.0]]), p=1.5),
    ],
)


class TestNewtonJacobian:
    # a random field at this scale puts some nodes beyond the gradient cap
    # and leaves others inside it; ties in the fan scans have measure zero
    EPS = 1e-7

    def _jacobian_and_differences(self, grid, operator, ham, upwind):
        params = Params(beta=1.0, b=4.0, p=ham.p, M=1.0)
        scheme = _Scheme(GridProblem(operator, ham, params, DISC, -0.1), grid)
        rng = np.random.default_rng(1)
        v = np.append(rng.normal(scale=0.03, size=grid.n_nodes), 0.0)
        w = np.append(rng.normal(size=grid.n_nodes), 0.0)
        fd = (
            scheme.linearize(v + self.EPS * w, upwind).resid
            - scheme.linearize(v - self.EPS * w, upwind).resid
        ) / (2.0 * self.EPS)
        jac = scheme.jacobian(scheme.linearize(v, upwind))
        return scheme, v, w, fd, jac @ w[:-1]

    @JACOBIAN_OPERATORS
    @JACOBIAN_HAMILTONIANS
    def test_matches_central_differences(self, disc_h8, operator, ham):
        scheme, v, _, fd, jw = self._jacobian_and_differences(
            disc_h8, operator, ham, upwind=False
        )
        gx, gy = scheme.gradient(v)
        capped = np.hypot(gx, gy) > scheme.g_cap
        assert 0 < capped.sum() < disc_h8.n_nodes
        assert float(np.max(np.abs(fd - jw))) <= 1e-5

    @JACOBIAN_OPERATORS
    @JACOBIAN_HAMILTONIANS
    def test_upwind_matches_central_differences(self, disc_h8, operator, ham):
        scheme, v, w, fd, jw = self._jacobian_and_differences(
            disc_h8, operator, ham, upwind=True
        )

        def policy(x):  # larger arm, m_k > 0, and capped q, per slot and node
            m, minus, _ = scheme.linearize(x, upwind=True).slopes
            q = scheme.up_c @ (m * m)
            return np.vstack([minus, m > 0.0, q > scheme.g_cap**2])

        # compare only away from ties: where the policy is the same at both
        # ends of the difference stencil
        nodes = np.all(
            policy(v + self.EPS * w) == policy(v - self.EPS * w), axis=0
        )
        assert nodes.sum() >= 0.95 * disc_h8.n_nodes
        capped = policy(v)[-1]
        assert 0 < capped[nodes].sum() < nodes.sum()
        assert float(np.max(np.abs(fd - jw)[nodes])) <= 1e-5

    @JACOBIAN_OPERATORS
    @JACOBIAN_HAMILTONIANS
    @pytest.mark.parametrize("upwind", [True, False], ids=["upwind", "centered"])
    def test_linearized_residual_is_the_residual(self, disc_h8, operator, ham, upwind):
        # the Newton loop, residual_norm and sweep all read F_h + H_h - f
        # from the linearization; check it node by node against
        # discrete_operator and the first-order term built from the arms:
        # the centered gradient rescaled onto the cap circle, or the upwind
        # sum_k c_k m_k^2 over the dominant split of A, capped
        params = Params(beta=1.0, b=4.0, p=ham.p, M=1.0)
        scheme = _Scheme(GridProblem(operator, ham, params, DISC, -0.1), disc_h8)
        g, cap = disc_h8, scheme.g_cap
        coef, a = (ham.b, np.eye(2)) if isinstance(ham, PowerNorm) else (1.0, ham.A.a)
        off = a[0, 1]
        split = {
            (1, 0): a[0, 0] - abs(off),
            (0, 1): a[1, 1] - abs(off),
            (1, 1) if off >= 0 else (-1, 1): 2.0 * abs(off),
        }
        rng = np.random.default_rng(5)
        for scale in (0.003, 0.03, 0.3):
            v = np.append(rng.normal(scale=scale, size=g.n_nodes), 0.0)
            lin = scheme.linearize(v, upwind)
            assert lin.upwind == upwind
            u = GridFunction(grid=g, values=v[:-1])
            for i in range(g.n_nodes):
                f_h = discrete_operator(operator, u, i)
                if upwind:
                    q = 0.0
                    for slot, c in split.items():
                        k = g.directions.index(slot)
                        m = max(
                            (v[g.nb_plus[i, k]] - v[i]) / g.hp[i, k],
                            (v[g.nb_minus[i, k]] - v[i]) / g.hm[i, k],
                            0.0,
                        )
                        q += c * m * m
                    h_h = coef * min(q, cap**2) ** (ham.p / 2.0)
                else:
                    grad = discrete_gradient(u, i)
                    grad *= min(1.0, cap / np.hypot(*grad))
                    h_h = evaluate_hamiltonian(ham, grad)
                want = f_h + h_h + 0.1
                assert abs(lin.resid[i] - want) <= 1e-12 * (1.0 + abs(f_h) + h_h)


def _lens_problem(offset, ham, f):
    domain = ConvexDomain(radius=1.0, centers=((-offset, 0.0), (offset, 0.0)))
    return GridProblem(
        operator=CoefficientLambdaN(ScalarField.constant(2.0)),
        hamiltonian=ham,
        params=MODEL,
        domain=domain,
        f=f,
    )


HAMILTONIANS = st.sampled_from(
    [PowerNorm(b=1.0, p=2.0), AnisotropicPower(SymMatrix(ANISO_A), p=2.0, b=1.0)]
)


def _two_stages(problem, grid, v0, tol=1e-5, hand_over=True):
    """The two Newton stages of `solve` from the start ``v0`` (zeros for the
    uniqueness checks): upwind, handing over at the form gap unless
    ``hand_over`` is false, then the centered polish.  Returns the values,
    the final residual, the upwind step count, the step log and the stop."""
    scheme = _Scheme(problem, grid)
    stop = tol * (1.0 + scheme.f_sup)
    log = grid_module._StepLog()
    v = np.append(v0, 0.0)
    v, _ = grid_module._newton(scheme, v, stop, True, log, hand_over)
    upwind = len(log.policy_changes)
    v, resid = grid_module._newton(scheme, v, stop, False, log)
    return v[:-1], resid, upwind, log, stop


class TestUpwindMonotone:
    """The upwind form is degenerate elliptic, so its discrete solutions obey
    the comparison principle."""

    @settings(max_examples=40, deadline=None)
    @given(
        offset=st.floats(0.0, 0.5),
        h=st.sampled_from([1 / 8, 1 / 12, 1 / 16]),
        ham=HAMILTONIANS,
        scale=st.floats(0.01, 1.0),
        bump=st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raising_a_node_never_lowers_another_residual(
        self, offset, h, ham, scale, bump, seed
    ):
        problem = _lens_problem(offset, ham, -1.0)
        grid = build_grid(problem.domain, h, 8)
        scheme = _Scheme(problem, grid)
        rng = np.random.default_rng(seed)
        v = np.append(rng.normal(scale=scale, size=grid.n_nodes), 0.0)
        j = int(rng.integers(grid.n_nodes))
        before = scheme.linearize(v, upwind=True).resid
        v[j] += bump
        after = np.delete(scheme.linearize(v, upwind=True).resid, j)
        before = np.delete(before, j)
        assert np.all(after - before >= -1e-12 * (1.0 + np.abs(before)))

    @settings(max_examples=40, deadline=None)
    @given(
        offset=st.floats(0.0, 0.5),
        h=st.sampled_from([1 / 8, 1 / 12, 1 / 16]),
        ham=HAMILTONIANS,
        scale=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_upwind_jacobian_is_an_m_matrix(self, offset, h, ham, scale, seed):
        """J has nonnegative off-diagonal slopes, a negative diagonal, row
        sums <= 0 and a strictly dominant row, so -J is a diagonally dominant
        Z-matrix: with the connected stencil, a nonsingular M-matrix.  The
        Newton solve factors J with diagonal pivots on the strength of this.
        The centered first-order term lacks the property: its Jacobians have
        negative off-diagonal entries, which is why the factorization keeps a
        pivoting threshold for the polish."""
        problem = _lens_problem(offset, ham, -1.0)
        grid = build_grid(problem.domain, h, 8)
        scheme = _Scheme(problem, grid)
        rng = np.random.default_rng(seed)
        v = np.append(rng.normal(scale=scale, size=grid.n_nodes), 0.0)
        jac = scheme.jacobian(scheme.linearize(v, upwind=True)).tocoo()
        off = jac.row != jac.col
        assert np.all(jac.data[off] >= 0.0)
        assert np.all(jac.diagonal() < 0.0)
        sums = np.asarray(jac.sum(axis=1)).ravel()
        row_scale = np.asarray(abs(jac).sum(axis=1)).ravel()
        assert np.all(sums <= 1e-12 * row_scale)
        assert np.any(sums < -1e-12 * row_scale)

    @settings(max_examples=15, deadline=None)
    @given(
        offset=st.floats(0.0, 0.5),
        h=st.sampled_from([1 / 8, 1 / 12, 1 / 16]),
        ham=HAMILTONIANS,
        f1=st.floats(-1.0, -0.2),
        f2=st.floats(-1.0, -0.2),
    )
    def test_ordered_forcing_gives_ordered_solutions(self, offset, h, ham, f1, f2):
        f_lo, f_hi = sorted((f1, f2))
        solutions = []
        for f in (f_lo, f_hi):
            problem = _lens_problem(offset, ham, f)
            grid = build_grid(problem.domain, h, 8)
            scheme = _Scheme(problem, grid)
            u, resid = grid_module._newton(
                scheme, np.zeros(grid.n_nodes + 1), 1e-11, True,
                grid_module._StepLog(),
            )
            assert resid <= 1e-11
            solutions.append(u[:-1])
        assert np.all(solutions[0] >= solutions[1] - 1e-9)


def _aniso_lens(h):
    problem = _lens_problem(0.3, AnisotropicPower(SymMatrix(ANISO_A), p=2.0), -1.0)
    return problem, build_grid(problem.domain, h, 8)


class TestFactorReuse:
    """Newton steps whose policy moved at a few nodes reuse the last LU
    factor through a low-rank row update instead of factoring afresh."""

    @pytest.mark.parametrize("upwind", [True, False], ids=["upwind", "centered"])
    def test_row_update_matches_direct_solve(self, upwind):
        from scipy.sparse.linalg import splu, spsolve

        problem, grid = _aniso_lens(1 / 16)
        scheme = _Scheme(problem, grid)
        v0 = np.append(
            grid_module._initial_values(problem, grid, scheme), 0.0
        )
        lin0 = scheme.linearize(v0, upwind)
        r0, policy0, jac0 = lin0.resid, lin0.policy, scheme.jacobian(lin0)
        v1 = np.append(v0[:-1] + spsolve(jac0.tocsc(), -r0), 0.0)
        lin1 = scheme.linearize(v1, upwind)
        r1, policy1, jac1 = lin1.resid, lin1.policy, scheme.jacobian(lin1)
        changed = np.flatnonzero((policy0 != policy1).any(axis=1))
        assert changed.size > 20
        lu = splu(jac0.tocsc())
        cols: dict = {}
        # a smaller set first, so the second solve reuses cached columns
        for rows in (changed[::3], changed):
            x = grid_module._row_update_solve(lu, jac0, jac1, rows, -r1, cols)
            mixed = jac0.tolil()
            mixed[rows] = jac1[rows]
            ref = spsolve(mixed.tocsc(), -r1)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert sorted(cols) == changed.tolist()

    @settings(max_examples=25, deadline=None)
    @given(
        offset=st.floats(0.0, 0.5),
        h=st.sampled_from([1 / 8, 1 / 12, 1 / 16]),
        ham=HAMILTONIANS,
        scale=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_upwind_rows_keep_the_m_matrix(self, offset, h, ham, scale, seed):
        """A reused upwind step solves with rows of Jacobians taken at two
        iterates.  Each row keeps the sign pattern and weak dominance, so the
        mixed matrix is still a nonsingular M-matrix: -J^-1 is nonnegative."""
        from scipy.sparse.linalg import spsolve

        problem = _lens_problem(offset, ham, -1.0)
        grid = build_grid(problem.domain, h, 8)
        scheme = _Scheme(problem, grid)
        rng = np.random.default_rng(seed)
        n = grid.n_nodes
        v0, v1 = (np.append(rng.normal(scale=scale, size=n), 0.0) for _ in "01")
        rows = rng.choice(n, size=rng.integers(1, n), replace=False)
        mixed = scheme.jacobian(scheme.linearize(v0, upwind=True)).tolil()
        mixed[rows] = scheme.jacobian(scheme.linearize(v1, upwind=True))[rows]
        jac = mixed.tocoo()
        off = jac.row != jac.col
        assert np.all(jac.data[off] >= 0.0)
        assert np.all(jac.diagonal() < 0.0)
        sums = np.asarray(jac.sum(axis=1)).ravel()
        row_scale = np.asarray(abs(jac).sum(axis=1)).ravel()
        assert np.all(sums <= 1e-12 * row_scale)
        x = spsolve(jac.tocsc(), -np.ones(n))
        assert np.all(x >= -1e-12 * np.max(np.abs(x)))

    @pytest.mark.parametrize(
        "ham",
        [PowerNorm(b=4.0, p=2.0), AnisotropicPower(SymMatrix(ANISO_A), p=2.0)],
        ids=["power", "aniso"],
    )
    def test_rows_with_an_unchanged_policy_are_affine(self, disc_h8, ham):
        """At p = 2 an upwind Jacobian row is affine in the iterate while the
        row's policy holds; a reused step keeps such rows from J0.  Scaling
        the iterate keeps every fan and arm choice and moves nodes across
        the gradient cap only, so the cap must count as policy."""
        params = Params(beta=1.0, b=4.0, p=2.0, M=1.0)
        operator = CoefficientLambdaN(ScalarField.constant(2.0))
        problem = GridProblem(operator, ham, params, DISC, -0.1)
        scheme = _Scheme(problem, disc_h8)
        rng = np.random.default_rng(1)
        v = np.append(rng.normal(scale=0.03, size=disc_h8.n_nodes), 0.0)
        lin = {s: scheme.linearize(s * v, upwind=True) for s in (1, 1.5, 2)}
        jac = {s: scheme.jacobian(lin[s]).toarray() for s in lin}
        lo, hi = lin[1].policy, lin[2].policy
        same = (lo == hi).all(axis=1)
        assert 0 < (~same).sum() < same.sum()
        mid = (jac[1] + jac[2]) / 2
        scale = np.abs(mid).max()
        assert np.max(np.abs(jac[1.5] - mid)[same]) <= 1e-12 * scale

    @pytest.mark.parametrize("upwind", [True, False], ids=["upwind", "centered"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("aniso", [False, True], ids=["power", "aniso"])
    def test_equal_policy_rows_have_equal_column_patterns(
        self, disc_h8, upwind, p, aniso
    ):
        """The premise of ``_reuse_rows``: a node whose policy row is the
        same at two iterates has a Jacobian row with the same nonzero
        columns, so a reused factor keeps that row's form."""
        ham = (
            AnisotropicPower(SymMatrix(ANISO_A), p=p, b=1.0)
            if aniso
            else PowerNorm(b=1.0, p=p)
        )
        params = Params(beta=1.0, b=4.0, p=p, M=1.0)
        scheme = _Scheme(GridProblem(MinMax(), ham, params, DISC, -0.1), disc_h8)
        rng = np.random.default_rng(3)
        n = disc_h8.n_nodes
        # a random iterate, and the same one tilted by a linear function:
        # the tilt keeps most fan choices and moves upwind arms and nodes
        # across the gradient cap, which grows with p
        v0 = np.append(rng.normal(scale=0.1 * scheme.g_cap, size=n), 0.0)
        tilt = 0.25 * scheme.g_cap * (disc_h8.nodes_xy @ [1.0, 0.5])
        v1 = v0 + np.append(tilt, 0.0)
        lin0, lin1 = scheme.linearize(v0, upwind), scheme.linearize(v1, upwind)
        same = (lin0.policy == lin1.policy).all(axis=1)
        assert 0 < (~same).sum() and 0 < same.sum()
        # some nodes beyond the gradient cap and some below it
        assert 0 < lin0.policy[same, -1].sum() < same.sum()
        jac0, jac1 = scheme.jacobian(lin0), scheme.jacobian(lin1)
        jac0.eliminate_zeros()
        jac1.eliminate_zeros()
        for i in np.flatnonzero(same):
            cols0 = jac0.indices[jac0.indptr[i] : jac0.indptr[i + 1]]
            cols1 = jac1.indices[jac1.indptr[i] : jac1.indptr[i + 1]]
            assert sorted(cols0) == sorted(cols1), i

    def test_rejected_reuse_refactors_at_the_same_iterate(self, monkeypatch):
        # a reused step that does not lower the residual is dropped and not
        # counted: the solve matches the one that never reuses a factor (at
        # h = 1/16 the upwind stage hands over before any step may reuse)
        problem, grid = _aniso_lens(1 / 32)
        monkeypatch.setattr(grid_module, "_reuse_rows", lambda *args: None)
        u_fresh, fresh = solve(problem, grid)
        monkeypatch.undo()
        attempts = []

        def useless(lu, jac0, jac, rows, rhs, cols):
            attempts.append(rows.size)
            return np.zeros(rhs.size)

        monkeypatch.setattr(grid_module, "_row_update_solve", useless)
        u, report = solve(problem, grid)
        assert attempts
        assert report.factorizations == report.iterations == fresh.iterations
        assert report.policy_changes == fresh.policy_changes
        assert np.array_equal(u.values, u_fresh.values)

    def test_fewer_factorizations_than_steps(self, monkeypatch):
        problem, grid = _aniso_lens(1 / 32)
        u, report = solve(problem, grid)
        assert report.factorizations < report.iterations
        assert len(report.policy_changes) == report.iterations
        monkeypatch.setattr(grid_module, "_reuse_rows", lambda *args: None)
        u_fresh, fresh = solve(problem, grid)
        assert fresh.factorizations == fresh.iterations == report.iterations
        assert fresh.upwind_steps == report.upwind_steps
        gap = float(np.max(np.abs(u.values - u_fresh.values)))
        assert gap <= report.stop_residual

    def test_aniso_lens_h32_steps_are_pinned(self):
        # any change to the Newton loop that moves a step shows up here
        problem, grid = _aniso_lens(1 / 32)
        _, report = solve(problem, grid)
        assert report.policy_changes == (
            1100, 758, 432, 216, 114, 68, 44, 54, 12, 4, 2, 2, 0
        )
        assert (report.upwind_steps, report.factorizations) == (7, 10)

    def test_reuse_needs_the_residual_inside_the_changed_rows(self):
        """Exact reuse when every residual above the stop lies in the changed
        rows; otherwise a chord step, and only right after a step that halved
        the residual; neither past the row bound or without a factor."""
        from scipy.sparse.linalg import splu

        problem, grid = _aniso_lens(1 / 16)
        scheme = _Scheme(problem, grid)
        v = np.append(np.zeros(grid.n_nodes), 0.0)
        lin = scheme.linearize(v, True)
        resid, policy = lin.resid, lin.policy
        lu = splu(scheme.jacobian(lin).tocsc())
        reuse = grid_module._reuse_rows
        moved = policy.copy()
        moved[[3, 7]] += 1
        small = np.zeros(grid.n_nodes)
        small[[3, 7]] = 1.0
        for halved in (False, True):
            rows, exact = reuse(lu, policy, moved, small, 0.5, halved)
            assert rows.tolist() == [3, 7] and exact
        # a residual above the stop outside the changed rows: a chord step,
        # after a halving step only
        small[11] = 1.0
        assert reuse(lu, policy, moved, small, 0.5, False) is None
        rows, exact = reuse(lu, policy, moved, small, 0.5, True)
        assert rows.tolist() == [3, 7] and not exact
        rows, exact = reuse(lu, policy, policy, small, 0.5, True)
        assert rows.size == 0 and not exact
        # more changed rows than lu.nnz // (2 n) triangular solves are worth
        budget = lu.nnz // (2 * grid.n_nodes)
        many = policy.copy()
        many[: budget + 1] += 1
        quiet = np.zeros(grid.n_nodes)
        for halved in (False, True):
            assert reuse(lu, policy, many, quiet, 0.5, halved) is None
            assert reuse(lu, policy, many, small, 0.5, halved) is None
            assert reuse(None, policy, moved, small, 0.5, halved) is None
            assert reuse(None, policy, moved, quiet, 0.5, halved) is None
        many[budget] -= 1
        rows, exact = reuse(lu, policy, many, quiet, 0.5, False)
        assert rows.size == budget and exact

    def test_row_update_with_no_rows_is_a_plain_solve(self):
        from scipy.sparse.linalg import splu

        problem, grid = _aniso_lens(1 / 16)
        scheme = _Scheme(problem, grid)
        v = np.append(grid_module._initial_values(problem, grid, scheme), 0.0)
        lin = scheme.linearize(v)
        jac0 = scheme.jacobian(lin)
        lu = splu(jac0.tocsc())
        cols: dict = {}
        none = np.array([], dtype=np.intp)
        # the current Jacobian is not read, so a chord step needs none
        x = grid_module._row_update_solve(lu, jac0, None, none, -lin.resid, cols)
        assert np.array_equal(x, lu.solve(-lin.resid))
        assert not cols

    def test_rejected_chord_step_refactors_at_the_same_iterate(self, monkeypatch):
        # a chord step that lowers the residual by less than half is dropped
        # and not counted: the solve matches the one that never reuses a
        # factor.  An exact reuse would keep such a step; the disc at h = 1/32
        # tries chord steps only.
        grid = build_grid(DISC, 1 / 32, 8)
        monkeypatch.setattr(grid_module, "_reuse_rows", lambda *args: None)
        u_fresh, fresh = solve(BENCH, grid)
        monkeypatch.undo()
        reuse = grid_module._reuse_rows
        update = grid_module._row_update_solve
        linearize = grid_module._Scheme.linearize
        kinds, residuals, attempts = [], [], []

        def record(*args):
            out = reuse(*args)
            if out is not None:
                kinds.append(out[1])
            return out

        def spy(self, v_ext, upwind=False):
            lin = linearize(self, v_ext, upwind)
            residuals.append(float(np.max(np.abs(lin.resid))))
            return lin

        def short(lu, jac0, jac, rows, rhs, cols):
            # the next linearization is this step's trial
            attempts.append((float(np.max(np.abs(rhs))), len(residuals)))
            return 0.3 * update(lu, jac0, jac, rows, rhs, cols)

        monkeypatch.setattr(grid_module, "_reuse_rows", record)
        monkeypatch.setattr(grid_module, "_row_update_solve", short)
        monkeypatch.setattr(grid_module._Scheme, "linearize", spy)
        u, report = solve(BENCH, grid)
        assert kinds and not any(kinds)
        assert len(attempts) == len(kinds)
        for rmax, trial in attempts:
            assert 0.5 * rmax < residuals[trial] < rmax
        assert report.factorizations == report.iterations == fresh.iterations
        assert report.policy_changes == fresh.policy_changes
        assert np.array_equal(u.values, u_fresh.values)

    def test_chord_steps_on_the_disc(self, monkeypatch):
        # the polish factors once, then chord steps on that factor reach the
        # stop: fewer factorizations than steps, and the same solution as
        # factoring every step, to the stop residual
        grid = build_grid(DISC, 1 / 32, 8)
        u, report = solve(BENCH, grid)
        assert (report.upwind_steps, report.iterations, report.factorizations) == (
            1, 6, 2
        )
        monkeypatch.setattr(grid_module, "_reuse_rows", lambda *args: None)
        u_fresh, fresh = solve(BENCH, grid)
        assert fresh.factorizations == fresh.iterations < report.iterations
        gap = float(np.max(np.abs(u.values - u_fresh.values)))
        assert gap <= report.stop_residual


class TestSolve:
    def test_wall_time_excludes_scipy_import(self):
        # in a fresh process the first solve's clock starts after scipy has
        # loaded: f = 0 without a gradient term takes zero iterations
        code = (
            "from degelliptic import *\n"
            "problem = GridProblem(CoefficientLambdaN(ScalarField.constant(2.0)),"
            " None, Params(beta=2.0, b=1.0, p=2.0, M=1.0),"
            " ConvexDomain(radius=1.0, centers=((0.0, 0.0),)), 0.0)\n"
            "u, report = solve(problem, build_grid(problem.domain, 0.25, 8))\n"
            "print(report.iterations, report.wall_time)\n"
        )
        src = str(Path(grid_module.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        iterations, wall = out.stdout.split()
        assert int(iterations) == 0
        assert float(wall) < 0.05

    def test_benchmark_center_value(self, bench_h16):
        u, report = bench_h16
        assert abs(u.value_at((0.0, 0.0)) - U_AT_ZERO) <= 0.009
        assert 0 < report.iterations < 10_000

    def test_converged_residual_meets_tolerance(self, bench_h16):
        u, report = bench_h16
        assert report.residual_norm <= report.stop_residual
        assert report.stop_residual == pytest.approx(1e-5 * 2.0, rel=1e-12)

    def test_report_residual_matches_recomputation(self, bench_h16):
        u, report = bench_h16
        assert abs(residual_norm(BENCH, u) - report.residual_norm) <= 1e-14

    def test_report_stability_quantities(self, bench_h16):
        _, report = bench_h16
        assert report.wall_time > 0.0

    def test_k16_solution_is_mirror_symmetric(self):
        # the symmetric fan makes the scheme commute with x -> -x
        u, _ = solve(BENCH, build_grid(DISC, 1 / 32, 16))
        dense = u.to_dense()
        assert np.nanmax(np.abs(dense - dense[:, ::-1])) <= 1e-12

    def test_zero_forcing_zero_fixed_point(self, disc_h8):
        prob = GridProblem(
            operator=LambdaK(1),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=Params(beta=1.0, b=1.0, p=2.0, M=1.0),
            domain=DISC,
            f=0.0,
        )
        u, report = solve(prob, disc_h8)
        assert report.iterations == 0
        assert np.all(u.values == 0.0)

    def test_barrier_init_matches_zero_init(self, disc_h8):
        zeros = np.zeros(disc_h8.n_nodes)
        u_zero, resid, _, _, stop = _two_stages(BENCH, disc_h8, zeros, tol=1e-6)
        u_bar, rep = solve(BENCH, disc_h8, SolveControls(tol=1e-6))
        assert resid <= stop == rep.stop_residual
        assert float(np.max(np.abs(u_zero - u_bar.values))) <= 1e-5

    def test_gradient_cap_overflow_is_config_error(self):
        # at p = 1.00001 the capacity (rbar / R)^(p / (p - 1)) of a disc just
        # inside the threshold overflows a float
        params = Params(beta=2.0, b=1.0, p=1.00001, M=1.0)
        radius = 0.99 * rbar(params)
        domain = ConvexDomain(radius=radius, centers=((0.0, 0.0),))
        problem = GridProblem(
            CoefficientLambdaN(ScalarField.constant(2.0)),
            PowerNorm(b=1.0, p=params.p),
            params,
            domain,
            -1.0,
        )
        with pytest.raises(ConfigError, match="gradient cap is unbounded"):
            solve(problem, build_grid(domain, radius / 4, 8))

    def test_tau_control_refused(self):
        # Newton is the only solver; there is no explicit step to set
        with pytest.raises(TypeError, match="tau"):
            SolveControls(tau=0.01)

    def test_init_control_refused(self):
        # every solve starts from the barrier; there is no start to choose
        with pytest.raises(TypeError, match="init"):
            SolveControls(init="zeros")

    def test_max_iter_control_refused(self, disc_h8):
        # the step budget per stage comes from the grid: the longer side of
        # the lattice box, 19 nodes at h = 1/8
        with pytest.raises(TypeError, match="max_iter"):
            SolveControls(max_iter=120)
        assert grid_module._step_budget(disc_h8) == max(disc_h8.mask.shape) == 19
        assert grid_module._step_budget(build_grid(LENS, 1 / 16, 8)) == 45

    def test_step_budget_raises_with_history(self, disc_h8, monkeypatch):
        # three steps per stage from zeros cannot solve the disc (the upwind
        # stage alone needs five before it reaches the form gap)
        monkeypatch.setattr(grid_module, "_step_budget", lambda grid: 3)
        zeros = np.zeros(disc_h8.n_nodes)
        _, resid, upwind, log, stop = _two_stages(BENCH, disc_h8, zeros)
        assert upwind == 3
        assert len(log.policy_changes) == 6
        assert len(log.history) == 2 * (1 + 3)
        assert resid > stop

    def test_step_budget_caps_the_barrier_start(self, disc_h8, monkeypatch):
        # the barrier start needs one upwind step and five polish steps, the
        # first factored and four chord steps on its factor; a budget of four
        # per stage ends the polish one step short
        monkeypatch.setattr(grid_module, "_step_budget", lambda grid: 4)
        with pytest.raises(NumericError) as err:
            solve(BENCH, disc_h8)
        diag = err.value.diagnostics
        assert set(diag) == FAILURE_KEYS
        assert diag["iterations"] == 5
        # iterations no longer tell how many steps factored
        assert diag["factorizations"] == 2
        assert len(diag["residual_history"]) == (1 + 1) + (1 + 4)
        assert diag["residual"] > 0.0
        # the short upwind stage explains itself: it handed over at the gap
        assert diag["residual_history"][1] <= diag["form_gap"]
        monkeypatch.setattr(grid_module, "_step_budget", lambda grid: 5)
        _, report = solve(BENCH, disc_h8)
        assert (report.upwind_steps, report.iterations, report.factorizations) == (
            1, 6, 2
        )

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_detected(self, disc_h8):
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=None,
            params=MODEL,
            domain=DISC,
            f=1e308,
        )
        with pytest.raises(NumericError, match="blew up") as err:
            solve(prob, disc_h8, SolveControls(tol=1e-12))
        diag = err.value.diagnostics
        assert set(diag) == FAILURE_KEYS
        # the first upwind step blew up, which ended that stage; the polish
        # never ran, and the best residual is the start's
        assert diag["iterations"] == diag["upwind_steps"] == 1
        assert diag["factorizations"] == 1
        assert diag["residual"] == diag["residual_history"][0] == 1e308
        assert not math.isfinite(diag["residual_history"][-1])

    @pytest.mark.parametrize("singular_form", ["upwind", "centered"])
    def test_singular_jacobian_raises_numeric_error(
        self, disc_h8, monkeypatch, singular_form
    ):
        # an all-zero row makes the factor exactly singular; the solve must
        # name it instead of reporting a blow-up from NaN updates
        jacobian = grid_module._Scheme.jacobian

        def singular(self, lin):
            jac = jacobian(self, lin)
            if lin.upwind == (singular_form == "upwind"):
                jac = jac.tolil()
                jac[0, :] = 0.0
            return jac

        monkeypatch.setattr(grid_module._Scheme, "jacobian", singular)
        with pytest.raises(NumericError, match="singular Newton Jacobian") as err:
            solve(BENCH, disc_h8)
        diag = err.value.diagnostics
        assert set(diag) == FAILURE_KEYS
        history = diag["residual_history"]
        assert len(diag["policy_changes"]) == diag["iterations"]
        if singular_form == "upwind":
            assert diag["iterations"] == diag["factorizations"] == 0
            assert len(history) == 1
            # the upwind stage had not ended
            assert diag["upwind_steps"] is None
        else:
            # the upwind stage converged; its steps count, and the polish
            # start residual is the last entry
            assert diag["iterations"] > 0
            assert diag["factorizations"] == diag["iterations"]
            assert len(history) == diag["iterations"] + 2
            assert diag["upwind_steps"] == diag["iterations"]
        # the best residual of the stage that failed: its start
        assert diag["residual"] == history[-1]

    def test_deterministic_bit_identical(self):
        runs = []
        for _ in range(2):
            g = build_grid(DISC, 1 / 8, 8)
            u, _ = solve(BENCH, g, SolveControls(tol=1e-6))
            runs.append(u.values)
        assert np.array_equal(runs[0], runs[1])

    def test_superlinear_domain_size_refusal(self):
        big = ConvexDomain(radius=1.2, centers=((0.0, 0.0),))
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=MODEL,
            domain=big,
            f=-1.0,
        )
        g = build_grid(big, 1 / 8, 8)
        with pytest.raises(ThresholdError, match="existence threshold"):
            solve(prob, g)

    def test_refusal_tracks_forcing_magnitude(self, disc_h8):
        # at f = -2 the threshold radius drops to 1/sqrt(2) < 1
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=MODEL,
            domain=DISC,
            f=-2.0,
        )
        with pytest.raises(ThresholdError, match="forcing magnitude 2"):
            solve(prob, disc_h8)

    def test_envelope_exponent_mismatch(self, disc_h8):
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=3.0),
            params=MODEL,
            domain=DISC,
            f=-1.0,
        )
        with pytest.raises(ConfigError, match="mismatches"):
            solve(prob, disc_h8)

    @pytest.mark.parametrize("params", [MODEL, SUB], ids=["p2-p3", "p-half-p2"])
    def test_exponent_mismatch_refused_by_every_scheme_entry(self, disc_h8, params):
        # the scheme set-up refuses it, so residual_norm and sweep do too
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=2.0 if params is SUB else 3.0),
            params=params,
            domain=DISC,
            f=-1.0,
        )
        zero = GridFunction(grid=disc_h8, values=np.zeros(disc_h8.n_nodes))
        with pytest.raises(ConfigError, match="mismatches"):
            residual_norm(prob, zero)
        with pytest.raises(ConfigError, match="mismatches"):
            sweep(prob, disc_h8, zero.values, 0.0)

    @pytest.mark.parametrize(
        "params, message",
        [
            (
                Params(beta=3.0, b=1.0, p=2.0, M=1.0),
                "declared ellipticity 3.0 exceeds the operator's constant 2.0",
            ),
            (
                Params(beta=2.0, b=0.5, p=2.0, M=1.0),
                "Hamiltonian growth 1.0 exceeds the declared envelope 0.5",
            ),
        ],
        ids=["beta-above-operator", "b-below-growth"],
    )
    def test_envelope_mismatch_refused_by_every_scheme_entry(
        self, disc_h8, params, message
    ):
        # the scheme set-up is the one admission: solve, residual_norm and
        # sweep refuse the same envelope with the same message
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=params,
            domain=DISC,
            f=-1.0,
        )
        zero = GridFunction(grid=disc_h8, values=np.zeros(disc_h8.n_nodes))
        for entry in (
            lambda: solve(prob, disc_h8),
            lambda: residual_norm(prob, zero),
            lambda: sweep(prob, disc_h8, zero.values, 0.0),
        ):
            with pytest.raises(ConfigError) as err:
                entry()
            assert str(err.value) == message

    def test_envelope_growth_mismatch(self, disc_h8):
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=2.0, p=2.0),
            params=MODEL,
            domain=DISC,
            f=-1.0,
        )
        with pytest.raises(ConfigError, match="exceeds the declared envelope"):
            solve(prob, disc_h8)

    def test_envelope_ellipticity_mismatch(self):
        # lambda_2 has ellipticity 1; declaring beta = 2 would move the
        # threshold from 0.5 to 1 and let the lens through
        prob = GridProblem(
            operator=LambdaK(2),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=MODEL,
            domain=LENS,
            f=-1.0,
        )
        with pytest.raises(ConfigError, match="declared ellipticity 2.0"):
            solve(prob, build_grid(LENS, 1 / 16, 8))

    def test_sublinear_gradient_term_unsupported(self, disc_h8):
        prob = GridProblem(
            operator=LambdaK(1),
            hamiltonian=PowerNorm(b=1.0, p=0.5),
            params=SUB,
            domain=DISC,
            f=-1.0,
        )
        with pytest.raises(UnsupportedDiscretizationError, match="set b = 0"):
            solve(prob, disc_h8)

    def test_compact_perturbation_unsupported(self, disc_h8):
        bump = ScalarField(fn=lambda x: 0.0, lower=0.0, upper=0.1)
        ham = CompactPerturbation(
            p=2.0, bump=bump, norm_inf=0.1, dnorm_inf=0.5, support_radius=1.0
        )
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=ham,
            params=MODEL,
            domain=DISC,
            f=-1.0,
        )
        with pytest.raises(UnsupportedDiscretizationError):
            solve(prob, disc_h8)

    def test_anisotropic_identity_matches_power_norm(self, disc_h8):
        # b |g|^p is <A g, g>^(p/2) with A = b^(2/p) I; at b = 2, p = 3 the
        # forcing -1/4 keeps the unit disc below the threshold rbar = 2.12
        for b, p, f in ((1.0, 2.0, -1.0), (2.0, 3.0, -0.25)):
            params = Params(beta=2.0, b=b, p=p, M=1.0)
            solutions = []
            for ham in (
                PowerNorm(b=b, p=p),
                AnisotropicPower(A=SymMatrix(b ** (2.0 / p) * np.eye(2)), p=p, b=b),
            ):
                problem = GridProblem(
                    CoefficientLambdaN(ScalarField.constant(2.0)), ham, params, DISC, f
                )
                u, _ = solve(problem, disc_h8, SolveControls(tol=1e-6))
                solutions.append(u.values)
            assert float(np.max(np.abs(solutions[0] - solutions[1]))) <= 1e-12

    def test_benchmark_takes_newton_steps(self):
        # a quiet fallback to the Jacobi update would need thousands of sweeps
        g = build_grid(DISC, 1 / 32, 8)
        _, report = solve(BENCH, g, SolveControls(tol=1e-5))
        assert report.iterations < 50
        assert report.residual_norm <= report.stop_residual

    def test_newton_budget_exhausted_raises(self, monkeypatch):
        # two Newton steps per stage cannot reach the stop residual on the
        # lens, and there is no fallback: the solve fails with the history
        # of both stages
        monkeypatch.setattr(grid_module, "_step_budget", lambda grid: 2)
        g = build_grid(LENS, 1 / 16, 8)
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=MODEL,
            domain=LENS,
            f=-1.0,
        )
        with pytest.raises(NumericError, match="no convergence within 4") as err:
            solve(prob, g, SolveControls(tol=1e-5))
        diag = err.value.diagnostics
        assert diag["iterations"] == 4
        # each stage's start residual, then one per Newton step
        history = diag["residual_history"]
        assert len(history) == 2 * (1 + 2)
        assert len(diag["policy_changes"]) == 4
        assert diag["residual"] == min(history[3:]) > 2e-5

    def test_non_dominant_anisotropy_refused(self, disc_h8):
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=AnisotropicPower(SymMatrix([[1.0, 0.6], [0.6, 0.5]]), p=2.0),
            params=Params(beta=2.0, b=1.3, p=2.0, M=1.0),
            domain=DISC,
            f=-0.5,
        )
        with pytest.raises(UnsupportedDiscretizationError, match="anisotropy matrix"):
            solve(prob, disc_h8)


def _small_disc(eps):
    return GridProblem(
        operator=CoefficientLambdaN(ScalarField.constant(2.0)),
        hamiltonian=PowerNorm(b=1.0, p=2.0),
        params=MODEL,
        domain=ConvexDomain(radius=0.5 + eps, centers=((0.0, 0.0),)),
        f=-1.0,
    )


class TestNearBoundaryNodes:
    # on a disc of radius 0.5 + eps the lattice nodes at distance 0.5 lie
    # eps inside the boundary; their cut arms have length eps, so their
    # stencil weights grow like 1/eps

    @pytest.mark.parametrize("h", [1 / 16, 1 / 64])
    def test_solves_and_center_moves_by_at_most_eps(self, h):
        prob0 = _small_disc(0.0)
        u0, _ = solve(prob0, build_grid(prob0.domain, h, 8))
        for eps in (1e-3, 1e-8, 1e-14):
            prob = _small_disc(eps)
            grid = build_grid(prob.domain, h, 8)
            # measured: 0.9992 eps at eps = 1e-14, (1 + 5e-9) eps at 1e-8
            arm = grid.hp[grid.node_index((0.5, 0.0)), 0]  # slot 0 is (1, 0)
            assert arm == pytest.approx(eps, rel=1e-2)
            u, rep = solve(prob, grid)
            # measured: 2-3 upwind and 1-2 polish steps, 3 factorizations
            assert rep.upwind_steps <= 5
            assert rep.iterations - rep.upwind_steps <= 5
            # measured: the center moves by about 0.27 eps
            gap = abs(u.value_at((0.0, 0.0)) - u0.value_at((0.0, 0.0)))
            assert gap <= eps


class TestBarrierStart:
    # the initial iterate is the paper's barrier: the supersolution with a
    # gradient term, the paraboloid envelope without one

    BIG = ConvexDomain(radius=1.5, centers=((0.0, 0.0),))
    WIDE_LENS = ConvexDomain(radius=2.0, centers=((-0.5, 0.0), (0.5, 0.0)))

    @pytest.mark.parametrize(
        "operator, hamiltonian, params, domain, f",
        [
            # radii above rbar(params) = 1: the supersolution does not exist
            (CoefficientLambdaN(ScalarField.constant(2.0)), None, MODEL, BIG, -1.0),
            (MinMax(), None, MODEL, WIDE_LENS, -1.0),
            (
                LinearDegenerate(MatrixField.constant(np.eye(2))),
                None, MODEL, WIDE_LENS, -2.0,
            ),
            (
                CoefficientLambdaN(ScalarField.constant(2.0)),
                PowerNorm(b=0.0, p=2.0), MODEL, BIG, -1.0,
            ),
            (LambdaK(2), PowerNorm(b=0.0, p=2.0), MODEL, WIDE_LENS, -0.5),
            # sublinear envelopes, no Hamiltonian
            (
                LambdaK(1), None, SUB, DISC,
                lambda P: -0.5 * np.hypot(P[:, 0], P[:, 1]),
            ),
            (MinMax(), None, SUB, WIDE_LENS, -1.0),
        ],
        ids=[
            "no-ham-lambda-n", "no-ham-minmax", "no-ham-laplacian",
            "b0-lambda-n", "b0-lambda-2", "sublinear-lambda-1", "sublinear-minmax",
        ],
    )
    def test_defined_wherever_zeros_solves(
        self, operator, hamiltonian, params, domain, f
    ):
        prob = GridProblem(
            operator=operator, hamiltonian=hamiltonian, params=params,
            domain=domain, f=f,
        )
        g = build_grid(domain, domain.radius / 8, 8)
        u_zero, resid, _, _, stop = _two_stages(prob, g, np.zeros(g.n_nodes), tol=1e-6)
        u, report = solve(prob, g, SolveControls(tol=1e-6))
        assert resid <= stop
        # without a gradient term there is no form gap to hand over at
        assert report.form_gap == 0.0
        assert report.residual_norm <= report.stop_residual
        assert float(np.max(np.abs(u.values - u_zero))) <= 1e-5

    @pytest.mark.parametrize("h", [1 / 16, 1 / 32])
    @pytest.mark.parametrize(
        "domain, hamiltonian",
        [
            (DISC, PowerNorm(b=1.0, p=2.0)),
            (LENS, PowerNorm(b=1.0, p=2.0)),
            (LENS, AnisotropicPower(A=SymMatrix(ANISO_A), p=2.0)),
        ],
        ids=["disc", "lens-power", "lens-aniso"],
    )
    def test_agrees_with_zero_start(self, h, domain, hamiltonian):
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=hamiltonian,
            params=MODEL,
            domain=domain,
            f=-1.0,
        )
        g = build_grid(domain, h, 8)
        u_zero, resid, _, _, stop = _two_stages(prob, g, np.zeros(g.n_nodes))
        u, report = solve(prob, g)
        assert resid <= stop
        gap = float(np.max(np.abs(u.values - u_zero)))
        assert gap <= report.stop_residual

    def test_fewer_newton_steps_on_the_disc(self):
        g = build_grid(DISC, 1 / 32, 8)
        _, _, zero_upwind, log, _ = _two_stages(BENCH, g, np.zeros(g.n_nodes))
        _, barrier = solve(BENCH, g)
        assert barrier.iterations < len(log.policy_changes)
        # the saving is all in the upwind stage; the polish is the same
        assert barrier.upwind_steps < zero_upwind
        assert (
            barrier.iterations - barrier.upwind_steps
            == len(log.policy_changes) - zero_upwind
        )

    def test_stage_split_is_reported(self, disc_h8):
        _, report = solve(BENCH, disc_h8)
        assert 0 < report.upwind_steps < report.iterations


SWEEP_OPERATORS = [
    CoefficientLambdaN(ScalarField.constant(2.0)),
    LambdaK(1),
    LambdaK(2),
    MinMax(),
    LinearDegenerate(MatrixField.constant(np.array(LINDEG_SIGMA))),
    WeightedEigenvalues((1.0, 2.0)),
]


class TestUpwindHandOver:
    """The upwind stage of `solve` ends once its residual is at or below the
    form gap max |H_h^upwind - H_h^centered| at the current iterate, or the
    stop where that is larger; it only steers the centered polish."""

    @pytest.mark.parametrize(
        "problem, h",
        [
            (BENCH, 1 / 16),
            (_lens_problem(0.3, PowerNorm(b=1.0, p=2.0), -1.0), 1 / 16),
            (_lens_problem(0.3, AnisotropicPower(SymMatrix(ANISO_A), p=2.0), -1.0), 1 / 32),
        ],
        ids=["disc", "lens-power", "lens-aniso"],
    )
    def test_upwind_stage_ends_at_the_gap(self, problem, h, monkeypatch):
        newton = grid_module._newton
        stages = []

        def spy(scheme, v_ext, stop, upwind, log, hand_over=False):
            v_ext, resid = newton(scheme, v_ext, stop, upwind, log, hand_over)
            stages.append((upwind, hand_over, resid, stop, log.form_gap))
            return v_ext, resid

        monkeypatch.setattr(grid_module, "_newton", spy)
        u, report = solve(problem, build_grid(problem.domain, h, 8))
        (upwind, hand_over, resid, stop, gap), polish = stages
        assert upwind and hand_over and not polish[0]
        assert report.form_gap == gap > stop
        assert resid <= max(stop, gap)
        assert report.upwind_steps > 0

    @pytest.mark.parametrize(
        "op",
        SWEEP_OPERATORS,
        ids=["lambda-n", "lambda-1", "lambda-2", "minmax", "lindeg", "weighted"],
    )
    @pytest.mark.parametrize(
        "hamiltonian", [None, PowerNorm(b=0.0, p=2.0)], ids=["none", "b0"]
    )
    def test_no_gradient_term_runs_the_upwind_stage_to_the_stop(
        self, op, hamiltonian
    ):
        problem = GridProblem(op, hamiltonian, MODEL, LENS, -0.3)
        grid = build_grid(problem.domain, 1 / 12, 8)
        u, report = solve(problem, grid)
        start = grid_module._initial_values(problem, grid, _Scheme(problem, grid))
        ref, _, upwind, log, _ = _two_stages(problem, grid, start, hand_over=False)
        assert report.form_gap == 0.0
        assert report.upwind_steps == upwind
        assert report.policy_changes == tuple(log.policy_changes)
        assert report.factorizations == log.factorizations
        assert np.array_equal(u.values, ref)

    @settings(max_examples=20, deadline=None)
    @given(
        op=st.sampled_from(SWEEP_OPERATORS),
        ham=st.sampled_from(
            [
                None,
                PowerNorm(b=1.0, p=1.5),
                PowerNorm(b=1.0, p=2.0),
                PowerNorm(b=1.0, p=3.0),
                AnisotropicPower(SymMatrix(ANISO_A), p=2.0, b=1.0),
            ]
        ),
        offset=st.sampled_from([0.0, 0.3, 0.5]),
        h=st.sampled_from([1 / 8, 1 / 12, 1 / 16]),
        f=st.sampled_from([-1.0, -0.3]),
    )
    def test_agrees_with_the_upwind_stage_run_to_the_stop(self, op, ham, offset, h, f):
        params = Params(
            beta=ellipticity_constant(op), b=1.0, p=ham.p if ham else 2.0, M=1.0
        )
        domain = ConvexDomain(radius=1.0, centers=((-offset, 0.0), (offset, 0.0)))
        problem = GridProblem(op, ham, params, domain, f)
        grid = build_grid(problem.domain, h, 8)
        try:
            u, report = solve(problem, grid)
        except ThresholdError:
            assume(False)
        start = grid_module._initial_values(problem, grid, _Scheme(problem, grid))
        ref, resid, _, log, stop = _two_stages(problem, grid, start, hand_over=False)
        assert resid <= stop
        assert float(np.max(np.abs(u.values - ref))) <= stop
        assert report.factorizations <= log.factorizations
        assert report.iterations <= len(log.policy_changes)


class TestSolveExactQuadratics:
    # the cut-cell second differences are exact on quadratics that vanish on
    # the circle, so these solves are limited only by the stop tolerance

    def test_min_plus_max_eigenvalue(self, disc_h8):
        prob = GridProblem(
            operator=MinMax(), hamiltonian=None, params=MODEL, domain=DISC, f=-4.0
        )
        u, _ = solve(prob, disc_h8, SolveControls(tol=1e-9))
        r2 = disc_h8.nodes_xy[:, 0] ** 2 + disc_h8.nodes_xy[:, 1] ** 2
        assert float(np.max(np.abs(u.values - (1.0 - r2)))) <= 1e-8

    def test_linear_degenerate_laplacian(self, disc_h8):
        prob = GridProblem(
            operator=LinearDegenerate(MatrixField.constant(np.eye(2))),
            hamiltonian=None,
            params=MODEL,
            domain=DISC,
            f=-4.0,
        )
        u, _ = solve(prob, disc_h8, SolveControls(tol=1e-9))
        r2 = disc_h8.nodes_xy[:, 0] ** 2 + disc_h8.nodes_xy[:, 1] ** 2
        assert float(np.max(np.abs(u.values - (1.0 - r2)))) <= 1e-8

    @pytest.mark.parametrize(
        "sigma", [[[1.0, 0.0, 5.0], [0.0, 1.0, 0.0]], [[1.0], [0.0]]]
    )
    def test_linear_degenerate_refuses_non_2x2_diffusion(self, disc_h8, sigma):
        prob = GridProblem(
            operator=LinearDegenerate(MatrixField.constant(sigma)),
            hamiltonian=None,
            params=MODEL,
            domain=DISC,
            f=-4.0,
        )
        with pytest.raises(ConfigError, match="must be 2x2 on grids"):
            solve(prob, disc_h8, SolveControls(tol=1e-9))


class TestSublinearClosedForm:
    # pure min-eigenvalue problem manufactured from u = (1 - |x|^3)/12,
    # whose radial eigenvalue -|x|/2 is the smaller one

    def problem(self):
        return GridProblem(
            operator=LambdaK(1),
            hamiltonian=None,
            params=SUB,
            domain=DISC,
            f=lambda P: -0.5 * np.hypot(P[:, 0], P[:, 1]),
        )

    def test_matches_explicit_solution(self, disc_h16):
        u, _ = solve(self.problem(), disc_h16, SolveControls(tol=1e-6))
        r = np.hypot(disc_h16.nodes_xy[:, 0], disc_h16.nodes_xy[:, 1])
        exact = (1.0 - r**3) / 12.0
        assert float(np.max(np.abs(u.values - exact))) <= 4e-3

    def test_error_decreases_under_refinement(self, disc_h16):
        errs = []
        for g in (disc_h16, build_grid(DISC, 1 / 32, 8)):
            u, _ = solve(self.problem(), g, SolveControls(tol=1e-6))
            r = np.hypot(g.nodes_xy[:, 0], g.nodes_xy[:, 1])
            errs.append(float(np.max(np.abs(u.values - (1.0 - r**3) / 12.0))))
        assert errs[1] < 0.5 * errs[0]


class TestInjectedOracleResidual:
    def test_center_residual_refines_quadratically(self, model_profile):
        # the angular error vanishes at the origin where both Hessian
        # eigenvalues agree; measured 4.9e-4 / 1.3e-4 / 3.1e-5
        vals = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            g = build_grid(DISC, h, 8)
            u = oracle_on(g, model_profile)
            res = np.abs(_Scheme(BENCH, g).linearize(u.extended()).resid)
            vals.append(float(res[g.node_index((0.0, 0.0))]))
        assert vals[0] <= 1e-3
        assert vals[1] <= 2.5e-4
        assert vals[2] <= 6.5e-5
        assert vals[0] > vals[1] > vals[2]

    def test_global_residual_bounded(self, disc_h16, model_profile):
        # the benchmark sits exactly at the threshold radius, so u'' is
        # unbounded at the rim and the worst-node residual does not vanish;
        # it stays at the documented boundary-layer size
        u = oracle_on(disc_h16, model_profile)
        assert residual_norm(BENCH, u) <= 0.5


class TestComparison:
    def test_scaled_subsolution_stays_below(self, disc_h8):
        v, rep = solve(BENCH, disc_h8, SolveControls(tol=1e-6))
        scheme = _Scheme(BENCH, disc_h8)
        shrunk = 0.9 * v.values
        res_v = scheme.linearize(v.extended()).resid
        res_u = scheme.linearize(np.append(shrunk, 0.0)).resid
        # the scaled field is a strict discrete subsolution
        assert float(np.min(res_u - res_v)) >= 5e-3
        # explicit step below 1 / (largest diagonal slope): per node the
        # operator's weight times its largest c0, plus the gradient term's
        # Lipschitz bound p b g_cap^(p-1) times its centered weight on u_0
        ham = BENCH.hamiltonian
        d_node = sum(w * scheme.c0[:, slots].max(axis=1) for slots, w, _ in scheme.terms)
        lip = ham.p * ham.b * scheme.g_cap ** (ham.p - 1.0)
        d_node = d_node + lip * np.hypot(*scheme.g_zero)
        tau = 0.9 / float(np.max(d_node))
        u_k, v_k = shrunk, v.values.copy()
        for _ in range(20):
            u_k = sweep(BENCH, disc_h8, u_k, tau, steps=10)
            v_k = sweep(BENCH, disc_h8, v_k, tau, steps=10)
            assert float(np.max(u_k - v_k)) <= 1e-12

    def test_sweep_is_simultaneous(self, disc_h8):
        rng = np.random.default_rng(5)
        vals = rng.normal(scale=0.1, size=disc_h8.n_nodes)
        scheme = _Scheme(BENCH, disc_h8)
        tau = 1e-4
        expect = vals + tau * scheme.linearize(np.append(vals, 0.0)).resid
        assert np.allclose(
            sweep(BENCH, disc_h8, vals, tau), expect, rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize(
        "values, tau, steps, match",
        [
            (lambda n: 0.3, 0.0, 0, "node values"),
            (lambda n: np.full(n + 1, 0.1), 0.0, 0, "node values"),
            (lambda n: np.full(n, np.nan), 0.0, 0, "finite"),
            (np.zeros, math.nan, 1, "tau"),
            (np.zeros, math.inf, 1, "tau"),
            (np.zeros, -1e-4, 1, "tau"),
            (np.zeros, 1e-4, -1, "steps"),
        ],
        ids=["scalar", "long", "nan", "tau-nan", "tau-inf", "tau-neg", "steps-neg"],
    )
    def test_sweep_refuses_bad_input(self, disc_h8, values, tau, steps, match):
        with pytest.raises(ConfigError, match=match):
            sweep(BENCH, disc_h8, values(disc_h8.n_nodes), tau, steps=steps)

    def test_sweep_zero_step_returns_the_values(self, disc_h8):
        vals = np.linspace(0.0, 1.0, disc_h8.n_nodes)
        assert np.array_equal(sweep(BENCH, disc_h8, vals, 0.0, steps=20), vals)


class TestGridConvergence:
    def test_center_error_decreases(self, bench_h16):
        u16, _ = bench_h16
        g32 = build_grid(DISC, 1 / 32, 8)
        u32, _ = solve(BENCH, g32, SolveControls(tol=1e-5))
        e16 = abs(u16.value_at((0.0, 0.0)) - U_AT_ZERO)
        e32 = abs(u32.value_at((0.0, 0.0)) - U_AT_ZERO)
        assert e32 < e16
        assert e16 <= 0.009


class TestLensSandwich:
    def test_solution_between_barriers(self):
        h = 1 / 16
        g = build_grid(LENS, h, 8)
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=MODEL,
            domain=LENS,
            f=-1.0,
        )
        u, _ = solve(prob, g, SolveControls(tol=1e-5))
        upper = evaluate_barrier(build_supersolution(LENS, MODEL, M=1.0), g.nodes_xy)
        lower = evaluate_barrier(
            build_subsolution(LENS, MODEL, K=1.0), g.nodes_xy
        )
        # contract allows 10h slack; measured margins are interior-strict
        assert float(np.max(u.values - upper)) <= 1e-3
        assert float(np.max(lower - u.values)) <= 1e-3

    def test_barrier_boundary_pinch(self):
        pts = sample_boundary(LENS, 512)
        upper = build_supersolution(LENS, MODEL, M=1.0)
        lower = build_subsolution(LENS, MODEL, K=1.0)
        assert float(np.max(np.abs(evaluate_barrier(upper, pts)))) <= 1e-6
        assert float(np.max(np.abs(evaluate_barrier(lower, pts)))) <= 1e-6


class TestExports:
    def test_csv_round_trip(self, bench_h16, tmp_path):
        u, _ = bench_h16
        path = tmp_path / "solution.csv"
        solution_to_csv(u, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("# h=0.0625 K=8 nodes=")
        assert text[1] == "x,y,u"
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        assert data.shape == (u.grid.n_nodes, 3)
        assert np.array_equal(data[:, 2], u.values)
        assert np.array_equal(data[:, :2], u.grid.nodes_xy)

    def test_report_text_fields(self, bench_h16):
        _, report = bench_h16
        text = report_to_text(report)
        assert f"iterations: {report.iterations}\n" in text
        assert f"upwind_steps: {report.upwind_steps}\n" in text
        assert f"factorizations: {report.factorizations}\n" in text
        changes = " ".join(map(str, report.policy_changes))
        assert f"policy_changes: {changes}\n" in text
        assert len(report.policy_changes) == report.iterations > 0
        assert f"residual_norm: {report.residual_norm:.17g}" in text
        assert "wall_time_s:" in text
        # perfbench's solve check parses residual_norm and stop_residual
        assert [line.split(": ", 1)[0] for line in text.splitlines()] == [
            "iterations",
            "upwind_steps",
            "factorizations",
            "policy_changes",
            "residual_norm",
            "stop_residual",
            "form_gap",
            "wall_time_s",
        ]
