"""Wide-stencil grid tests.

Frozen numeric targets come from closed forms: the unit-disc benchmark at
(beta, b, p, M) = (2, 1, 2, 1) has u(0) = 1 - log 2, and the pure-lambda_1
problem with manufactured forcing -|x|/2 is solved by (1 - |x|^3)/12.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
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
from degelliptic.radial import c1_bound, radial_profile, rbar

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
FAILURE_KEYS = {"iterations", "residual", "residual_history"}


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


def _jacobian(entries):
    """The Jacobian of a scheme's entries through the one assembly path
    (``_assemble``), in the packed node numbering."""
    cols, slopes, diag = entries
    return grid_module._assemble(cols, np.arange(cols.shape[1]))(slopes, diag)


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

    @staticmethod
    def _scan_every_candidate(K):
        """The fan as first chosen: every candidate's angle miss computed for
        every slot of the first octant, in O(K^3)."""
        m = K // 4
        cap = max(2, m)
        cands = [
            (a, b) for a in range(1, cap + 1) for b in range(a + 1) if math.gcd(a, b) == 1
        ]
        octant = []
        for k in range(m + 1):
            miss = {v: abs(math.atan2(v[1], v[0]) - math.pi * k / K) for v in cands}
            best = min(miss.values())
            ties = [v for v in cands if miss[v] <= best + 1e-12]
            octant.append(min(ties, key=lambda v: v[0] * v[0] + v[1] * v[1]))
        quarter = octant + [(b, a) for a, b in reversed(octant[1:-1])]
        return tuple(quarter + [(-b, a) for a, b in quarter])

    def test_sorted_choice_matches_scanning_every_candidate(self):
        for k in range(4, 65, 4):
            assert _direction_fan(k) == self._scan_every_candidate(k), k

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

    def test_k_past_the_lattice_box_refused_quickly(self):
        # the box at h = R/4 spans 10 lattice steps: K = 40 reaches 10 and
        # builds, K = 44 reaches 11 and is refused, as is K = 10^6 (whose
        # fan would take O(K^3) to choose) before any fan is built.  The
        # widest fan in use, K = 32 at h = R/4, builds in ``TestArmTable``
        assert build_grid(DISC, 0.25, 40).K == 40
        for K in (44, 10**6):
            start = time.perf_counter()
            with pytest.raises(ConfigError, match="K >= 4 and <= 40"):
                build_grid(DISC, 0.25, K)
            assert time.perf_counter() - start < 1.0

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
        for arm in (g.arm_lengths[: g.K], g.arm_lengths[g.K :]):
            assert np.all(arm > 0.0)
            assert np.all(arm <= full[:, None])

    def test_cut_points_on_circle(self, disc_h16):
        g = disc_h16
        n = g.n_nodes
        dirs = np.asarray(g.directions, dtype=float)
        for k in range(len(g.directions)):
            cut = g.arm_nodes[k] == n
            if not np.any(cut):
                continue
            arm = g.arm_lengths[k, cut][:, None]
            ends = g.nodes_xy[cut] + arm * dirs[k] / np.hypot(*dirs[k])
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
        assert np.array_equal(a.arm_lengths, b.arm_lengths)
        assert np.array_equal(a.arm_nodes, b.arm_nodes)
        assert np.array_equal(a.nodes_xy, b.nodes_xy)

    def test_rejects_3d_domain(self):
        dom3 = ConvexDomain(radius=1.0, centers=((0.0, 0.0, 0.0),))
        with pytest.raises(ConfigError, match="two-dimensional"):
            build_grid(dom3, 0.1, 8)


def _arm_table_by_passes(grid):
    """The arm table built one arm row at a time, each pass bounds-checking
    the arm ends against the lattice box and the mask: the reference for
    the one-pass gather of ``build_grid``."""
    n, K, h = grid.n_nodes, grid.K, grid.h
    ny, nx = grid.mask.shape
    order = np.argwhere(grid.mask)
    nodes = np.full((2 * K, n), n, dtype=np.int32)
    theta = np.ones((2 * K, n))
    for k, (a, b) in enumerate(grid.directions):
        for sgn, row in ((1, k), (-1, K + k)):
            jx = order[:, 1] + sgn * a
            jy = order[:, 0] + sgn * b
            ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
            hit = np.zeros(n, dtype=bool)
            hit[ok] = grid.mask[jy[ok], jx[ok]]
            nodes[row, hit] = grid.idx_grid[jy[hit], jx[hit]]
            cut = ~hit
            if np.any(cut):
                step = h * sgn * np.array([a, b], dtype=float)
                theta[row, cut] = grid_module._cut_fractions(
                    grid.nodes_xy[cut], step, grid.domain
                )
    hv = h * np.linalg.norm(np.asarray(grid.directions, dtype=float), axis=1)
    return nodes, theta * np.tile(hv, 2)[:, None]


ARM_DOMAINS = {
    "disc": DISC,
    "lens": LENS,
    "three-ball": ConvexDomain(
        radius=1.0, centers=((0.0, 0.3), (-0.26, -0.15), (0.26, -0.15))
    ),
    "thin-two-ball": ConvexDomain(radius=1.0, centers=((-0.7, 0.0), (0.7, 0.0))),
}


class TestArmTable:
    """``build_grid`` gathers every arm in one pass over a padded index
    lattice; its table must be the per-arm passes' bit for bit."""

    @staticmethod
    def _assert_matches_passes(grid):
        nodes, lengths = _arm_table_by_passes(grid)
        assert grid.arm_nodes.dtype == np.int32
        assert grid.arm_lengths.dtype == np.float64
        assert np.array_equal(grid.arm_nodes, nodes)
        assert np.array_equal(grid.arm_lengths, lengths)

    @pytest.mark.parametrize("domain", ARM_DOMAINS.values(), ids=ARM_DOMAINS.keys())
    def test_one_pass_matches_per_arm_passes(self, domain):
        # spacings that are and are not powers of two; the K = 32 fan
        # reaches 8 lattice steps, past the box's one-node margin
        for K in (4, 8, 16, 32):
            for h in (1 / 4, 1 / 16, 1 / 64, 0.1, 0.07, 1 / 37):
                self._assert_matches_passes(build_grid(domain, h, K))

    @pytest.mark.parametrize("h", [1 / 16, 1 / 64])
    def test_near_boundary_nodes_match_per_arm_passes(self, h):
        for eps in (0.0, 1e-3, 1e-8, 1e-14):
            self._assert_matches_passes(build_grid(_small_disc(eps).domain, h, 8))


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

    def test_direction_components_must_be_integers(self, disc_h4):
        # integer components of any type resolve; a float component is
        # refused, even an integral one, as for K in build_grid (int() once
        # read (1.5, 0.7) as (1, 0))
        u = quadratic_field(disc_h4, [[2.0, 1.0], [1.0, 0.0]])  # x^2 + xy
        i = disc_h4.node_index((0.0, 0.0))
        want = discrete_second_difference(u, i, (1, 0))
        assert want == pytest.approx(2.0, abs=1e-12)
        for same in ((np.int64(1), np.int64(0)), np.array([1, 0]), (-1, 0)):
            assert discrete_second_difference(u, i, same) == want
        for bad in ((1.5, 0.7), (1.0, 0.0), (np.float64(1.0), 0)):
            with pytest.raises(ConfigError, match="not in the stencil fan"):
                discrete_second_difference(u, i, bad)


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
        got = scheme.fan(u.extended())[0]
        per_node = [discrete_operator(spec, u, i) for i in range(g.n_nodes)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(per_node, want, rtol=1e-12, atol=0.0)


class TestPointwiseIsTheScheme:
    """The public pointwise functions return the values the solver uses,
    bit for bit, at every node, cut cells included."""

    @pytest.mark.parametrize("K", [8, 16])
    def test_pointwise_values_equal_the_scheme_values(self, K):
        g = build_grid(LENS, 1 / 10, K)
        u = GridFunction(grid=g, values=np.random.default_rng(7).normal(size=g.n_nodes))
        v = u.extended()
        scheme = _Scheme(_lens_problem(0.3, PowerNorm(b=1.0, p=2.0), 0.0), g)
        d2 = scheme.second_differences(v, scheme.fan_arms)
        grad = scheme.gradient(v)
        for i in range(g.n_nodes):
            for k in range(K):
                assert discrete_second_difference(u, i, k) == d2[k, i], (i, k)
            assert np.array_equal(discrete_gradient(u, i), grad[:, i]), i
        # f = 0 and no gradient term: the fan residual is F_h
        operators = (
            WeightedEigenvalues((0.5, 1.5)),
            CoefficientLambdaN(
                ScalarField(fn=lambda x: 2.0 + x[..., 0], lower=1.0, upper=3.0)
            ),
            LinearDegenerate(MatrixField.constant(LINDEG_SIGMA)),
        )
        for spec in operators:
            scheme = _Scheme(GridProblem(spec, None, MODEL, LENS, 0.0), g)
            f_h = scheme.fan(v)[0]
            for i in range(g.n_nodes):
                assert discrete_operator(spec, u, i) == f_h[i], (spec, i)


ACCEPTED_OPERATORS = {
    "lambda1": LambdaK(1),
    "lambda2": LambdaK(2),
    "minmax": MinMax(),
    "weighted": WeightedEigenvalues((0.5, 1.5)),
    "coefficient": CoefficientLambdaN(
        ScalarField(fn=lambda x: 2.0 + x[..., 0], lower=1.0, upper=3.0)
    ),
    "lindeg": LinearDegenerate(MatrixField.constant(LINDEG_SIGMA)),
}


def _accurate_reference(spec, u, i):
    """F_A at node i from the eigenvalues (``np.linalg.eigvalsh``) of the
    nine-point Hessian [[D_x, u_xy], [u_xy, D_y]], u_xy = (D_(1,1) -
    D_(-1,1)) / 2, of ``discrete_second_difference``; the trace split of
    sigma^T sigma for ``LinearDegenerate``.  Also returns the largest
    |second difference|."""
    dx, dy, dp, dm = (
        discrete_second_difference(u, i, v) for v in ((1, 0), (0, 1), (1, 1), (-1, 1))
    )
    uxy = (dp - dm) / 2.0
    lo, hi = np.linalg.eigvalsh([[dx, uxy], [uxy, dy]])
    x = u.grid.nodes_xy[i]
    if isinstance(spec, LambdaK):
        value = lo if spec.index == 1 else hi
    elif isinstance(spec, MinMax):
        value = lo + hi
    elif isinstance(spec, WeightedEigenvalues):
        value = spec.alphas[0] * lo + spec.alphas[1] * hi
    elif isinstance(spec, CoefficientLambdaN):
        value = float(spec.a(x)) * hi
    else:
        s = np.asarray(spec.sigma(x), dtype=float)
        a = s.T @ s
        off = a[0, 1]
        value = (
            (a[0, 0] - abs(off)) * dx
            + (a[1, 1] - abs(off)) * dy
            + 2.0 * abs(off) * (dp if off >= 0 else dm)
        )
    return value, max(abs(dx), abs(dy), abs(dp), abs(dm))


class TestAccurateScheme:
    """`solve` works on F_A, the operator's eigenvalues of the nine-point
    Hessian X_h built from the axis and diagonal second differences, plus
    the centered H_h (``_Scheme.accurate``)."""

    @pytest.mark.parametrize(
        "ham",
        [None, PowerNorm(b=1.0, p=2.0), AnisotropicPower(SymMatrix(ANISO_A), p=1.5)],
        ids=["none", "power", "aniso"],
    )
    @pytest.mark.parametrize(
        "spec", ACCEPTED_OPERATORS.values(), ids=ACCEPTED_OPERATORS.keys()
    )
    def test_residual_is_the_eigenvalues_of_the_nine_point_hessian(self, spec, ham):
        # a random lens field, cut cells included (second differences up to
        # about 2e4 there): every node agrees to rounding of the largest entry
        g = build_grid(LENS, 1 / 8, 8)
        u = GridFunction(grid=g, values=np.random.default_rng(11).normal(size=g.n_nodes))
        params = Params(beta=1.0, b=4.0, p=ham.p if ham else 2.0, M=1.0)
        got, _ = _Scheme(GridProblem(spec, ham, params, LENS, -0.1), g).accurate(
            u.extended()
        )
        for i in range(g.n_nodes):
            f_a, scale = _accurate_reference(spec, u, i)
            h_h = evaluate_hamiltonian(ham, discrete_gradient(u, i)) if ham else 0.0
            want = f_a + h_h + 0.1
            assert abs(got[i] - want) <= 1e-12 * (1.0 + 4.0 * scale + h_h), i

    def test_solution_does_not_depend_on_the_fan(self):
        # F_A reads only the axis and diagonal slots, which every fan holds
        # with the same arms, so K = 16 repeats the K = 8 solve bit for bit
        (u8, r8), (u16, r16) = (
            solve(BENCH, build_grid(DISC, 1 / 32, K)) for K in (8, 16)
        )
        assert np.array_equal(u8.values, u16.values)
        assert (r8.iterations, r8.residual_norm) == (r16.iterations, r16.residual_norm)

    @pytest.mark.parametrize("K", [4, 8, 16])
    @pytest.mark.parametrize("domain", [DISC, LENS], ids=["disc", "lens"])
    def test_one_second_difference_routine(self, domain, K):
        # F_A's nine-point table and the fan's 2K-row table come from one
        # builder and go through one take/subtract/scale: at the split slots
        # the fan's rows are F_A's bit for bit, cut-cell arms included
        g = build_grid(domain, 1 / 8, K)
        scheme = _Scheme(GridProblem(MinMax(), None, MODEL, domain, -0.1), g)
        v = np.append(np.random.default_rng(6).normal(size=g.n_nodes), 0.0)
        nine = scheme.second_differences(v, scheme.arms)
        fan = scheme.second_differences(v, scheme.fan_arms)
        assert nine.shape == (4, g.n_nodes) and fan.shape == (K, g.n_nodes)
        assert np.array_equal(nine, fan[grid_module._split_slots(g)])

    @pytest.mark.parametrize(
        "ham",
        [None, PowerNorm(b=1.0, p=2.0), AnisotropicPower(SymMatrix(ANISO_A), p=2.0)],
        ids=["none", "power", "aniso"],
    )
    def test_fan_tables_wait_for_the_fan(self, disc_h8, ham):
        # the set-up and F_A read the nine-point table alone; the fan's
        # 2K-row table and the upwind split of A (none without a gradient
        # term) wait for the first fan evaluation
        problem = GridProblem(BENCH.operator, ham, MODEL, DISC, -1.0)
        scheme = _Scheme(problem, disc_h8)
        v = np.append(np.random.default_rng(2).normal(size=disc_h8.n_nodes), 0.0)

        def built():
            return {name for name in ("fan_arms", "upwind_arms") if name in vars(scheme)}

        scheme.accurate(v)
        assert built() == set()
        scheme.fan(v)
        assert built() == ({"fan_arms", "upwind_arms"} if ham else {"fan_arms"})

    def test_solve_memory_does_not_depend_on_the_fan(self):
        # `solve` builds F_A's nine-point arm tables and no fan table: its
        # traced peak at K = 16 is within 1 % of K = 8 (measured 11.17 MB
        # both; 15.3 MB and 19.4 MB while the set-up built the 2K-row fan)
        import tracemalloc

        import scipy.sparse.linalg  # noqa: F401  (its import is not traced)

        peaks = []
        for K in (8, 16):
            grid = build_grid(DISC, 1 / 64, K)
            tracemalloc.start()
            try:
                solve(BENCH, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0]

    def test_fine_lens_takes_few_steps(self):
        # 8 full steps on the anisotropic lens at h = 1/128 (measured 2.3 s)
        problem, grid = _aniso_lens(1 / 128)
        _, report = solve(problem, grid)
        assert report.iterations <= 10
        assert report.residual_norm <= report.stop_residual


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
            neighbors = set(disc_h8.arm_nodes[:, i])
            neighbors.discard(disc_h8.n_nodes)  # boundary slot is pinned
            neighbors.discard(int(i))
            for j in neighbors:
                bumped = base.copy()
                bumped[j] += 1e-3
                after = discrete_operator(
                    spec, GridFunction(grid=disc_h8, values=bumped), int(i)
                )
                assert after - before >= -1e-12


def _gradient_scale(params):
    """Twice the a-priori gradient bound on the unit disc at the forcing
    magnitude that puts the disc at the existence threshold; it grows
    with p."""
    # rbar scales as M^(-(p - 1) / p)
    m = params.M * rbar(params) ** (params.p / (params.p - 1.0))
    at_threshold = Params(beta=params.beta, b=params.b, p=params.p, M=m)
    return 2.0 * c1_bound(at_threshold, DISC.radius)


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
    # ties in the fan scans of a random field have measure zero
    EPS = 1e-7

    def _jacobian_and_differences(self, grid, operator, ham):
        params = Params(beta=1.0, b=4.0, p=ham.p, M=1.0)
        scheme = _Scheme(GridProblem(operator, ham, params, DISC, -0.1), grid)
        rng = np.random.default_rng(1)
        v = np.append(rng.normal(scale=0.03, size=grid.n_nodes), 0.0)
        w = np.append(rng.normal(size=grid.n_nodes), 0.0)
        fd = (
            scheme.fan(v + self.EPS * w)[0] - scheme.fan(v - self.EPS * w)[0]
        ) / (2.0 * self.EPS)
        jac = _jacobian(scheme.fan(v)[1])
        return scheme, v, w, fd, jac @ w[:-1]

    @JACOBIAN_OPERATORS
    @JACOBIAN_HAMILTONIANS
    def test_accurate_matches_central_differences(self, disc_h8, operator, ham):
        # F_A's entries through the one assembly path (``_assemble``); X_h
        # with a double eigenvalue has measure zero on a random field
        params = Params(beta=1.0, b=4.0, p=ham.p, M=1.0)
        scheme = _Scheme(GridProblem(operator, ham, params, DISC, -0.1), disc_h8)
        rng = np.random.default_rng(1)
        v = np.append(rng.normal(scale=0.03, size=disc_h8.n_nodes), 0.0)
        w = np.append(rng.normal(size=disc_h8.n_nodes), 0.0)
        fd = (
            scheme.accurate(v + self.EPS * w)[0] - scheme.accurate(v - self.EPS * w)[0]
        ) / (2.0 * self.EPS)
        jac = _jacobian(scheme.accurate(v)[1])
        assert float(np.max(np.abs(fd - jac @ w[:-1]))) <= 1e-5

    @JACOBIAN_OPERATORS
    @JACOBIAN_HAMILTONIANS
    def test_accurate_entries_do_not_depend_on_the_fan(self, operator, ham):
        # F_A + H_h reads only the axis and diagonal arms, which every fan
        # holds with the same cut-cell lengths: K = 4, the nine-point fan
        # that ``convergence_study`` builds, gives the K = 8 and K = 16
        # residual and Jacobian bit for bit
        params = Params(beta=1.0, b=4.0, p=ham.p, M=1.0)
        problem = GridProblem(operator, ham, params, LENS, -0.1)
        results = []
        for K in (4, 8, 16):
            g = build_grid(LENS, 1 / 8, K)
            v = np.append(np.random.default_rng(8).normal(size=g.n_nodes), 0.0)
            resid, entries = _Scheme(problem, g).accurate(v)
            jac = _jacobian(entries).toarray()
            results.append((resid, jac))
        for resid, jac in results[1:]:
            assert np.array_equal(resid, results[0][0])
            assert np.array_equal(jac, results[0][1])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("aniso", [False, True], ids=["power", "aniso"])
    def test_accurate_rows_stay_in_the_nine_point_stencil(self, disc_h8, p, aniso):
        """Unlike the fan's, F_A's Jacobian rows do not move with the
        iterate: every row keeps its diagonal and reads the node and the
        ends of its axis and diagonal arms, and no other column, at a
        random iterate and at the same one tilted.  The aniso case takes an
        A with no lattice split, which F_A accepts."""
        ham = (
            AnisotropicPower(SymMatrix([[1.0, 0.6], [0.6, 0.5]]), p=p)
            if aniso
            else PowerNorm(b=1.0, p=p)
        )
        params = Params(beta=1.0, b=4.0, p=p, M=1.0)
        # unequal eigenvalue weights: the diagonal arms keep nonzero slopes
        operator = WeightedEigenvalues((0.5, 1.5))
        scheme = _Scheme(GridProblem(operator, ham, params, DISC, -0.1), disc_h8)
        rng = np.random.default_rng(3)
        n = disc_h8.n_nodes
        slots = grid_module._split_slots(disc_h8)
        nine = disc_h8.arm_nodes[np.concatenate([slots, slots + disc_h8.K])]
        scale = _gradient_scale(params)
        v0 = np.append(rng.normal(scale=0.1 * scale, size=n), 0.0)
        tilt = 0.25 * scale * (disc_h8.nodes_xy @ [1.0, 0.5])
        v1 = v0 + np.append(tilt, 0.0)
        patterns = []
        for v in (v0, v1):
            jac = _jacobian(scheme.accurate(v)[1]).tocsr()
            jac.eliminate_zeros()
            rows = [
                set(jac.indices[jac.indptr[i] : jac.indptr[i + 1]]) for i in range(n)
            ]
            for i, cols in enumerate(rows):
                assert cols == {i, *nine[:, i]} - {n}, i
            patterns.append(rows)
        assert patterns[0] == patterns[1]

    @JACOBIAN_OPERATORS
    @JACOBIAN_HAMILTONIANS
    def test_upwind_matches_central_differences(self, disc_h8, operator, ham):
        scheme, v, w, fd, jw = self._jacobian_and_differences(disc_h8, operator, ham)

        def columns(x):  # each node's nonzero Jacobian columns, -1 elsewhere
            cols, slopes, _ = scheme.fan(x)[1]
            return np.where(slopes != 0.0, cols, -1)

        # compare only away from kinks: where no fan slot and no upwind arm
        # switches between the ends of the difference stencil, so each
        # node's Jacobian entries sit in the same columns at both
        nodes = np.all(
            columns(v + self.EPS * w) == columns(v - self.EPS * w), axis=0
        )
        assert nodes.sum() >= 0.95 * disc_h8.n_nodes
        assert float(np.max(np.abs(fd - jw)[nodes])) <= 1e-5

    @JACOBIAN_OPERATORS
    @JACOBIAN_HAMILTONIANS
    def test_fan_residual_is_the_residual(self, disc_h8, operator, ham):
        # the upwind solves read F_h + H_h - f from ``fan``; check it node
        # by node against discrete_operator and the upwind sum_k c_k m_k^2
        # built from the arms over the dominant split of A
        params = Params(beta=1.0, b=4.0, p=ham.p, M=1.0)
        scheme = _Scheme(GridProblem(operator, ham, params, DISC, -0.1), disc_h8)
        g = disc_h8
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
            resid = scheme.fan(v)[0]
            u = GridFunction(grid=g, values=v[:-1])
            for i in range(g.n_nodes):
                f_h = discrete_operator(operator, u, i)
                q = 0.0
                for slot, c in split.items():
                    k = g.directions.index(slot)
                    plus, minus = k, k + g.K
                    m = max(
                        (v[g.arm_nodes[plus, i]] - v[i]) / g.arm_lengths[plus, i],
                        (v[g.arm_nodes[minus, i]] - v[i]) / g.arm_lengths[minus, i],
                        0.0,
                    )
                    q += c * m * m
                h_h = coef * q ** (ham.p / 2.0)
                want = f_h + h_h + 0.1
                assert abs(resid[i] - want) <= 1e-12 * (1.0 + abs(f_h) + h_h)


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


def _newton_from(problem, grid, v0, tol=1e-5):
    """The Newton steps of `solve` on F_A from the start ``v0`` (zeros for
    the uniqueness checks).  Returns the values, the step log and the
    stop."""
    scheme = _Scheme(problem, grid)
    stop = tol * (1.0 + scheme.f_sup)
    log = grid_module._StepLog()
    v = grid_module._newton(
        scheme.accurate,
        np.append(v0, 0.0),
        grid_module._nested_dissection(grid),
        stop,
        log,
        grid_module._step_budget(grid),
    )
    return v[:-1], log, stop


def _upwind_iterates(scheme, v_ext, stop):
    """Policy iteration (Bokanowski, Maroso & Zidani 2009) on the monotone
    upwind fan scheme: the Newton loop of `solve` (``_newton``) on
    ``_Scheme.fan``, from ``v_ext`` to ``stop`` within 60 steps, which
    `solve` does not run.  Returns the iterates, ``v_ext`` first, and
    their residuals, recorded as ``_newton`` evaluates them."""
    iterates, residuals = [], []

    def evaluate(v):
        resid, entries = scheme.fan(v)
        iterates.append(v.copy())
        residuals.append(resid)
        return resid, entries

    # separators as wide as the fan's longest arm
    order, _ = _dissection(scheme.grid, int(np.abs(scheme.grid.directions).max()))
    grid_module._newton(evaluate, v_ext.copy(), order, stop, grid_module._StepLog(), 60)
    return iterates, residuals


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
        before = scheme.fan(v)[0]
        v[j] += bump
        after = np.delete(scheme.fan(v)[0], j)
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
        Z-matrix: with the connected stencil, a nonsingular M-matrix, which
        LU factors stably without row exchanges.  The centered first-order
        term and F_A's u_xy slopes lack the property: their Jacobians have
        negative off-diagonal entries, which is why `solve` factors with a
        pivoting threshold."""
        problem = _lens_problem(offset, ham, -1.0)
        grid = build_grid(problem.domain, h, 8)
        scheme = _Scheme(problem, grid)
        rng = np.random.default_rng(seed)
        v = np.append(rng.normal(scale=scale, size=grid.n_nodes), 0.0)
        entries = scheme.fan(v)[1]
        jac = _jacobian(entries).tocoo()
        off = jac.row != jac.col
        assert np.all(jac.data[off] >= 0.0)
        assert np.all(jac.diagonal() < 0.0)
        sums = np.asarray(jac.sum(axis=1)).ravel()
        row_scale = np.asarray(abs(jac).sum(axis=1)).ravel()
        assert np.all(sums <= 1e-12 * row_scale)
        assert np.any(sums < -1e-12 * row_scale)

    @settings(max_examples=40, deadline=None)
    @given(
        operator=st.sampled_from(
            [
                CoefficientLambdaN(
                    ScalarField(fn=lambda x: 2.0 + x[..., 0], lower=1.0, upper=3.0)
                ),
                LambdaK(2),
                LinearDegenerate(MatrixField.constant(np.eye(2))),
            ]
        ),
        aniso=st.booleans(),
        p=st.floats(1.05, 4.0),
        h=st.sampled_from([1 / 8, 1 / 12]),
        below=st.floats(0.05, 0.9),
        above=st.floats(1.1, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_upwind_residual_is_convex_for_convex_operators(
        self, operator, aniso, p, h, below, above, seed
    ):
        """Each m_k is convex and nonnegative, so the upwind H_h is convex in
        u for p >= 1, and with a max-term or linear F_h so is the residual:
        the midpoint lies below the chord at every node.  The two fields
        tilt at ``below`` and ``above`` times G = ``_gradient_scale``, so
        their gradients straddle G."""
        ham = (
            AnisotropicPower(SymMatrix(ANISO_A), p=p, b=1.0)
            if aniso
            else PowerNorm(b=1.0, p=p)
        )
        params = Params(beta=1.0, b=4.0, p=p, M=1.0)
        bound = _gradient_scale(params)
        grid = build_grid(DISC, h, 8)
        scheme = _Scheme(GridProblem(operator, ham, params, DISC, -0.1), grid)
        rng = np.random.default_rng(seed)

        def field(slope):
            direction = rng.normal(size=2)
            tilt = grid.nodes_xy @ (slope * bound * direction / np.hypot(*direction))
            noise = rng.normal(scale=0.1 * slope * bound * h, size=grid.n_nodes)
            return np.append(tilt + noise, 0.0)

        v0, v1 = field(below), field(above)
        r0, r1, mid = (
            scheme.fan(v)[0] for v in (v0, v1, (v0 + v1) / 2.0)
        )
        h0, h1 = (scheme.hamiltonian(v, upwind=True)[0] for v in (v0, v1))
        scale = 1.0 + np.abs(r0) + np.abs(r1) + h0 + h1
        excess = mid - (r0 + r1) / 2.0
        assert np.all(excess <= 1e-12 * scale)

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
            iterates, residuals = _upwind_iterates(scheme, np.zeros(grid.n_nodes + 1), 1e-11)
            assert np.max(np.abs(residuals[-1])) <= 1e-11
            solutions.append(iterates[-1][:-1])
        assert np.all(solutions[0] >= solutions[1] - 1e-9)

    @pytest.mark.parametrize(
        "problem, h, K",
        [
            (BENCH, 1 / 16, 8),
            (BENCH, 1 / 32, 8),
            (BENCH, 1 / 64, 8),
            (BENCH, 1 / 64, 16),
            (_lens_problem(0.3, PowerNorm(b=1.0, p=2.0), -1.0), 1 / 64, 8),
            (
                _lens_problem(
                    0.3, AnisotropicPower(SymMatrix(ANISO_A), p=2.0, b=1.0), -1.0
                ),
                1 / 64,
                8,
            ),
        ],
        ids=[
            "disc-h16", "disc-h32", "disc-h64", "disc-h64-k16", "lens-power-h64",
            "lens-aniso-h64",
        ],
    )
    def test_upwind_iterates_rise_from_the_barrier(self, problem, h, K):
        """Policy iteration on the convex monotone upwind form (Bokanowski,
        Maroso & Zidani 2009), run to the stop from the barrier start of
        `solve`: the start is a strict discrete supersolution, G < 0 at
        every node, and from the first Newton step on no node of an iterate
        falls."""
        grid = build_grid(problem.domain, h, K)
        scheme = _Scheme(problem, grid)
        start = np.append(grid_module._initial_values(problem, grid, scheme), 0.0)
        stop = SolveControls().tol * (1.0 + scheme.f_sup)
        iterates, residuals = _upwind_iterates(scheme, start, stop)
        assert np.max(np.abs(residuals[-1])) <= stop
        assert np.all(residuals[0] < 0.0)
        for prev, nxt in zip(iterates[1:], iterates[2:]):
            assert np.all(nxt - prev >= -1e-14 * (1.0 + np.abs(prev)))


    def test_upwind_stage_run_to_the_stop_stays_above_the_solution(self):
        """Policy iteration on the upwind form, every step factored, run to
        the stop residual: every iterate from step 1 on keeps G >= 0 up to
        rounding, so it never overshoots the discrete solution (measured:
        -3.4e-13 on lens-power-h64; -2.4e-8 when steps reused a factor)."""
        problem = _lens_problem(0.3, PowerNorm(b=1.0, p=2.0), -1.0)
        grid = build_grid(problem.domain, 1 / 64, 8)
        scheme = _Scheme(problem, grid)
        start = np.append(grid_module._initial_values(problem, grid, scheme), 0.0)
        stop = SolveControls().tol * (1.0 + scheme.f_sup)
        _, residuals = _upwind_iterates(scheme, start, stop)
        assert np.max(np.abs(residuals[-1])) <= stop
        assert len(residuals) > 2
        assert min(float(r.min()) for r in residuals[1:]) >= -1e-11

    def test_upwind_iterates_rise_without_a_gradient_term(self):
        """Without a gradient term, along policy iteration to the stop the
        iterates rise from step 1 on (2 lambda_N is convex)."""
        problem = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=None,
            params=MODEL,
            domain=LENS,
            f=lambda P: -1.0 - P[:, 0] ** 2,
        )
        grid = build_grid(LENS, 1 / 32, 8)
        scheme = _Scheme(problem, grid)
        start = np.append(grid_module._initial_values(problem, grid, scheme), 0.0)
        stop = SolveControls().tol * (1.0 + scheme.f_sup)
        iterates, residuals = _upwind_iterates(scheme, start, stop)
        assert np.max(np.abs(residuals[-1])) <= stop and len(iterates) > 3
        for prev, nxt in zip(iterates[1:], iterates[2:]):
            assert np.all(nxt - prev >= -1e-14 * (1.0 + np.abs(prev)))

    @settings(max_examples=25, deadline=None)
    @given(
        offset=st.floats(0.0, 0.5),
        h=st.sampled_from([1 / 8, 1 / 12, 1 / 16]),
        ham=st.one_of(st.none(), HAMILTONIANS),
        scale=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_upwind_rows_keep_the_m_matrix(self, offset, h, ham, scale, seed):
        """A matrix with rows of upwind Jacobians taken at two iterates keeps
        each row's sign pattern and weak dominance, so it is still a
        nonsingular M-matrix: -J^-1 is nonnegative."""
        from scipy.sparse.linalg import spsolve

        problem = _lens_problem(offset, ham, -1.0)
        grid = build_grid(problem.domain, h, 8)
        scheme = _Scheme(problem, grid)
        rng = np.random.default_rng(seed)
        n = grid.n_nodes
        v0, v1 = (np.append(rng.normal(scale=scale, size=n), 0.0) for _ in "01")
        rows = rng.choice(n, size=rng.integers(1, n), replace=False)
        jac0, jac1 = (
            _jacobian(scheme.fan(v)[1]) for v in (v0, v1)
        )
        mixed = jac0.tolil()
        mixed[rows] = jac1[rows]
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
    def test_rows_are_affine_along_a_scaling(self, disc_h8, ham):
        """At p = 2 an upwind Jacobian row is affine in the iterate while the
        row's fan slots and upwind arms hold.  Scaling the iterate by a
        positive factor keeps every one of them, so the Jacobian is affine
        along the scaling."""
        params = Params(beta=1.0, b=4.0, p=2.0, M=1.0)
        operator = CoefficientLambdaN(ScalarField.constant(2.0))
        problem = GridProblem(operator, ham, params, DISC, -0.1)
        scheme = _Scheme(problem, disc_h8)
        rng = np.random.default_rng(1)
        v = np.append(rng.normal(scale=0.03, size=disc_h8.n_nodes), 0.0)
        jac = {
            s: _jacobian(scheme.fan(s * v)[1]).toarray()
            for s in (1, 1.5, 2)
        }
        mid = (jac[1] + jac[2]) / 2
        scale = np.abs(mid).max()
        assert np.max(np.abs(jac[1.5] - mid)) <= 1e-12 * scale

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("aniso", [False, True], ids=["power", "aniso"])
    def test_jacobian_rows_stay_in_the_node_stencil(self, disc_h8, p, aniso):
        """Tilting an iterate moves fan choices, and with them the nonzero
        columns of some fan Jacobian rows; every row keeps its diagonal and
        reads no column outside the node and its 2K arm ends."""
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
        # the tilt keeps most fan choices and moves upwind arms
        scale = _gradient_scale(params)
        v0 = np.append(rng.normal(scale=0.1 * scale, size=n), 0.0)
        tilt = 0.25 * scale * (disc_h8.nodes_xy @ [1.0, 0.5])
        v1 = v0 + np.append(tilt, 0.0)
        patterns = []
        for v in (v0, v1):
            jac = _jacobian(scheme.fan(v)[1]).tocsr()
            jac.eliminate_zeros()
            rows = [
                set(jac.indices[jac.indptr[i] : jac.indptr[i + 1]]) for i in range(n)
            ]
            for i, cols in enumerate(rows):
                assert i in cols, i
                assert cols <= {i, *disc_h8.arm_nodes[:, i]}, i
            patterns.append(rows)
        moved = sum(c0 != c1 for c0, c1 in zip(*patterns))
        assert 0 < moved < n


def _aniso_lens(h):
    problem = _lens_problem(0.3, AnisotropicPower(SymMatrix(ANISO_A), p=2.0), -1.0)
    return problem, build_grid(problem.domain, h, 8)


class TestNewtonSteps:
    """`solve` takes full Newton steps on F_A, each one factoring its own
    Jacobian."""

    def test_chord_steps_on_the_disc(self, monkeypatch):
        # none: the disc converges quadratically in three full steps, each
        # factored once (a chord step could save at most one factorization)
        import scipy.sparse.linalg as sla

        splu, factored = sla.splu, []

        def count(*args, **kwargs):
            factored.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(sla, "splu", count)
        grid = build_grid(DISC, 1 / 32, 8)
        _, report = solve(BENCH, grid)
        assert report.iterations == len(factored) == 3
        start = grid_module._initial_values(BENCH, grid, _Scheme(BENCH, grid))
        _, log, _ = _newton_from(BENCH, grid, start)
        for prev, nxt in zip(log.history[1:], log.history[2:]):
            assert nxt <= prev**2

    def test_aniso_lens_h32_steps_are_pinned(self):
        # any change to the Newton loop that moves a step shows up here: 7
        # full steps from the barrier, the residual falling quadratically
        # at the end (the history as measured, to 6 digits)
        problem, grid = _aniso_lens(1 / 32)
        _, report = solve(problem, grid)
        assert report.iterations == 7
        start = grid_module._initial_values(problem, grid, _Scheme(problem, grid))
        _, log, _ = _newton_from(problem, grid, start)
        assert log.history == pytest.approx(
            [7.45877, 1.49737, 0.293667, 0.0958171, 0.035514, 0.0108097,
             0.00136422, 1.29284e-05],
            rel=1e-5,
        )
        assert log.history[-1] == report.residual_norm


def _mmd_newton(problem, grid):
    """`solve`'s full Newton steps on F_A, each Jacobian factored in the
    packed numbering with SuperLU's minimum degree order of J + J^T.
    Returns the values and the number of steps."""
    from scipy.sparse.linalg import splu

    scheme = _Scheme(problem, grid)
    stop = 1e-5 * (1.0 + scheme.f_sup)
    v = np.append(grid_module._initial_values(problem, grid, scheme), 0.0)
    resid, entries = scheme.accurate(v)
    steps = 0
    while np.max(np.abs(resid)) > stop:
        assert steps < 20
        lu = splu(
            _jacobian(entries),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options=dict(SymmetricMode=True),
        )
        v[:-1] += lu.solve(-resid)
        steps += 1
        resid, entries = scheme.accurate(v)
    return v[:-1], steps


def _dissection(grid, reach=1):
    """A reference nested dissection of the lattice box whose separators
    are ``reach`` lattice lines wide: the order, and each split as (first
    half, second half, separator), as packed node indices.  At ``reach`` 1
    it is `_nested_dissection`; the upwind fan's arms, up to
    max(2, K // 4) steps, need separators as wide as the longest."""
    splits = []

    def dissect(box):
        if box.size <= 16:
            return [box.ravel()]
        axis = 1 if box.shape[1] >= box.shape[0] else 0
        a = box.shape[axis] // 2
        first, line, second = np.split(box, [a, a + reach], axis=axis)
        parts = (first.ravel(), second.ravel(), line.ravel())
        splits.append(tuple(part[part >= 0] for part in parts))
        return [*dissect(first), *dissect(second), parts[2]]

    order = np.concatenate(dissect(np.asarray(grid.idx_grid)))
    return order[order >= 0], splits


class TestNestedDissection:
    """`solve` factors every Newton step in one nested-dissection order of
    the lattice box, built once per solve, with no fill-reducing order of
    SuperLU's own."""

    @pytest.mark.parametrize("domain", [DISC, LENS], ids=["disc", "lens"])
    @pytest.mark.parametrize("h", [1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64])
    def test_is_a_permutation_of_the_nodes(self, domain, h):
        grid = build_grid(domain, h, 4)
        order = grid_module._nested_dissection(grid)
        assert np.array_equal(np.sort(order), np.arange(grid.n_nodes))

    @pytest.mark.parametrize("h", [1 / 16, 1 / 64])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-8, 1e-14])
    def test_is_a_permutation_near_the_boundary(self, h, eps):
        # the grids of TestNearBoundaryNodes
        grid = build_grid(_small_disc(eps).domain, h, 8)
        order = grid_module._nested_dissection(grid)
        assert np.array_equal(np.sort(order), np.arange(grid.n_nodes))

    @pytest.mark.parametrize("domain", [DISC, LENS], ids=["disc", "lens"])
    def test_no_arm_crosses_a_separator(self, domain):
        """No nine-point arm joins the two halves of a split, and the order
        takes the first half, then the second, then the separator line."""
        grid = build_grid(domain, 1 / 32, 8)
        order, splits = _dissection(grid)
        assert np.array_equal(order, grid_module._nested_dissection(grid))
        position = np.empty(grid.n_nodes, dtype=int)
        position[order] = np.arange(grid.n_nodes)
        slots = grid_module._split_slots(grid)
        nine = grid.arm_nodes[np.concatenate([slots, slots + grid.K])]
        assert len(splits) > 50
        for first, second, line in splits:
            assert not np.isin(nine[:, first], second).any()
            assert not np.isin(nine[:, second], first).any()
            parts = [position[part] for part in (first, second, line) if part.size]
            for before, after in zip(parts, parts[1:]):
                assert before.max() < after.min()

    def test_one_structure_per_solve_and_no_order_per_step(self, monkeypatch):
        import scipy.sparse.linalg as sla

        pattern, splu = grid_module._assemble, sla.splu
        orders, specs = [], []

        def build(cols, order):
            orders.append(order)
            return pattern(cols, order)

        def factor(*args, **kwargs):
            specs.append(kwargs["permc_spec"])
            return splu(*args, **kwargs)

        monkeypatch.setattr(grid_module, "_assemble", build)
        monkeypatch.setattr(sla, "splu", factor)
        problem, grid = _aniso_lens(1 / 32)
        _, report = solve(problem, grid)
        assert len(orders) == 1
        assert np.array_equal(orders[0], grid_module._nested_dissection(grid))
        assert specs == ["NATURAL"] * report.iterations == ["NATURAL"] * 7

    @pytest.mark.parametrize("case", ["disc", "aniso-lens"])
    def test_factor_fill_below_minimum_degree(self, case):
        # the first Jacobian of the h = 1/32 solve, factored in the nested
        # dissection order and in the packed numbering with SuperLU's
        # minimum degree order of J + J^T
        from scipy.sparse.linalg import splu

        if case == "disc":
            problem, grid = BENCH, build_grid(DISC, 1 / 32, 8)
        else:
            problem, grid = _aniso_lens(1 / 32)
        scheme = _Scheme(problem, grid)
        v = np.append(grid_module._initial_values(problem, grid, scheme), 0.0)
        cols, slopes, diag = entries = scheme.accurate(v)[1]
        order = grid_module._nested_dissection(grid)
        fill = {}
        for spec, jac in (
            ("NATURAL", grid_module._assemble(cols, order)(slopes, diag)),
            ("MMD_AT_PLUS_A", _jacobian(entries)),
        ):
            lu = splu(
                jac, permc_spec=spec, diag_pivot_thresh=0.1,
                options=dict(SymmetricMode=True),
            )
            fill[spec] = lu.L.nnz + lu.U.nnz
        assert fill["NATURAL"] < fill["MMD_AT_PLUS_A"]

    @pytest.mark.parametrize("case", ["disc", "power-lens", "aniso-lens"])
    def test_solve_matches_minimum_degree_steps(self, case):
        if case == "disc":
            problem, grid = BENCH, build_grid(DISC, 1 / 32, 8)
        elif case == "power-lens":
            problem = _lens_problem(0.3, PowerNorm(b=1.0, p=2.0), -1.0)
            grid = build_grid(problem.domain, 1 / 32, 8)
        else:
            problem, grid = _aniso_lens(1 / 32)
        u, report = solve(problem, grid)
        values, steps = _mmd_newton(problem, grid)
        assert report.iterations == steps
        assert float(np.max(np.abs(u.values - values))) <= 1e-12


class TestSolve:
    def test_forcing_of_any_real_type_is_a_constant(self, disc_h8):
        want, _ = solve(BENCH, disc_h8)
        for f in (np.float32(-1.0), np.int64(-1), Fraction(-1)):
            got, _ = solve(replace(BENCH, f=f), disc_h8)
            assert np.array_equal(got.values, want.values), type(f)

    @pytest.mark.parametrize("f", ["abc", None, True], ids=["str", "none", "bool"])
    def test_forcing_neither_number_nor_callable_refused(self, disc_h8, f):
        with pytest.raises(ConfigError, match="number or a callable"):
            solve(replace(BENCH, f=f), disc_h8)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda u: SolveControls(tol="1e-5"), "tolerance"),
            (lambda u: SolveControls(tol=None), "tolerance"),
            (lambda u: SolveControls(tol=True), "tolerance"),
            (lambda u: discrete_second_difference(u, 3.0, 0), "point"),
            (lambda u: discrete_second_difference(u, True, 0), "point"),
            (lambda u: discrete_second_difference(u, 0, 3.0), "direction"),
            (lambda u: discrete_second_difference(u, 0, True), "direction"),
        ],
        ids=[
            "tol-str", "tol-none", "tol-bool", "node-float", "node-bool",
            "direction-float", "direction-bool",
        ],
    )
    def test_entry_points_refuse_non_numbers(self, disc_h4, call, match):
        u = GridFunction(grid=disc_h4, values=np.zeros(disc_h4.n_nodes))
        with pytest.raises(ConfigError, match=match):
            call(u)

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
        u_zero, log, stop = _newton_from(BENCH, disc_h8, zeros, tol=1e-6)
        u_bar, rep = solve(BENCH, disc_h8, SolveControls(tol=1e-6))
        assert log.history[-1] <= stop == rep.stop_residual
        assert float(np.max(np.abs(u_zero - u_bar.values))) <= 1e-5

    def test_numpy_tolerance_is_stored_as_a_float(self, disc_h8):
        # the stop residual is computed in float64 from the tolerance's
        # value: np.float32(1e-5) is 9.99999974737875e-06
        for tol in (np.float32(1e-5), np.float64(1e-5), Fraction(1, 100000)):
            controls = SolveControls(tol=tol)
            assert type(controls.tol) is float and controls.tol == float(tol)
            _, report = solve(BENCH, disc_h8, controls)
            _, plain = solve(BENCH, disc_h8, SolveControls(tol=float(tol)))
            assert type(report.stop_residual) is float
            assert report.stop_residual == plain.stop_residual == 2.0 * float(tol)
        _, report = solve(BENCH, disc_h8, SolveControls(tol=np.float64(1e-5)))
        assert report.stop_residual == 2e-05

    def test_near_linear_gradient_term_solves(self):
        # p = 1.00001 on a disc just inside the threshold: the gradient term
        # is evaluated as written, so this well-posed problem solves
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
        u, report = solve(problem, build_grid(domain, radius / 4, 8))
        assert report.residual_norm <= report.stop_residual
        assert np.all(np.isfinite(u.values))

    def test_tau_control_refused(self):
        # Newton is the only solver; there is no explicit step to set
        with pytest.raises(TypeError, match="tau"):
            SolveControls(tau=0.01)

    def test_init_control_refused(self):
        # every solve starts from the barrier; there is no start to choose
        with pytest.raises(TypeError, match="init"):
            SolveControls(init="zeros")

    def test_max_iter_control_refused(self, disc_h8):
        # the step budget per solve comes from the grid: the longer side of
        # the lattice box, 19 nodes at h = 1/8
        with pytest.raises(TypeError, match="max_iter"):
            SolveControls(max_iter=120)
        assert grid_module._step_budget(disc_h8) == max(disc_h8.mask.shape) == 19
        assert grid_module._step_budget(build_grid(LENS, 1 / 16, 8)) == 45

    def test_step_budget_raises_with_history(self, disc_h8, monkeypatch):
        # three steps from zeros cannot solve the disc (it takes seven)
        monkeypatch.setattr(grid_module, "_step_budget", lambda grid: 3)
        zeros = np.zeros(disc_h8.n_nodes)
        with pytest.raises(NumericError, match="no convergence within 3") as err:
            _newton_from(BENCH, disc_h8, zeros)
        diag = err.value.diagnostics
        assert diag["iterations"] == 3
        assert len(diag["residual_history"]) == 1 + 3
        assert diag["residual"] == diag["residual_history"][-1] > 2e-5

    def test_step_budget_caps_the_barrier_start(self, disc_h8, monkeypatch):
        # the barrier start needs two steps; a budget of one ends the solve
        # one step short
        monkeypatch.setattr(grid_module, "_step_budget", lambda grid: 1)
        with pytest.raises(NumericError) as err:
            solve(BENCH, disc_h8)
        diag = err.value.diagnostics
        assert set(diag) == FAILURE_KEYS
        assert diag["iterations"] == 1
        assert len(diag["residual_history"]) == 1 + 1
        assert diag["residual"] == diag["residual_history"][-1] > 2e-5
        monkeypatch.setattr(grid_module, "_step_budget", lambda grid: 2)
        _, report = solve(BENCH, disc_h8)
        assert report.iterations == 2

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
        # the first step blew up, which ended the solve
        assert diag["iterations"] == 1
        assert diag["residual_history"][0] == 1e308
        assert math.isnan(diag["residual"]) and math.isnan(diag["residual_history"][-1])

    @pytest.mark.parametrize("step", [1, 2], ids=["first-step", "second-step"])
    def test_singular_jacobian_raises_numeric_error(self, disc_h8, monkeypatch, step):
        # an all-zero row makes the factor exactly singular; the solve must
        # name it instead of reporting a blow-up from NaN updates (the
        # barrier start takes two steps).  The structure is built once per
        # solve; the row is zeroed in the Jacobian of the given step
        pattern = grid_module._assemble
        calls = []

        def singular(cols, order):
            assemble = pattern(cols, order)

            def zero_row(slopes, diag):
                jac = assemble(slopes, diag)
                calls.append(1)
                if len(calls) == step:
                    jac.data[jac.indices == 0] = 0.0
                return jac

            return zero_row

        monkeypatch.setattr(grid_module, "_assemble", singular)
        with pytest.raises(NumericError, match=f"singular Newton Jacobian at step {step}") as err:
            solve(BENCH, disc_h8)
        diag = err.value.diagnostics
        assert set(diag) == FAILURE_KEYS
        assert diag["iterations"] == step - 1
        assert len(diag["residual_history"]) == step
        assert diag["residual"] == diag["residual_history"][-1]

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
        # two Newton steps cannot reach the stop residual on the lens (it
        # takes five), and there is no fallback: the solve fails with the
        # residual history
        monkeypatch.setattr(grid_module, "_step_budget", lambda grid: 2)
        g = build_grid(LENS, 1 / 16, 8)
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=PowerNorm(b=1.0, p=2.0),
            params=MODEL,
            domain=LENS,
            f=-1.0,
        )
        with pytest.raises(NumericError, match="no convergence within 2") as err:
            solve(prob, g, SolveControls(tol=1e-5))
        diag = err.value.diagnostics
        assert diag["iterations"] == 2
        # the start residual, then one per Newton step
        history = diag["residual_history"]
        assert len(history) == 1 + 2
        assert diag["residual"] == history[-1] > 2e-5

    @pytest.mark.parametrize("domain", [DISC, LENS], ids=["disc", "lens"])
    def test_non_dominant_anisotropy_solved_and_refused_by_the_upwind_form(
        self, domain
    ):
        # A = [[1, 0.6], [0.6, 0.5]] is positive definite but has no
        # diagonally dominant lattice split: the centered H_h of `solve`
        # takes it, the upwind fan form alone refuses it
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=AnisotropicPower(SymMatrix([[1.0, 0.6], [0.6, 0.5]]), p=2.0),
            params=Params(beta=2.0, b=1.4, p=2.0, M=1.0),
            domain=domain,
            f=-0.5,
        )
        grid = build_grid(domain, 1 / 16, 8)
        u, report = solve(prob, grid)
        assert report.residual_norm <= report.stop_residual
        # below the supersolution, the barrier start (measured 1.2e-4 on the
        # disc, 2.2e-5 on the lens at the closest node)
        scheme = _Scheme(prob, grid)
        assert np.all(grid_module._initial_values(prob, grid, scheme) >= u.values)
        # residual_norm and sweep (both F_A) take it too
        assert residual_norm(prob, u) == report.residual_norm
        assert np.array_equal(sweep(prob, grid, u.values, 0.0), u.values)
        with pytest.raises(UnsupportedDiscretizationError, match="anisotropy matrix"):
            scheme.fan(u.extended())


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
            arm = grid.arm_lengths[0, grid.node_index((0.5, 0.0))]  # slot 0 is (1, 0)
            assert arm == pytest.approx(eps, rel=1e-2)
            u, rep = solve(prob, grid)
            # measured: one step from the barrier, which is exact on the
            # disc up to the discretization
            assert rep.iterations <= 3
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
        u_zero, log, stop = _newton_from(prob, g, np.zeros(g.n_nodes), tol=1e-6)
        u, report = solve(prob, g, SolveControls(tol=1e-6))
        assert log.history[-1] <= stop
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
        u_zero, log, stop = _newton_from(prob, g, np.zeros(g.n_nodes))
        u, report = solve(prob, g)
        assert log.history[-1] <= stop
        # measured: within 2.6e-7, 8-11 steps from zero against 3-7
        gap = float(np.max(np.abs(u.values - u_zero)))
        assert gap <= report.stop_residual

    def test_fewer_newton_steps_on_the_disc(self):
        # measured: 3 steps from the barrier, 9 from zero
        g = build_grid(DISC, 1 / 32, 8)
        _, log, _ = _newton_from(BENCH, g, np.zeros(g.n_nodes))
        _, barrier = solve(BENCH, g)
        assert barrier.iterations < log.iterations


SWEEP_OPERATORS = [
    CoefficientLambdaN(ScalarField.constant(2.0)),
    LambdaK(1),
    LambdaK(2),
    MinMax(),
    LinearDegenerate(MatrixField.constant(np.array(LINDEG_SIGMA))),
    WeightedEigenvalues((1.0, 2.0)),
]


class TestAgainstTheUpwindScheme:
    """`solve` runs Newton on F_A alone.  The monotone upwind fan scheme,
    run to the stop by the same Newton loop (``_upwind_iterates``) from the
    same barrier, converges for every operator and gradient term the grid
    accepts, and F_A's solution lies within the fan scheme's consistency
    error of it."""

    @pytest.mark.parametrize(
        "op",
        SWEEP_OPERATORS,
        ids=["lambda-n", "lambda-1", "lambda-2", "minmax", "lindeg", "weighted"],
    )
    @pytest.mark.parametrize(
        "hamiltonian", [None, PowerNorm(b=0.0, p=2.0)], ids=["none", "b0"]
    )
    def test_no_gradient_term_agrees_with_the_upwind_solution(self, op, hamiltonian):
        # without a gradient term the two schemes differ only in the fan's
        # angular resolution (a single-slot LinearDegenerate not at all):
        # measured within 0.2 % of max u, 0 where the barrier solves both
        problem = GridProblem(op, hamiltonian, MODEL, LENS, -0.3)
        grid = build_grid(problem.domain, 1 / 12, 8)
        u, report = solve(problem, grid)
        scheme = _Scheme(problem, grid)
        start = np.append(grid_module._initial_values(problem, grid, scheme), 0.0)
        iterates, residuals = _upwind_iterates(scheme, start, report.stop_residual)
        assert np.max(np.abs(residuals[-1])) <= report.stop_residual
        gap = float(np.max(np.abs(u.values - iterates[-1][:-1])))
        assert gap <= 0.01 * float(np.max(u.values))

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
    def test_agrees_with_the_upwind_solution(self, op, ham, offset, h, f):
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
        scheme = _Scheme(problem, grid)
        start = np.append(grid_module._initial_values(problem, grid, scheme), 0.0)
        iterates, residuals = _upwind_iterates(scheme, start, report.stop_residual)
        assert np.max(np.abs(residuals[-1])) <= report.stop_residual
        # the upwind gradient term is first-order: over every draw of this
        # space the gap measured at most 0.35 h (p = 1.5 on the disc)
        assert float(np.max(np.abs(u.values - iterates[-1][:-1]))) <= h
        assert report.residual_norm <= report.stop_residual


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
        # eigenvalues agree, and so does the gradient; measured 4.9e-4 /
        # 1.2e-4 / 3.1e-5
        vals = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            g = build_grid(DISC, h, 8)
            u = oracle_on(g, model_profile)
            res = np.abs(_Scheme(BENCH, g).fan(u.extended())[0])
            vals.append(float(res[g.node_index((0.0, 0.0))]))
        assert vals[0] <= 1e-3
        assert vals[1] <= 2.5e-4
        assert vals[2] <= 6.5e-5
        assert vals[0] > vals[1] > vals[2]

    def test_global_residual_bounded(self, disc_h16, model_profile):
        # the benchmark sits exactly at the threshold radius, so u'' is
        # unbounded at the rim and the worst-node residual of the monotone
        # fan scheme (upwind H_h) does not vanish; it stays at the documented
        # boundary-layer size (measured 0.39; F_A's is 0.84 there)
        u = oracle_on(disc_h16, model_profile)
        resid = _Scheme(BENCH, disc_h16).fan(u.extended())[0]
        assert float(np.max(np.abs(resid))) <= 0.5

    def test_accurate_residual_inside_the_rim(self, model_profile):
        # more than 3h inside the rim F_A's residual on the oracle is a
        # fraction of the monotone fan's (measured 1.1e-2 / 1.7e-2 / 3.3e-2
        # against 7.0e-2 / 1.2e-1 / 2.0e-1; both grow as those nodes near
        # the rim, where u'' is unbounded).  At the center X_h is a multiple
        # of I and the gradient vanishes, so there the two are equal
        for h in (1 / 16, 1 / 32, 1 / 64):
            g = build_grid(DISC, h, 8)
            u = oracle_on(g, model_profile)
            scheme = _Scheme(BENCH, g)
            accurate = np.abs(scheme.accurate(u.extended())[0])
            fan = np.abs(scheme.fan(u.extended())[0])
            assert residual_norm(BENCH, u) == float(np.max(accurate))
            inner = np.hypot(*g.nodes_xy.T) < 1.0 - 3.0 * h
            assert np.max(accurate[inner]) <= 0.4 * np.max(fan[inner])
            center = g.node_index((0.0, 0.0))
            assert accurate[center] == fan[center]


class TestComparison:
    def test_scaled_subsolution_stays_below(self, disc_h8):
        """The explicit step u <- u + tau (F_h + H_h - f) of the monotone
        fan scheme is nondecreasing in every node value while tau times
        every diagonal slope stays below 1 in size, so it keeps two ordered
        fields ordered."""
        v, _ = solve(BENCH, disc_h8, SolveControls(tol=1e-6))
        scheme = _Scheme(BENCH, disc_h8)
        shrunk = 0.9 * v.values
        res_v = scheme.fan(v.extended())[0]
        res_u = scheme.fan(np.append(shrunk, 0.0))[0]
        # the scaled field is a strict discrete subsolution (measured 7.4e-2)
        assert float(np.min(res_u - res_v)) >= 5e-3
        # explicit step below 1 / (largest diagonal slope): per node the
        # operator's weight times its largest c0, plus the upwind H_h's sum
        # over its slots of dH/dm_k / h_arm, with dH/dm_k = 2 b c_k m_k at
        # p = 2, the shorter arm and every one-sided slope m_k at most G =
        # _gradient_scale (twice c1_bound here, where the disc is at the
        # threshold)
        ham = BENCH.hamiltonian
        assert ham.p == 2.0
        bound = _gradient_scale(BENCH.params)
        c0 = scheme.fan_arms[2]
        d_node = sum(w * c0[slots].max(axis=0) for slots, w, _ in scheme.terms)
        up_c, _, up_idx, up_inv_h = scheme.upwind_arms
        d_node = d_node + 2.0 * ham.b * bound * (up_c @ up_inv_h.max(axis=0))
        tau = 0.9 / float(np.max(d_node))

        def step(w):
            return w + tau * scheme.fan(np.append(w, 0.0))[0]

        def largest_slope(w):  # the largest one-sided slope over the slots
            return float(np.max((np.append(w, 0.0)[up_idx] - w) * up_inv_h))

        u_k, v_k = shrunk, v.values.copy()
        for _ in range(200):
            u_k, v_k = step(u_k), step(v_k)
            assert float(np.max(u_k - v_k)) <= 1e-12
            # the slope bound holds along both sequences, and so, each m_k
            # being convex, on the segment between them
            assert max(largest_slope(u_k), largest_slope(v_k)) <= bound

    def test_sweep_is_simultaneous(self, disc_h8):
        rng = np.random.default_rng(5)
        vals = rng.normal(scale=0.1, size=disc_h8.n_nodes)
        scheme = _Scheme(BENCH, disc_h8)
        tau = 1e-4
        expect = vals + tau * scheme.accurate(np.append(vals, 0.0))[0]
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
            (np.zeros, "0.1", 1, "tau"),
            (np.zeros, None, 1, "tau"),
            (np.zeros, 1e-4, -1, "steps"),
            (np.zeros, 1e-4, 2.5, "steps"),
            (np.zeros, 1e-4, "2", "steps"),
            (np.zeros, 1e-4, True, "steps"),
        ],
        ids=[
            "scalar", "long", "nan", "tau-nan", "tau-inf", "tau-neg", "tau-str",
            "tau-none", "steps-neg", "steps-float", "steps-str", "steps-bool",
        ],
    )
    def test_sweep_refuses_bad_input(self, disc_h8, values, tau, steps, match):
        with pytest.raises(ConfigError, match=match):
            sweep(BENCH, disc_h8, values(disc_h8.n_nodes), tau, steps=steps)

    def test_sweep_zero_step_returns_the_values(self, disc_h8):
        vals = np.linspace(0.0, 1.0, disc_h8.n_nodes)
        assert np.array_equal(sweep(BENCH, disc_h8, vals, 0.0, steps=20), vals)

    def test_sweep_steps_the_residual_that_solve_drives(self):
        # one residual behind every public entry: sweep steps F_A + H_h - f,
        # so it takes an A with no dominant lattice split, which the
        # monotone fan refuses, and its output does not depend on K
        prob = GridProblem(
            operator=CoefficientLambdaN(ScalarField.constant(2.0)),
            hamiltonian=AnisotropicPower(SymMatrix([[1.0, 0.6], [0.6, 0.5]]), p=2.0),
            params=Params(beta=2.0, b=1.4, p=2.0, M=1.0),
            domain=LENS,
            f=-0.5,
        )
        tau, outputs = 1e-3, []
        for K in (8, 16):
            grid = build_grid(LENS, 1 / 16, K)
            vals = np.random.default_rng(4).normal(scale=0.1, size=grid.n_nodes)
            v_ext = np.append(vals, 0.0)
            scheme = _Scheme(prob, grid)
            outputs.append(sweep(prob, grid, vals, tau, 1))
            expect = vals + tau * scheme.accurate(v_ext)[0]
            assert np.array_equal(outputs[-1], expect)
            with pytest.raises(UnsupportedDiscretizationError, match="anisotropy matrix"):
                scheme.fan(v_ext)
        assert np.array_equal(outputs[0], outputs[1])

    @JACOBIAN_OPERATORS
    @JACOBIAN_HAMILTONIANS
    def test_sweep_is_accurate_steps(self, operator, ham):
        # for every operator and gradient term, sweep's steps are explicit
        # steps of ``accurate``'s residual, bit for bit, on a lens with cut
        # cells
        params = Params(beta=1.0, b=4.0, p=ham.p, M=1.0)
        prob = GridProblem(operator, ham, params, LENS, -0.1)
        grid = build_grid(LENS, 1 / 8, 8)
        scheme = _Scheme(prob, grid)
        vals = np.random.default_rng(9).normal(scale=0.03, size=grid.n_nodes)
        tau, expect = 1e-4, vals.copy()
        for steps in (1, 2, 3):
            expect = expect + tau * scheme.accurate(np.append(expect, 0.0))[0]
            assert np.array_equal(sweep(prob, grid, vals, tau, steps), expect)


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
        assert report.iterations > 0
        assert f"residual_norm: {report.residual_norm:.17g}" in text
        assert "wall_time_s:" in text
        # perfbench's solve check parses residual_norm and stop_residual
        assert [line.split(": ", 1)[0] for line in text.splitlines()] == [
            "iterations",
            "residual_norm",
            "stop_residual",
            "wall_time_s",
        ]
