import math

import numpy as np
import pytest

from degelliptic.barriers import (
    BarrierField,
    barrier_to_csv,
    build_subsolution,
    build_supersolution,
    evaluate_barrier,
    sample_boundary,
)
from degelliptic.errors import (
    ConfigError,
    DomainViolationError,
    ThresholdError,
)
from degelliptic.model import ConvexDomain, Params
from degelliptic.radial import radial_profile

MODEL = Params(beta=2.0, b=1.0, p=2.0, M=1.0)
SUB = Params(beta=1.0, b=1.0, p=0.5, M=1.0)
U_AT_03 = 0.28409176321546721680  # model-case radial solution at r = 0.3

LENS = ConvexDomain(radius=1.0, centers=((-0.3, 0.0), (0.3, 0.0)))
DISC = ConvexDomain(radius=1.0, centers=((0.0, 0.0),))


@pytest.fixture(scope="module")
def lens_super():
    return build_supersolution(LENS, MODEL, M=1.0)


@pytest.fixture(scope="module")
def lens_sub():
    return build_subsolution(LENS, MODEL, K=2.0 * MODEL.beta)


@pytest.fixture(scope="module")
def interior_points():
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 100:
        cand = rng.uniform(-0.8, 0.8, size=(64, 2))
        pts.extend(cand[LENS.contains(cand)].tolist())
    return np.asarray(pts[:100])


class TestSupersolution:
    def test_two_center_value(self, lens_super):
        # both centers are 0.3 away from the origin
        assert evaluate_barrier(lens_super, [0.0, 0.0]) == pytest.approx(
            U_AT_03, abs=1e-9
        )

    def test_single_center_equals_profile(self, lens_super):
        disc_super = build_supersolution(DISC, MODEL, M=1.0)
        prof = radial_profile("FirstZeroSuperlinear", 1.0, MODEL, node_count=4096)
        for i in (5, 100, 1000):
            r = prof.r_grid[i]
            assert evaluate_barrier(disc_super, [r, 0.0]) == pytest.approx(
                prof.u_values[i], abs=1e-12
            )

    def test_matches_closed_form_off_nodes(self):
        # model-case first-zero solution u(r) = w - log(1 + w), w = sqrt(1 - r^2)
        disc_super = build_supersolution(DISC, MODEL, M=1.0)
        r = np.random.default_rng(5).uniform(0.0, 1.0, 2000)
        w = np.sqrt(1.0 - r**2)
        got = evaluate_barrier(disc_super, np.stack([r, np.zeros_like(r)], axis=1))
        assert np.max(np.abs(got - (w - np.log1p(w)))) <= 1e-13
        assert evaluate_barrier(disc_super, [0.0, 0.0]) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-15
        )

    def test_zero_forcing_gives_zero_field(self):
        field = build_supersolution(LENS, MODEL, M=0.0)
        assert evaluate_barrier(field, [0.1, 0.2]) == 0.0
        assert field.lipschitz_bound == 0.0

    def test_threshold_error_names_both_radii(self):
        big = ConvexDomain(radius=1.25, centers=((0.0, 0.0),))
        with pytest.raises(ThresholdError) as exc:
            build_supersolution(big, MODEL, M=1.0)
        assert "1.25" in str(exc.value) and "1" in str(exc.value)

    def test_positive_inside(self, lens_super, interior_points):
        vals = evaluate_barrier(lens_super, interior_points)
        assert np.all(vals > 0.0)

    def test_sublinear_build(self):
        field = build_supersolution(LENS, SUB, M=2.0)
        assert evaluate_barrier(field, [0.0, 0.0]) > 0.0
        pts = sample_boundary(LENS, 128)
        assert np.max(np.abs(evaluate_barrier(field, pts))) <= 1e-9

    def test_rejects_negative_m(self):
        with pytest.raises(ConfigError):
            build_supersolution(LENS, MODEL, M=-1.0)


class TestSubsolution:
    def test_two_center_value(self, lens_sub):
        assert evaluate_barrier(lens_sub, [0.0, 0.0]) == pytest.approx(-0.91, abs=1e-14)

    def test_single_center_scaling(self):
        field = build_subsolution(DISC, MODEL, K=2.0 * MODEL.beta)
        assert evaluate_barrier(field, [0.0, 0.0]) == pytest.approx(-1.0)

    def test_zero_coefficient(self):
        field = build_subsolution(LENS, MODEL, K=0.0)
        assert evaluate_barrier(field, [0.3, 0.1]) == 0.0

    def test_convex_along_segments(self, lens_sub, interior_points):
        rng = np.random.default_rng(3)
        for _ in range(60):
            a, b = interior_points[rng.integers(0, 100, 2)]
            mid = 0.5 * (a + b)
            va, vb = evaluate_barrier(lens_sub, a), evaluate_barrier(lens_sub, b)
            assert evaluate_barrier(lens_sub, mid) <= 0.5 * (va + vb) + 1e-12

    def test_lipschitz_property(self, lens_sub):
        assert lens_sub.lipschitz_bound == pytest.approx(
            lens_sub.forcing_norm * 1.0 / MODEL.beta
        )


class TestEvaluate:
    def test_boundary_condition(self, lens_super, lens_sub):
        pts = sample_boundary(LENS, 512)
        assert np.max(np.abs(evaluate_barrier(lens_super, pts))) <= 1e-9
        assert np.max(np.abs(evaluate_barrier(lens_sub, pts))) <= 1e-12

    def test_outside_closure_rejected(self, lens_super):
        with pytest.raises(DomainViolationError):
            evaluate_barrier(lens_super, [0.8, 0.0])  # 1.1 from the far center

    def test_ordering(self, lens_super, lens_sub, interior_points):
        up = evaluate_barrier(lens_super, interior_points)
        dn = evaluate_barrier(lens_sub, interior_points)
        assert np.all(dn <= 0.0) and np.all(up >= 0.0)

    def test_batch_shape(self, lens_super):
        out = evaluate_barrier(lens_super, np.zeros((7, 2)))
        assert out.shape == (7,)
        assert isinstance(evaluate_barrier(lens_super, [0.0, 0.0]), float)


class TestFieldProperties:
    def test_lipschitz_sampled(self, lens_super, interior_points):
        rng = np.random.default_rng(7)
        bound = lens_super.lipschitz_bound
        assert bound == pytest.approx(2.0)  # c1_bound of the model profile
        for _ in range(200):
            a, b = interior_points[rng.integers(0, 100, 2)]
            d = float(np.linalg.norm(a - b))
            if d < 1e-12:
                continue
            va, vb = evaluate_barrier(lens_super, a), evaluate_barrier(lens_super, b)
            assert abs(va - vb) <= bound * d * (1.0 + 1e-9)

    def test_concave_along_segments(self, lens_super, interior_points):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a, b = interior_points[rng.integers(0, 100, 2)]
            mid = 0.5 * (a + b)
            va, vb = evaluate_barrier(lens_super, a), evaluate_barrier(lens_super, b)
            assert evaluate_barrier(lens_super, mid) >= 0.5 * (va + vb) - 1e-9

    def test_center_set_monotonicity(self, lens_super, lens_sub, interior_points):
        tri = ConvexDomain(radius=1.0, centers=((-0.3, 0.0), (0.3, 0.0), (0.0, 0.3)))
        sup3 = build_supersolution(tri, MODEL, M=1.0)
        sub3 = build_subsolution(tri, MODEL, K=2.0 * MODEL.beta)
        pts = interior_points[tri.contains(interior_points)]
        assert np.all(
            evaluate_barrier(sup3, pts) <= evaluate_barrier(lens_super, pts) + 1e-12
        )
        assert np.all(
            evaluate_barrier(sub3, pts) >= evaluate_barrier(lens_sub, pts) - 1e-12
        )


class TestBoundarySampling:
    def test_points_lie_on_boundary(self):
        pts = sample_boundary(LENS, 512)
        assert pts.shape[0] >= 512
        d = LENS.max_center_distance(pts)
        assert np.max(np.abs(d - 1.0)) <= 1e-12

    def test_deterministic(self):
        a = sample_boundary(LENS, 256)
        b = sample_boundary(LENS, 256)
        assert np.array_equal(a, b)

    def test_disc_full_circle(self):
        pts = sample_boundary(DISC, 256)
        assert pts.shape[0] == 256

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            sample_boundary(LENS, 0)
        d3 = ConvexDomain(radius=1.0, centers=((0.0, 0.0, 0.0),))
        with pytest.raises(ConfigError):
            sample_boundary(d3, 16)


class TestCsv:
    def test_lattice_export(self, lens_super, tmp_path):
        path = tmp_path / "barrier.csv"
        barrier_to_csv(lens_super, path, resolution=24)
        assert b"\r" not in path.read_bytes()
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# kind=Super")
        assert lines[1] == "x,y,value"
        xs, ys, vs = np.loadtxt(
            lines[2:], delimiter=",", unpack=True, dtype=float
        )
        pts = np.stack([xs, ys], axis=1)
        assert np.allclose(evaluate_barrier(lens_super, pts), vs, atol=1e-15)

    @pytest.mark.parametrize("resolution", [0, 1, 2])
    def test_lattice_missing_the_domain_refused(self, tmp_path, resolution):
        # these lattices hold at most the corners of the bounding box, all
        # outside the disc
        field = build_supersolution(DISC, MODEL, 0.5)
        path = tmp_path / "barrier.csv"
        with pytest.raises(ConfigError, match="no lattice point inside"):
            barrier_to_csv(field, path, resolution=resolution)
        assert not path.exists()

    @pytest.mark.parametrize("resolution", [-1, 8.0, True], ids=["negative", "float", "bool"])
    def test_resolution_not_a_count_refused(self, tmp_path, resolution):
        # refused before any sampling, so no file is written; True counts as
        # the integer 1, whose lattice holds only a corner of the box
        field = build_supersolution(DISC, MODEL, 0.5)
        path = tmp_path / "barrier.csv"
        with pytest.raises(ConfigError):
            barrier_to_csv(field, path, resolution=resolution)
        assert not path.exists()
