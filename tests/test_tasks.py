"""Task suite: ground truths, analytic-oracle cross-checks, plateau certification."""

import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothdiff.estimators import (
    EstimationError,
    EstimatorConfig,
    Objective,
    SamplingMode,
    estimate_gradient,
    estimate_gradient_fd,
)
from smoothdiff.kernels import KernelSpec
from smoothdiff.samplers import RngStream
from reference import per_pixel_phong_loss, rasterized_box_loss
from smoothdiff.tasks import (
    BOX_SIDE,
    PHONG_TRUE,
    RasterScene,
    _PhongScene,
    box_task,
    make_task,
    negated_gaussian_task,
    phong_sphere_task,
    quad_task,
    texture_task,
)


def fd_grad(fn, theta, step):
    g = np.empty(len(theta))
    for i in range(len(theta)):
        e = np.zeros(len(theta))
        e[i] = step
        g[i] = (fn(theta + e) - fn(theta - e)) / (2 * step)
    return g


class TestQuad:
    def test_values(self):
        task = quad_task()
        assert task.fn(np.zeros(2)) == 0.0
        assert task.fn(np.array([1.0, 1.0])) == 17.5

    def test_hessian_eigenvalues(self):
        task = quad_task()
        lam = np.linalg.eigvalsh(task.smoothed_hess(np.zeros(2), 0.0))
        assert_allclose(sorted(lam), [2.5, 17.5], rtol=1e-12)

    def test_analytic_grad_matches_fd(self):
        task = quad_task()
        rng = np.random.default_rng(0)
        for _ in range(5):
            th = rng.uniform(-2, 2, size=2)
            assert np.abs(task.smoothed_grad(th, 0.0) - fd_grad(task.fn, th, 1e-6)).max() < 1e-5


class TestNegatedGaussian:
    def test_global_minimum_at_origin(self):
        task = negated_gaussian_task(1.0)
        f0 = task.fn(np.zeros(2))
        rng = np.random.default_rng(1)
        assert all(task.fn(rng.uniform(-3, 3, size=2)) >= f0 for _ in range(50))

    def test_analytic_grad_matches_fd(self):
        task = negated_gaussian_task(1.0)
        rng = np.random.default_rng(2)
        for _ in range(5):
            th = rng.uniform(-2.5, 2.5, size=2)
            assert np.abs(task.smoothed_grad(th, 0.0) - fd_grad(task.fn, th, 1e-6)).max() < 1e-5

    def test_smoothed_oracles_match_fd_of_convolved_gaussian(self):
        # the convolution of the two Gaussians is a third Gaussian of
        # scale sqrt(s1^2 + s2^2); differentiate that directly
        s1, s2 = 1.0, 0.7
        task = negated_gaussian_task(s1)
        s3sq = s1 * s1 + s2 * s2

        def smoothed_value(th):
            return -math.exp(-float(th @ th) / (2 * s3sq)) / (2 * math.pi * s3sq)

        th = np.array([0.7, -0.4])
        assert np.abs(task.smoothed_grad(th, s2) - fd_grad(smoothed_value, th, 1e-6)).max() < 1e-8
        h_fd = np.empty((2, 2))
        eye = np.eye(2) * 1e-4
        for a in range(2):
            for b in range(2):
                h_fd[a, b] = (smoothed_value(th + eye[a] + eye[b]) - smoothed_value(th + eye[a] - eye[b])
                              - smoothed_value(th - eye[a] + eye[b]) + smoothed_value(th - eye[a] - eye[b])) / (4e-8)
        assert np.abs(task.smoothed_hess(th, s2) - h_fd).max() < 1e-6

    def test_hessian_indefinite_away_from_origin(self):
        task = negated_gaussian_task(1.0)
        lam = np.linalg.eigvalsh(task.smoothed_hess(np.array([1.5, 1.5]), 0.0))
        assert lam.min() < 0 < lam.max() or lam.max() < 0

    def test_init_sampler_in_interval(self):
        task = negated_gaussian_task(1.0)
        gen = np.random.default_rng(3)
        pts = np.array([task.init_sampler(gen) for _ in range(100)])
        assert pts.min() >= -3.0 and pts.max() <= 3.0


@pytest.mark.parametrize("build", [quad_task, negated_gaussian_task], ids=["quad", "neg_gauss"])
def test_zero_bandwidth_hessian_matches_fd_of_the_loss(build):
    # sigma = 0 gives the plain derivatives: the second differences of fn
    task = build()
    th = np.array([0.6, -0.9])
    eye = np.eye(2) * 1e-3
    h_fd = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            h_fd[a, b] = (task.fn(th + eye[a] + eye[b]) - task.fn(th + eye[a] - eye[b])
                          - task.fn(th - eye[a] + eye[b]) + task.fn(th - eye[a] - eye[b])) / 4e-6
    assert np.abs(task.smoothed_hess(th, 0.0) - h_fd).max() < 1e-5


class TestRasterScene:
    def test_render_values_in_unit_interval(self):
        scene = RasterScene(width=64, height=64, box_half=1 / 16)
        img = scene.render(np.array([[0.5, 0.5], [0.52, 0.5]]))
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_render_deterministic(self):
        scene = RasterScene(width=64, height=64, box_half=1 / 16)
        centers = np.array([[0.37, 0.61]])
        assert np.array_equal(scene.render(centers), scene.render(centers))

    def test_coverage_conserves_area(self):
        scene = RasterScene(width=64, height=64, box_half=1 / 16)
        img = scene.render(np.array([[0.4371, 0.2159]]))
        assert img.sum() == pytest.approx(64, rel=1e-12)  # 8x8 px footprint


def box_probe_points(task, count, seed):
    """In-canvas, overlapping, off-canvas and near-truth parameter vectors."""
    rng = np.random.default_rng(seed)
    n = task.dim
    quarter = count // 4
    pts = [rng.uniform(0.0, 1.0, n) for _ in range(quarter)]
    # every square partly overlapping its own target
    pts += [task.theta_true + rng.uniform(-1.5, 1.5, n) * BOX_SIDE for _ in range(quarter)]
    # past the visibility clamp on some or all coordinates
    pts += [rng.uniform(-1.0, 2.0, n) for _ in range(quarter)]
    pts += [task.theta_true + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(n)
            for _ in range(count - 3 * quarter)]
    return pts


def reference_axis_coverage(centers, npix, box_half):
    """``RasterScene.axis_coverage`` as first written in separable form, on ``npix``."""
    centers = np.asarray(centers, dtype=float)[..., None]
    counts = np.asarray(npix, dtype=float)[..., None]
    cells = np.arange(int(counts.max()), dtype=float)
    lo = (centers - box_half) * counts
    hi = np.minimum((centers + box_half) * counts, counts)
    return np.clip(np.minimum(hi, cells + 1.0) - np.maximum(lo, cells), 0.0, 1.0)


def reference_box_loss(task, resolution, th):
    """``box_task``'s loss as first written in separable form, all in numpy.

    The task's loss must equal it bit for bit: its per-call constants and
    batched arithmetic change the cost, not the rounding.
    """
    w, h = resolution
    half = BOX_SIDE / 2.0
    npix = np.tile([float(w), float(h)], task.dim // 2)
    ref = reference_axis_coverage(task.theta_true, npix, half)
    ref_sq = np.einsum("ij,ij->i", ref, ref)
    centers = np.clip(np.asarray(th, dtype=float), half, 1.0 - half)
    d = reference_axis_coverage(centers, npix, half) - ref
    d_sq = np.einsum("ij,ij->i", d, d)
    d_ref = np.einsum("ij,ij->i", d, ref)
    dx_sq, dy_sq = d_sq[0::2], d_sq[1::2]
    dx_ref, dy_ref = d_ref[0::2], d_ref[1::2]
    rx_sq, ry_sq = ref_sq[0::2], ref_sq[1::2]
    ax_sq = rx_sq + 2.0 * dx_ref + dx_sq
    ax_dx = dx_ref + dx_sq
    per_box = dy_sq * ax_sq + 2.0 * dy_ref * ax_dx + ry_sq * dx_sq
    return float(per_box.sum()) / ((w * BOX_SIDE) * (h * BOX_SIDE))


class TestBoxTask:
    @pytest.mark.parametrize("boxes", range(1, 9))
    @pytest.mark.parametrize("resolution", [(64, 64), (48, 32), (40, 56)], ids=str)
    def test_loss_equals_reference_bit_for_bit(self, boxes, resolution):
        task = box_task(boxes, resolution=resolution)
        pts = box_probe_points(task, 200, seed=15 + boxes) + task.plateau_points
        for p in pts:
            assert task.fn(p) == reference_box_loss(task, resolution, p), p

    @pytest.mark.parametrize("npix", [64, 48, [40.0, 56.0, 40.0]], ids=str)
    def test_axis_coverage_equals_reference_bit_for_bit(self, npix):
        scene = RasterScene(width=64, height=64, box_half=BOX_SIDE / 2.0)
        centers = np.random.default_rng(16).uniform(-1.0, 2.0, (200, 3))
        centers[0] = [-np.inf, np.inf, 0.5]
        for c in list(centers) + list(centers[:, 0]):
            want = reference_axis_coverage(c, npix, scene.box_half)
            assert np.array_equal(scene.axis_coverage(c, scene.axis_grid(npix)), want)

    @pytest.mark.parametrize("boxes,resolution", [(5, (64, 64)), (2, (48, 32))],
                             ids=["box10", "box4-48x32"])
    def test_separable_loss_matches_rasterized(self, boxes, resolution):
        task = box_task(boxes, resolution=resolution)
        for p in box_probe_points(task, 1000, seed=11):
            want = rasterized_box_loss(task.theta_true, resolution, p)
            assert abs(task.fn(p) - want) <= 1e-12 * max(1.0, want), p

    def test_loss_never_negative(self):
        task = box_task(5)
        pts = box_probe_points(task, 400, seed=12)
        rng = np.random.default_rng(13)
        pts += [task.theta_true + 10.0 ** rng.uniform(-15, -9) * rng.standard_normal(10)
                for _ in range(200)]
        assert min(task.fn(p) for p in pts) >= 0.0

    def test_zero_loss_at_truth(self):
        for boxes in (1, 5):
            task = box_task(boxes)
            assert task.fn(task.theta_true) == 0.0

    def test_disjoint_same_phase_placements_equal_loss(self):
        # integer-pixel translations of a stray square: identical coverage
        # multiset, so the loss ties exactly
        task = box_task(1)
        a = np.array([10.5 / 64, 10.5 / 64])
        b = np.array([30.5 / 64, 10.5 / 64])
        assert task.fn(a) == task.fn(b)

    def test_off_canvas_parameters_legal_plateau(self):
        task = box_task(1)
        inside_clamped = task.fn(np.array([2.0, 2.0]))
        assert inside_clamped > 0.0
        assert task.fn(np.array([2.0, 2.0])) == task.fn(np.array([2.1, 2.3]))

    def test_plateau_certification(self):
        """Published plateau points: FD exactly zero, smoothed pull nonzero."""
        task = box_task(1)
        assert len(task.plateau_points) == 20
        for p in task.plateau_points:
            fd = estimate_gradient_fd(task.objective(), p, step=1e-6).g
            assert np.all(fd == 0.0)
        for k, p in enumerate(task.plateau_points[:4]):
            cfg = EstimatorConfig(spec=KernelSpec(sigma=1.5, dim=2), samples=3000,
                                  mode=SamplingMode.AGGREGATE)
            g = estimate_gradient(task.objective(), p, cfg, RngStream(700, k)).g
            assert np.linalg.norm(g) > 1e-4
            # descending the smoothed loss moves toward the target
            assert float(-g @ (task.theta_true - p)) > 0.0

    def test_box10_dimensions(self):
        task = box_task(5)
        assert task.dim == 10

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            box_task(1, resolution=(16, 16))
        with pytest.raises(ValueError):
            box_task(0)

    @pytest.mark.parametrize("boxes", range(1, 9))
    def test_plateau_points_equal_the_per_box_loop(self, boxes):
        # the points as first written, one box at a time, are the reference
        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        points = box_task(boxes).plateau_points
        assert len(points) == 20
        for k, theta in enumerate(points):
            want = np.empty(2 * boxes)
            for b in range(boxes):
                reach = 0.48 + 0.28 * ((k * 7 + b * 3) % 5) / 4.0
                want[2 * b: 2 * b + 2] = 0.5 + corners[(k + b) % 4] * reach
            assert theta.shape == want.shape and np.array_equal(theta, want)


class TestTextureTask:
    def test_loss_equals_reference_bit_for_bit(self):
        # the loss as first written, clip and all, is the reference
        task = texture_task(16)
        rng = np.random.default_rng(17)
        n = task.dim
        pts = [rng.uniform(0.0, 1.0, n) for _ in range(100)]
        pts += [rng.uniform(-1.0, 2.0, n) for _ in range(100)]
        pts += [task.theta_true + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(n)
                for _ in range(100)]
        pts += [np.zeros(n), np.full(n, -0.0), np.ones(n), task.theta_true]
        for p in pts:
            t = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
            d = t - task.theta_true
            assert task.fn(p) == float(d @ d / n)

    def test_zero_at_reference(self):
        task = texture_task(8)
        assert task.fn(task.theta_true) == 0.0

    def test_default_side(self):
        assert texture_task().dim == 256


def reference_phong_loss(th):
    """``phong_sphere_task``'s loss as first written in separable form."""
    scene = _PhongScene(32)
    lit = scene.spec_base > 0.0

    def image(p):
        p = np.asarray(p, dtype=float)
        spec = np.zeros_like(scene.spec_base)
        spec[lit] = scene.spec_base[lit] ** max(float(p[6]) * 10.0, 1e-3)
        return np.outer(p[0:3], scene.diffuse) + np.outer(p[3:6], spec)

    diff = image(th) - image(PHONG_TRUE)
    return float(np.einsum("ij,ij->", diff, diff)) / (3.0 * scene.total_pixels)


class TestPhongTask:
    def test_loss_equals_reference_bit_for_bit(self):
        task = phong_sphere_task()
        rng = np.random.default_rng(18)
        pts = [task.init_sampler(rng) for _ in range(100)]
        pts += [rng.uniform(-1.0, 2.0, 7) for _ in range(100)]
        pts += [task.theta_true + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(7)
                for _ in range(100)]
        # shininess at, just below and far below the exponent floor
        for s in (1e-4, 5e-5, 0.0, -0.0, -1.0, -1e300):
            pts.append(np.append(rng.uniform(0.0, 1.0, 6), s))
        for p in pts:
            assert task.fn(p) == reference_phong_loss(p), p

    def test_zero_at_truth(self):
        task = phong_sphere_task()
        assert task.fn(task.theta_true) == 0.0

    def test_loss_matches_per_pixel_shading(self):
        task = phong_sphere_task()
        rng = np.random.default_rng(14)
        pts = [task.init_sampler(rng) for _ in range(100)]
        pts += [task.theta_true + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(7)
                for _ in range(50)]
        pts.append(np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, -1.0]))  # clamped exponent
        for p in pts:
            want = per_pixel_phong_loss(p)
            assert abs(task.fn(p) - want) <= 1e-12 * max(1.0, want), p

    def test_shininess_clamp(self):
        task = phong_sphere_task()
        th = task.theta_true.copy()
        th[6] = -2.0
        assert math.isfinite(task.fn(th))

    def test_global_minimum_at_truth(self):
        task = phong_sphere_task()
        rng = np.random.default_rng(7)
        f0 = task.fn(task.theta_true)
        assert all(task.fn(task.init_sampler(rng)) >= f0 for _ in range(25))


BATCH_SIZES = (1, 2, 8, 31, 32, 33, 112, 512)


def batch_of(pool, m, seed):
    """m rows cycling through ``pool`` in a seeded order: every pool point once m >= len(pool)."""
    pool = np.array(pool, dtype=float)
    return np.resize(pool[np.random.default_rng(seed).permutation(len(pool))], (m, pool.shape[1]))


def texture_reference_loss(task, th):
    """``texture_task``'s loss as first written, clip and all."""
    d = np.clip(np.asarray(th, dtype=float), 0.0, 1.0) - task.theta_true
    return float(d @ d / task.dim)


def reference_rows(name):
    """The task, its reference single-point loss and a pool of probe points."""
    rng = np.random.default_rng(19)
    if name.startswith("box"):
        # box16, unregistered, sums 8 box terms pairwise
        task = box_task(int(name.removeprefix("box")) // 2)
        pool = box_probe_points(task, 200, seed=20) + task.plateau_points
        return task, partial(reference_box_loss, task, (64, 64)), pool
    task = make_task(name)
    if name in ("quad", "neg_gauss"):
        # the one-point loss is the reference; quad overflows to inf at +-1e160
        pool = [rng.uniform(-3.0, 3.0, 2) for _ in range(100)]
        pool += [10.0 ** rng.uniform(-9, 2) * rng.standard_normal(2) for _ in range(100)]
        pool += [np.zeros(2), np.full(2, -0.0), np.array([0.0, -0.0]), np.full(2, 1e160),
                 np.full(2, -1e160), np.array([1e160, 0.0]), np.array([-0.0, -1e160])]
        return task, task.fn, pool
    if name == "phong":
        pool = [task.init_sampler(rng) for _ in range(100)]
        pool += [rng.uniform(-1.0, 2.0, 7) for _ in range(100)]
        pool += [task.theta_true + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(7)
                 for _ in range(100)]
        # shininess at and below the exponent floor, and past the clamp of its scaling
        for s in (1e-4, 0.0, -0.0, -1e300, 1e301, 1e308, -1e308):
            pool.append(np.append(rng.uniform(0.0, 1.0, 6), s))
        return task, reference_phong_loss, pool
    pool = [rng.uniform(-1.0, 2.0, task.dim) for _ in range(100)]
    pool += [task.theta_true + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(task.dim)
             for _ in range(100)]
    pool += [np.zeros(task.dim), np.full(task.dim, -0.0), np.ones(task.dim), task.theta_true]
    return task, partial(texture_reference_loss, task), pool


class TestBatchedRows:
    """``fn.rows`` gives each row's reference loss, at every batch size and block boundary."""

    @pytest.fixture(scope="class", params=["box2", "box10", "box16", "phong", "texture16",
                                           "quad", "neg_gauss"])
    def case(self, request):
        task, reference, pool = reference_rows(request.param)
        return task, pool, {tuple(p): reference(p) for p in pool}

    @pytest.mark.parametrize("m", BATCH_SIZES)
    def test_rows_equal_reference_bit_for_bit(self, case, m):
        task, pool, want = case
        points = batch_of(pool, m, seed=m)
        got = task.fn.rows(points)
        assert got.shape == (m,)
        assert np.array_equal(got, [want[tuple(p)] for p in points])

    @pytest.mark.parametrize("m", BATCH_SIZES)
    def test_nan_row_is_nan_in_its_own_row_only(self, case, m):
        task, pool, want = case
        points = batch_of(pool, m, seed=m + 1)
        k = m // 3
        points[k, 5 * m % task.dim] = np.nan  # phong's shininess at m = 32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = task.fn.rows(points)
        assert np.array_equal(np.isnan(got), np.arange(m) == k)

    @pytest.mark.parametrize("m", BATCH_SIZES)
    def test_rows_leave_their_points_bit_unchanged(self, case, m):
        task, pool, _ = case
        points = batch_of(pool, m, seed=m + 2)
        before = points.copy()
        task.fn.rows(points)
        assert np.array_equal(points.view(np.int64), before.view(np.int64))


def phong_block_probe_points():
    """Phong points past the shared pool: negative colors, signed zeros, magnitudes up to 1e100.

    Past 1e100 a color's image entries can overflow in ``img +=``, which warns.
    """
    rng = np.random.default_rng(22)
    pts = [np.append(rng.uniform(-2.0, 0.0, 6), rng.uniform(-1.0, 1.0)) for _ in range(12)]
    pts += [rng.choice([0.0, -0.0], 7) for _ in range(8)]
    pts += [np.append(rng.choice([0.0, -0.0, 0.5, -0.5], 6), rng.uniform(0.05, 0.5))
            for _ in range(8)]
    pts += [rng.choice([-1.0, 1.0], 7) * 10.0 ** rng.uniform(-300, 100, 7) for _ in range(12)]
    pts += [np.full(7, 1e100), np.full(7, -1e100)]
    return pts


@pytest.mark.parametrize("name,setting,value",
                         [("phong", "_PHONG_BLOCK", rows) for rows in (1, 3, 8, 13)]
                         + [("texture16", "_TEXTURE_BLOCK_BYTES", kib << 10) for kib in (2, 64, 256)],
                         ids=str)
def test_a_loss_block_size_never_moves_a_rows_bits(monkeypatch, name, setting, value):
    default, _, pool = reference_rows(name)
    points = batch_of(pool, 112, seed=24)
    if name == "phong":
        own = phong_block_probe_points()
        points[:len(own)] = own
        points = points[np.random.default_rng(25).permutation(len(points))]
    monkeypatch.setattr(f"smoothdiff.tasks.{setting}", value)
    task = make_task(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = task.fn.rows(points), default.fn.rows(points)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name,bad", [("quad", [1e160, -1e160]), ("quad", [1e160, 0.0]),
                                      ("neg_gauss", [np.nan, 0.0])], ids=str)
def test_analytic_objective_counts_every_row_before_it_names_the_bad_one(name, bad):
    obj = Objective(make_task(name).fn, 2)
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (8, 2))
    points[5] = bad
    with pytest.raises(EstimationError) as info:
        obj.evaluate_rows(points)
    assert obj.eval_count == 8
    assert np.array_equal(info.value.point, points[5], equal_nan=True)
    assert info.value.point is not points[5] and not np.shares_memory(info.value.point, points)


def test_texture_rows_work_in_a_block_not_a_copy_of_the_batch():
    # a per-element texture16 estimate's batch; a whole-batch working copy
    # kept the heap growing and trimming, so every call faulted fresh pages
    task = make_task("texture16")
    points = np.random.default_rng(4).uniform(-0.5, 1.5, (512, task.dim))
    tracemalloc.start()
    try:
        task.fn.rows(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * points.nbytes


@pytest.mark.parametrize("build,message", [
    (partial(negated_gaussian_task, 0.0), "sigma1 must be > 0, got 0.0"),
    (partial(negated_gaussian_task, -1.0), "sigma1 must be > 0, got -1.0"),
    (partial(texture_task, 3), "side must be >= 4, got 3"),
], ids=["neg_gauss_sigma0", "neg_gauss_sigma-1", "texture3"])
def test_builders_reject_out_of_range_arguments(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestMakeTask:
    @pytest.mark.parametrize("name,dim", [("quad", 2), ("neg_gauss", 2), ("box2", 2),
                                          ("box10", 10), ("texture8", 64), ("phong", 7)])
    def test_registry(self, name, dim):
        assert make_task(name).dim == dim

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_task("nope")


def test_objective_determinism_across_tasks():
    rng = np.random.default_rng(10)
    for name in ("quad", "neg_gauss", "box2", "texture8", "phong"):
        task = make_task(name)
        th = task.init_sampler(rng)
        assert task.fn(th) == task.fn(th.copy())
