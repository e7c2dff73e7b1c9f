"""Sampler fidelity: distribution tests, density bookkeeping, determinism.

Samplers return offsets with each row's density ratio q = pdf / N, which
must equal ``element_density_ratios`` of the returned rows (the mixture
mean for the aggregate sampler).  The density an estimator weights by is
those ratios times the Gaussian, which the bookkeeping tests check against
the reference densities ``element_pdf`` / ``mixture_pdf``.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from smoothdiff.kernels import (
    ElementKind,
    ElementSet,
    KernelElement,
    KernelSpec,
    gaussian_cdf_1d,
    gaussian_pdf,
    gradient_cdf,
    gradient_elements,
    gradient_inverse_cdf,
    gradient_pdf,
    hessian_diag_cdf,
    hessian_elements,
)
from smoothdiff.samplers import (
    RngStream,
    TabulatedInverseCdf,
    build_hessian_diag_table,
    default_hessian_diag_table,
    element_density_ratios,
    element_pdf,
    mixture_pdf,
    open_unit,
    sample_aggregate_offsets,
    sample_gradient_offsets,
    sample_hessian_offsets,
)

SIGNIFICANCE = 0.001  # chi^2 / KS pass at significance 0.999 means p > 0.001


def chi2_pvalue(draws, cdf, lo, hi, bins=100):
    edges = np.concatenate([[-np.inf], np.linspace(lo, hi, bins - 1), [np.inf]])
    counts, _ = np.histogram(draws, bins=edges)
    probs = np.diff(cdf(edges))
    keep = probs * len(draws) >= 5
    res = stats.chisquare(counts[keep], probs[keep] / probs[keep].sum() * counts[keep].sum())
    return res.pvalue


def densities(taus, elements, spec):
    """Per-element densities from the ratios the estimators weight by, shape (S, K)."""
    gauss = np.array([gaussian_pdf(t, spec) for t in taus])
    return element_density_ratios(taus, elements, spec.sigma) * gauss[:, None]


class TestRngStream:
    def test_bit_exact_replay(self):
        a = RngStream(123, 7).normal(100)
        b = RngStream(123, 7).normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).normal(100)
        b = RngStream(123, 1).normal(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64])
    def test_numpy_integer_address_draws_as_its_int(self, kind):
        assert np.array_equal(RngStream(kind(3), kind(5)).normal(10), RngStream(3, 5).normal(10))
        assert np.array_equal(RngStream(np.int64(-1)).normal(10), RngStream(-1).normal(10))

    def test_addresses_near_word_edges_draw_distinct_streams(self):
        # SeedSequence([seed, stream_id]) pads both to the same words for
        # (2**32, 0) and (0, 1), among six colliding pairs of these
        edges = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        firsts = {(seed, stream_id): tuple(RngStream(seed, stream_id).uniform(4))
                  for seed in edges for stream_id in edges}
        assert len(set(firsts.values())) == len(firsts) == 64
        assert firsts[2**32, 0] != firsts[0, 1]

    def test_negative_address_draws_modulo_two_to_the_64(self):
        assert np.array_equal(RngStream(-1).uniform(4), RngStream(2**64 - 1).uniform(4))
        assert np.array_equal(RngStream(0, -1).uniform(4), RngStream(0, 2**64 - 1).uniform(4))

    def test_known_first_draws(self):
        # pins the bit generator and the address encoding
        assert RngStream(1, 1).uniform(4).tolist() == [
            0.7075445722471096, 0.26535522130279654, 0.9252499066003603, 0.2107877260781289]
        assert RngStream(1, 1).normal(4).tolist() == [
            1.3823770096253107, 0.2583944770415437, -0.2711484247962688, -0.19640213992942873]


class TestHessianDiagTable:
    def test_invariants(self):
        table = build_hessian_diag_table()
        assert np.all(np.diff(table.cdf_values) >= 0)
        assert table.cdf_values[0] <= 1e-9
        assert table.cdf_values[-1] >= 1 - 1e-9

    def test_resolution_is_the_length_of_the_grid(self):
        # a resolution given apart from the grid once mapped 0.3, 0.6 and 0.9 all to -9.758
        default = default_hessian_diag_table()
        with pytest.raises(TypeError):
            TabulatedInverseCdf(grid=default.grid, cdf_values=default.cdf_values, resolution=100)
        table = TabulatedInverseCdf(grid=default.grid, cdf_values=default.cdf_values)
        assert table.resolution == len(default.grid) == 8192
        xi = np.array([0.3, 0.6, 0.9])
        assert np.array_equal(table.lookup(xi), default.lookup(xi))
        assert_allclose(table.lookup(xi), [-0.571, 0.250, 2.071], atol=1e-3)
        with pytest.raises(ValueError, match="cdf_values has shape"):
            TabulatedInverseCdf(grid=default.grid, cdf_values=default.cdf_values[:-1])

    @pytest.mark.parametrize("spoil,message", [
        ("one_decreasing_step", "tabulated CDF is not nondecreasing"),
        ("last_value_short_of_one", "tabulated CDF endpoints out of tolerance"),
    ])
    def test_build_rejects_a_table_that_fails_its_self_checks(self, monkeypatch, spoil, message):
        def spoiled_cdf(u, sigma):
            cdf = hessian_diag_cdf(u, sigma)
            if spoil == "one_decreasing_step":
                cdf[4096] = cdf[4095] - 1e-6
                assert np.count_nonzero(np.diff(cdf) < 0) == 1
            else:
                np.minimum(cdf, 1.0 - 1e-8, out=cdf)
                assert cdf[-1] == 1.0 - 1e-8 and np.all(np.diff(cdf) >= 0)
            return cdf

        monkeypatch.setattr("smoothdiff.samplers.hessian_diag_cdf", spoiled_cdf)
        with pytest.raises(AssertionError, match=message):
            build_hessian_diag_table()

    def test_quarter_lookup_hits_minus_one(self):
        table = build_hessian_diag_table()
        assert abs(table.lookup(0.25) - (-1.0)) < 1e-3

    def test_median_lookup_within_one_cell(self):
        table = build_hessian_diag_table()
        cell = 20.0 / (table.resolution - 1)
        assert abs(table.lookup(0.5)) <= cell

    def test_round_trip_through_kernels_cdf(self):
        table = build_hessian_diag_table()
        assert abs(table.lookup(hessian_diag_cdf(1.7, 1.0)) - 1.7) < 1e-3

    def test_round_trip_error_budget(self):
        table = build_hessian_diag_table()
        xi = np.linspace(1e-4, 1 - 1e-4, 20_001)
        err = np.abs(hessian_diag_cdf(table.lookup(xi), 1.0) - xi)
        assert err.max() <= 1e-4

    def test_rejects_nan_and_values_outside_unit_interval(self):
        # NaN used to come back as NaN, and out-of-range values as the table's ends
        table = default_hessian_diag_table()
        for bad in (np.nan, -0.1, 1.5, -np.inf, [0.3, np.nan], [0.2, 1.0 + 1e-12]):
            with pytest.raises(ValueError):
                table.lookup(bad)
        assert table.lookup(0.0) == -10.0 and table.lookup(1.0) <= 10.0

    def test_a_flat_run_of_the_saturated_tail_maps_to_its_right_end(self):
        table = default_hessian_diag_table()
        c = table.cdf_values
        flat = np.flatnonzero(np.diff(c) == 0)
        assert len(flat) == 666 and flat[0] > len(c) // 2
        runs = np.flatnonzero(np.diff(flat) > 1)
        ends = np.append(flat[runs], flat[-1]) + 1  # each run's last grid point
        assert np.array_equal(table.lookup(c[ends]), table.grid[ends])
        assert table.lookup(0.0) == table.lookup(np.finfo(float).tiny) == -10.0

    def test_lookup_leaves_its_input_and_returns_a_new_value(self):
        table = default_hessian_diag_table()
        xi = np.array([[0.0, 0.25, 0.6], [1.0, 0.5, 0.999]])
        before = xi.copy()
        out = table.lookup(xi)
        assert np.array_equal(xi, before)
        assert out.shape == xi.shape and not np.shares_memory(out, xi)
        for scalar in (0.6, np.float64(0.6), np.array(0.6)):
            u = table.lookup(scalar)
            assert type(u) is float and u == table.lookup(np.array([0.6]))[0]


def test_open_unit_leaves_its_input_and_returns_a_new_value():
    xi = np.array([[0.0, 0.25, 1.0], [0.5, 1e-320, 1.0 - 1e-17]])
    before = xi.copy()
    out = open_unit(xi)
    assert np.array_equal(xi, before)
    assert out.shape == xi.shape and not np.shares_memory(out, xi)
    assert out.min() > 0.0 and out.max() < 1.0
    for scalar in (0.0, 1.0, np.float64(0.3), np.array(0.3)):
        u = open_unit(scalar)
        assert isinstance(u, float) and 0.0 < u < 1.0


class TestGradientSampler:
    def test_deterministic(self):
        spec = KernelSpec(1.0, 3)
        t1, q1 = sample_gradient_offsets(1, spec, RngStream(9, 4), 50)
        t2, q2 = sample_gradient_offsets(1, spec, RngStream(9, 4), 50)
        assert np.array_equal(t1, t2) and np.array_equal(q1, q2)

    def test_chi2_against_gradient_pdf(self):
        spec = KernelSpec(1.0, 2)
        taus, _ = sample_gradient_offsets(0, spec, RngStream(100), 1_000_000)
        p = chi2_pvalue(taus[:, 0], lambda u: gradient_cdf(u, 1.0), -4, 4)
        assert p > SIGNIFICANCE

    def test_other_coordinate_gaussian_mean(self):
        spec = KernelSpec(1.0, 2)
        n = 1_000_000
        taus, _ = sample_gradient_offsets(0, spec, RngStream(101), n)
        assert abs(taus[:, 1].mean()) < 4.0 / math.sqrt(n)

    def test_ks_at_1e5(self):
        spec = KernelSpec(0.7, 2)
        taus, _ = sample_gradient_offsets(0, spec, RngStream(102), 100_000)
        res = stats.kstest(taus[:, 0], lambda u: gradient_cdf(u, 0.7))
        assert res.pvalue > SIGNIFICANCE

    def test_pdf_values_match_recomputation(self):
        spec = KernelSpec(1.3, 3)
        taus, _ = sample_gradient_offsets(2, spec, RngStream(103), 200)
        elem = KernelElement.gradient(2)
        recomputed = np.array([element_pdf(t, elem, spec) for t in taus])
        assert_allclose(densities(taus, [elem], spec)[:, 0], recomputed, rtol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            sample_gradient_offsets(5, KernelSpec(1.0, 2), RngStream(0), 1)


class TestHessianSampler:
    def test_diag_pdf_always_positive(self):
        spec = KernelSpec(1.0, 2)
        elem = KernelElement.hessian_diag(0)
        taus, _ = sample_hessian_offsets(elem, spec, RngStream(7), 5000)
        assert np.all(element_density_ratios(taus, [elem], spec.sigma) > 0)

    def test_diag_ks_at_1e5(self):
        spec = KernelSpec(1.0, 2)
        taus, _ = sample_hessian_offsets(KernelElement.hessian_diag(0), spec, RngStream(8), 100_000)
        res = stats.kstest(taus[:, 0], lambda u: hessian_diag_cdf(u, 1.0))
        assert res.pvalue > SIGNIFICANCE

    def test_diag_chi2_against_positivized_kernel(self):
        spec = KernelSpec(1.0, 2)
        taus, _ = sample_hessian_offsets(KernelElement.hessian_diag(0), spec, RngStream(9), 1_000_000)
        p = chi2_pvalue(taus[:, 0], lambda u: hessian_diag_cdf(u, 1.0), -4, 4)
        assert p > SIGNIFICANCE

    def test_offdiag_marginal_chi2(self):
        spec = KernelSpec(1.0, 3)
        elem = KernelElement.hessian_off_diag(0, 2)
        taus, _ = sample_hessian_offsets(elem, spec, RngStream(10), 1_000_000)
        for axis in (0, 2):
            p = chi2_pvalue(taus[:, axis], lambda u: gradient_cdf(u, 1.0), -4, 4)
            assert p > SIGNIFICANCE

    def test_rejects_gradient_element(self):
        with pytest.raises(ValueError):
            sample_hessian_offsets(KernelElement.gradient(0), KernelSpec(1.0, 2), RngStream(0), 1)

    @pytest.mark.parametrize("elem", [KernelElement.hessian_diag(-1), KernelElement.hessian_diag(3),
                                      KernelElement.hessian_off_diag(-1, 2), KernelElement.hessian_off_diag(0, 3)])
    def test_index_out_of_range(self, elem):
        with pytest.raises(ValueError):
            sample_hessian_offsets([KernelElement.hessian_diag(0), elem], KernelSpec(1.0, 3), RngStream(0), 1)


class TestAggregateSampler:
    def test_single_element_reduces_to_element_sampler(self):
        spec = KernelSpec(1.0, 2)
        elems = [KernelElement.gradient(0)]
        taus, _ = sample_aggregate_offsets(elems, spec, RngStream(11), 5000)
        recomputed = np.array([element_pdf(t, elems[0], spec) for t in taus])
        assert_allclose(densities(taus, elems, spec)[:, 0], recomputed, rtol=1e-12)
        res = stats.kstest(taus[:, 0], lambda u: gradient_cdf(u, 1.0))
        assert res.pvalue > SIGNIFICANCE

    def test_mixture_pdf_equals_mean_of_element_pdfs(self):
        for dim in (2, 3):
            spec = KernelSpec(1.0, dim)
            elems = hessian_elements(dim)
            assert len(elems) == dim * (dim + 1) // 2
            taus, _ = sample_aggregate_offsets(elems, spec, RngStream(12), 1000)
            per_element = densities(taus, elems, spec)
            element_pdfs = np.array([[element_pdf(t, e, spec) for e in elems] for t in taus])
            assert_allclose(per_element, element_pdfs, rtol=1e-12)
            mixture = np.array([mixture_pdf(t, elems, spec) for t in taus])
            assert np.max(np.abs(per_element.mean(axis=1) - mixture) / mixture) < 1e-12

    def test_empirical_mixture_marginal_chi2(self):
        spec = KernelSpec(1.0, 2)
        elems = hessian_elements(2)
        taus, _ = sample_aggregate_offsets(elems, spec, RngStream(13), 1_000_000)

        def marginal_cdf(u):
            # coordinate 0 is special for diag(0) and offdiag(0,1), Gaussian for diag(1)
            return (hessian_diag_cdf(u, 1.0) + gaussian_cdf_1d(u, 1.0) + gradient_cdf(u, 1.0)) / 3.0

        p = chi2_pvalue(taus[:, 0], marginal_cdf, -4, 4)
        assert p > SIGNIFICANCE

    def test_ks_mixture_at_1e5(self):
        spec = KernelSpec(1.0, 2)
        elems = hessian_elements(2)
        taus, _ = sample_aggregate_offsets(elems, spec, RngStream(14), 100_000)

        def marginal_cdf(u):
            return (hessian_diag_cdf(u, 1.0) + gaussian_cdf_1d(u, 1.0) + gradient_cdf(u, 1.0)) / 3.0

        res = stats.kstest(taus[:, 0], marginal_cdf)
        assert res.pvalue > SIGNIFICANCE

    def test_empty_elements_rejected(self):
        with pytest.raises(ValueError):
            sample_aggregate_offsets([], KernelSpec(1.0, 2), RngStream(0), 1)

    @pytest.mark.parametrize("elem", [KernelElement.gradient(-1), KernelElement.gradient(3),
                                      KernelElement.hessian_diag(3), KernelElement.hessian_off_diag(-1, 2),
                                      KernelElement.hessian_off_diag(0, 3)])
    def test_index_out_of_range(self, elem):
        # gradient(-1) drew into axis 2 and gradient(3) raised IndexError
        with pytest.raises(ValueError):
            sample_aggregate_offsets([KernelElement.gradient(0), elem], KernelSpec(1.0, 3), RngStream(0), 4)

    def test_empty_mixture_pdf_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mixture_pdf(np.zeros(2), [], KernelSpec(1.0, 2))

    @pytest.mark.parametrize("dim", [1, 3, 256])
    def test_every_axis_in_order_draws_as_an_equal_set_built_anew(self, dim):
        # the cached set of every gradient axis takes its ratios from a copy of the block
        spec = KernelSpec(0.7, dim)
        cached = gradient_elements(dim)
        anew = ElementSet(list(cached))
        for count in (1, 5):
            want = sample_aggregate_offsets(anew, spec, RngStream(31, count), count)
            got = sample_aggregate_offsets(cached, spec, RngStream(31, count), count)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("tau,elem,message", [
    ([0.1, 0.2], KernelElement.gradient(0), r"offset has shape \(2,\), expected \(3,\)"),
    (0.1, KernelElement.hessian_diag(0), r"offset has shape \(\), expected \(3,\)"),
    ([0.1, 0.2, 0.3], KernelElement.hessian_off_diag(1, 3), "element index 3 out of range for dim 3"),
], ids=["short", "scalar", "out_of_range"])
def test_element_pdf_rejects_an_offset_of_another_shape_or_an_element_out_of_range(tau, elem, message):
    with pytest.raises(ValueError, match=message):
        element_pdf(tau, elem, KernelSpec(1.0, 3))


class TestDensityRatio:
    """Each sampler's q is the density ratio of its rows, bit for bit, and even."""

    spec = KernelSpec(1.2, 3)
    mixed = [KernelElement.hessian_off_diag(0, 2), KernelElement.hessian_diag(1),
             KernelElement.hessian_diag(0), KernelElement.hessian_off_diag(1, 2)]

    def per_element_draws(self):
        spec = self.spec
        return [
            ([KernelElement.gradient(0)], sample_gradient_offsets(0, spec, RngStream(21), 50)),
            (gradient_elements(3), sample_gradient_offsets(np.arange(3), spec, RngStream(25), 50)),
            ([KernelElement.hessian_diag(1)],
             sample_hessian_offsets(KernelElement.hessian_diag(1), spec, RngStream(22), 50)),
            ([KernelElement.hessian_off_diag(0, 2)],
             sample_hessian_offsets(KernelElement.hessian_off_diag(0, 2), spec, RngStream(23), 50)),
            (self.mixed, sample_hessian_offsets(self.mixed, spec, RngStream(26), 50)),
        ]

    def aggregate_draws(self):
        return [(elems, sample_aggregate_offsets(elems, self.spec, RngStream(24 + k), 50))
                for k, elems in enumerate((hessian_elements(3), gradient_elements(3), self.mixed))]

    def test_returns_each_row_with_its_ratio(self):
        # per-element samplers draw 50 rows per element, the aggregate one 50 in all
        for elems, (taus, q) in self.per_element_draws():
            assert taus.shape == (50 * len(elems), 3) and q.shape == (len(taus),)
        for _, (taus, q) in self.aggregate_draws():
            assert taus.shape == (50, 3) and q.shape == (50,)

    def test_per_element_q_is_each_rows_own_element_ratio(self):
        sigma = self.spec.sigma
        for elems, (taus, q) in self.per_element_draws():
            for r, row in enumerate(taus):
                want = element_density_ratios(row, [elems[r // 50]], sigma)
                assert want.shape == (1, 1) and want[0, 0] == q[r]

    def test_aggregate_q_is_the_mixture_mean(self):
        for elems, (taus, q) in self.aggregate_draws():
            ratios = element_density_ratios(taus, elems, self.spec.sigma)
            want = np.add.reduce(ratios, 1)
            want /= len(elems)
            assert np.array_equal(q, want)

    def test_pdf_even_for_all_densities(self):
        spec = self.spec
        for elems, (taus, _) in self.per_element_draws() + self.aggregate_draws():
            mirrored = -taus
            assert np.array_equal(element_density_ratios(mirrored, elems, spec.sigma),
                                  element_density_ratios(taus, elems, spec.sigma))
            for t, m in zip(taus, mirrored):
                assert_allclose(mixture_pdf(m, elems, spec), mixture_pdf(t, elems, spec), rtol=1e-12)

    def test_stacked_blocks_take_block_k_against_element_k(self):
        sigma = self.spec.sigma
        for elems, (taus, q) in self.per_element_draws():
            stacked = taus.reshape(len(elems), 50, 3)
            assert np.array_equal(element_density_ratios(stacked, elems, sigma), q.reshape(len(elems), 50))
            with pytest.raises(ValueError, match=f"{len(elems)} stacked blocks for {len(elems) + 1} elements"):
                element_density_ratios(stacked, [*elems, elems[0]], sigma)


class TestStackedDrawOrder:
    """A stacked per-element draw takes one block of each kind from the stream."""

    def test_gradient_block_is_uniforms_then_one_normal_block(self):
        spec, axes, count = KernelSpec(0.7, 5), np.array([3, 0, 4, 0]), 3
        rng, twin = RngStream(31, 2), RngStream(31, 2)
        taus, q = sample_gradient_offsets(axes, spec, rng, count)
        xi = twin.uniform((len(axes), count))
        want = twin.normal((len(axes), count, spec.dim)) * spec.sigma
        for r, axis in enumerate(axes):
            want[r, :, axis] = gradient_inverse_cdf(open_unit(xi[r]), spec.sigma)
        assert np.array_equal(taus, want.reshape(-1, spec.dim))
        assert q.shape == (len(taus),)
        assert np.array_equal(rng.uniform(4), twin.uniform(4))  # nothing else was drawn

    def test_hessian_block_is_one_normal_block_then_uniforms_for_every_element(self):
        spec, count = KernelSpec(1.3, 4), 5
        table = default_hessian_diag_table()
        elements = [KernelElement.hessian_off_diag(0, 2), KernelElement.hessian_diag(1),
                    KernelElement.hessian_off_diag(1, 3), KernelElement.hessian_diag(3)]
        rng, twin = RngStream(32), RngStream(32)
        taus, _ = sample_hessian_offsets(elements, spec, rng, count)
        want = twin.normal((len(elements), count, spec.dim)) * spec.sigma
        xi = twin.uniform((len(elements), 2, count))
        for r, elem in enumerate(elements):
            if elem.kind is ElementKind.HESSIAN_DIAG:
                want[r, :, elem.i] = table.lookup(open_unit(xi[r, 0])) * spec.sigma
            else:
                want[r, :, elem.i] = gradient_inverse_cdf(open_unit(xi[r, 0]), spec.sigma)
                want[r, :, elem.j] = gradient_inverse_cdf(open_unit(xi[r, 1]), spec.sigma)
        assert np.array_equal(taus, want.reshape(-1, spec.dim))
        assert np.array_equal(rng.uniform(4), twin.uniform(4))  # nothing else was drawn


class _StubGenerator:
    """A generator whose uniforms are ``uniform`` (or ``source``'s) and whose normals are all 0."""

    def __init__(self, uniform=None, source=None):
        self.uniform, self.source = uniform, source

    def random(self, size):
        return np.full(size, self.uniform) if self.source is None else self.source.random(size)

    def standard_normal(self, size):
        return np.zeros(size)


class TestAggregateDrawOrder:
    """An aggregate draw takes one (3, count) uniform block, then one Gaussian block."""

    @pytest.mark.parametrize("elements", [gradient_elements(4), TestDensityRatio.mixed],
                             ids=["gradient", "mixed"])
    def test_one_uniform_block_then_one_normal_block(self, elements):
        spec, count, k = KernelSpec(0.8, 4), 7, len(elements)
        table = default_hessian_diag_table()
        rng, twin = RngStream(33, 4), RngStream(33, 4)
        for _ in range(2):
            taus, _ = sample_aggregate_offsets(elements, spec, rng, count)
            u = twin.uniform((3, count))
            want = twin.normal((count, spec.dim)) * spec.sigma
            for r in range(count):
                elem = elements[int(math.floor(u[0, r] * k))]
                if elem.kind is ElementKind.HESSIAN_DIAG:
                    want[r, elem.i] = table.lookup(open_unit(u[1, r])) * spec.sigma
                else:
                    want[r, elem.i] = gradient_inverse_cdf(open_unit(u[1, r]), spec.sigma)
                if elem.kind is ElementKind.HESSIAN_OFF_DIAG:
                    want[r, elem.j] = gradient_inverse_cdf(open_unit(u[2, r]), spec.sigma)
            assert np.array_equal(taus, want)
        assert np.array_equal(rng.uniform(4), twin.uniform(4))  # nothing else was drawn

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 256])
    def test_largest_uniform_draws_the_last_component(self, k):
        # gradient element k - 1 is the only one that writes axis k - 1
        stub = SimpleNamespace(generator=_StubGenerator(uniform=np.nextafter(1.0, 0.0)))
        taus, q = sample_aggregate_offsets(gradient_elements(k), KernelSpec(1.0, k), stub, 5)
        assert np.array_equal(np.flatnonzero(np.any(taus != 0.0, axis=0)), [k - 1])
        assert np.count_nonzero(taus[:, k - 1]) == 5 and np.all(np.isfinite(q))

    @pytest.mark.parametrize("k", [3, 10])
    def test_component_frequencies_are_uniform(self, k):
        rows = 100_000
        stub = SimpleNamespace(generator=_StubGenerator(source=np.random.Generator(np.random.SFC64(40 + k))))
        taus, _ = sample_aggregate_offsets(gradient_elements(k), KernelSpec(1.0, k), stub, rows)
        assert np.all(np.count_nonzero(taus, axis=1) == 1)
        counts = np.bincount(np.argmax(taus != 0.0, axis=1), minlength=k)
        assert stats.chisquare(counts).pvalue > SIGNIFICANCE


def test_stacked_gradient_draw_makes_no_staging_copies():
    # the returned offsets take 0.5 MiB at n = 256; the draws go straight into them
    spec = KernelSpec(0.3, 256)
    sample_gradient_offsets(np.arange(256), spec, RngStream(0), 1)  # warm-up
    tracemalloc.start()
    try:
        taus, q = sample_gradient_offsets(np.arange(256), spec, RngStream(1), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= taus.nbytes + q.nbytes + (64 << 10)
