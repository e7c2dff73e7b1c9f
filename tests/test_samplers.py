"""Sampler fidelity: distribution tests, density bookkeeping, determinism.

Samplers return only offsets; the density an estimator weights by is
``element_density_ratios`` times the Gaussian, which the bookkeeping tests
check against the reference densities ``element_pdf`` / ``mixture_pdf``.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from smoothdiff.kernels import (
    KernelElement,
    KernelSpec,
    gaussian_cdf_1d,
    gaussian_pdf,
    gradient_cdf,
    gradient_pdf,
    hessian_diag_cdf,
    hessian_elements,
)
from smoothdiff.samplers import (
    RngStream,
    build_hessian_diag_table,
    element_density_ratios,
    element_pdf,
    mixture_pdf,
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


class TestHessianDiagTable:
    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError):
            build_hessian_diag_table(512)

    def test_invariants(self):
        table = build_hessian_diag_table(8192)
        assert np.all(np.diff(table.cdf_values) >= 0)
        assert table.cdf_values[0] <= 1e-9
        assert table.cdf_values[-1] >= 1 - 1e-9

    def test_quarter_lookup_hits_minus_one(self):
        table = build_hessian_diag_table(8192)
        assert abs(table.lookup(0.25) - (-1.0)) < 1e-3

    def test_median_lookup_within_one_cell(self):
        table = build_hessian_diag_table(8192)
        cell = 20.0 / (table.resolution - 1)
        assert abs(table.lookup(0.5)) <= cell

    def test_round_trip_through_kernels_cdf(self):
        table = build_hessian_diag_table(8192)
        assert abs(table.lookup(hessian_diag_cdf(1.7, 1.0)) - 1.7) < 1e-3

    def test_round_trip_error_budget(self):
        table = build_hessian_diag_table(8192)
        xi = np.linspace(1e-4, 1 - 1e-4, 20_001)
        err = np.abs(hessian_diag_cdf(table.lookup(xi), 1.0) - xi)
        assert err.max() <= 1e-4


class TestGradientSampler:
    def test_deterministic(self):
        spec = KernelSpec(1.0, 3)
        t1, m1 = sample_gradient_offsets(1, spec, RngStream(9, 4), 50)
        t2, m2 = sample_gradient_offsets(1, spec, RngStream(9, 4), 50)
        assert np.array_equal(t1, t2) and np.array_equal(m1, m2)

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
    def setup_method(self):
        self.table = build_hessian_diag_table(8192)

    def test_diag_pdf_always_positive(self):
        spec = KernelSpec(1.0, 2)
        elem = KernelElement.hessian_diag(0)
        taus, _ = sample_hessian_offsets(elem, spec, self.table, RngStream(7), 5000)
        assert np.all(element_density_ratios(taus, [elem], spec.sigma) > 0)

    def test_diag_ks_at_1e5(self):
        spec = KernelSpec(1.0, 2)
        taus, _ = sample_hessian_offsets(KernelElement.hessian_diag(0), spec, self.table, RngStream(8), 100_000)
        res = stats.kstest(taus[:, 0], lambda u: hessian_diag_cdf(u, 1.0))
        assert res.pvalue > SIGNIFICANCE

    def test_diag_chi2_against_positivized_kernel(self):
        spec = KernelSpec(1.0, 2)
        taus, _ = sample_hessian_offsets(KernelElement.hessian_diag(0), spec, self.table, RngStream(9), 1_000_000)
        p = chi2_pvalue(taus[:, 0], lambda u: hessian_diag_cdf(u, 1.0), -4, 4)
        assert p > SIGNIFICANCE

    def test_offdiag_marginal_chi2(self):
        spec = KernelSpec(1.0, 3)
        elem = KernelElement.hessian_off_diag(0, 2)
        taus, _ = sample_hessian_offsets(elem, spec, self.table, RngStream(10), 1_000_000)
        for axis in (0, 2):
            p = chi2_pvalue(taus[:, axis], lambda u: gradient_cdf(u, 1.0), -4, 4)
            assert p > SIGNIFICANCE

    def test_rejects_gradient_element(self):
        with pytest.raises(ValueError):
            sample_hessian_offsets(KernelElement.gradient(0), KernelSpec(1.0, 2), self.table, RngStream(0), 1)


class TestAggregateSampler:
    def setup_method(self):
        self.table = build_hessian_diag_table(8192)

    def test_single_element_reduces_to_element_sampler(self):
        spec = KernelSpec(1.0, 2)
        elems = [KernelElement.gradient(0)]
        taus, _ = sample_aggregate_offsets(elems, spec, self.table, RngStream(11), 5000)
        recomputed = np.array([element_pdf(t, elems[0], spec) for t in taus])
        assert_allclose(densities(taus, elems, spec)[:, 0], recomputed, rtol=1e-12)
        res = stats.kstest(taus[:, 0], lambda u: gradient_cdf(u, 1.0))
        assert res.pvalue > SIGNIFICANCE

    def test_mixture_pdf_equals_mean_of_element_pdfs(self):
        for dim in (2, 3):
            spec = KernelSpec(1.0, dim)
            elems = hessian_elements(dim)
            assert len(elems) == dim * (dim + 1) // 2
            taus, _ = sample_aggregate_offsets(elems, spec, self.table, RngStream(12), 1000)
            per_element = densities(taus, elems, spec)
            element_pdfs = np.array([[element_pdf(t, e, spec) for e in elems] for t in taus])
            assert_allclose(per_element, element_pdfs, rtol=1e-12)
            mixture = np.array([mixture_pdf(t, elems, spec) for t in taus])
            assert np.max(np.abs(per_element.mean(axis=1) - mixture) / mixture) < 1e-12

    def test_empirical_mixture_marginal_chi2(self):
        spec = KernelSpec(1.0, 2)
        elems = hessian_elements(2)
        taus, _ = sample_aggregate_offsets(elems, spec, self.table, RngStream(13), 1_000_000)

        def marginal_cdf(u):
            # coordinate 0 is special for diag(0) and offdiag(0,1), Gaussian for diag(1)
            return (hessian_diag_cdf(u, 1.0) + gaussian_cdf_1d(u, 1.0) + gradient_cdf(u, 1.0)) / 3.0

        p = chi2_pvalue(taus[:, 0], marginal_cdf, -4, 4)
        assert p > SIGNIFICANCE

    def test_ks_mixture_at_1e5(self):
        spec = KernelSpec(1.0, 2)
        elems = hessian_elements(2)
        taus, _ = sample_aggregate_offsets(elems, spec, self.table, RngStream(14), 100_000)

        def marginal_cdf(u):
            return (hessian_diag_cdf(u, 1.0) + gaussian_cdf_1d(u, 1.0) + gradient_cdf(u, 1.0)) / 3.0

        res = stats.kstest(taus[:, 0], marginal_cdf)
        assert res.pvalue > SIGNIFICANCE

    def test_empty_elements_rejected(self):
        with pytest.raises(ValueError):
            sample_aggregate_offsets([], KernelSpec(1.0, 2), self.table, RngStream(0), 1)


class TestAntitheticPair:
    def draws(self):
        spec = KernelSpec(1.2, 3)
        table = build_hessian_diag_table(2048)
        return spec, [
            ([KernelElement.gradient(0)], sample_gradient_offsets(0, spec, RngStream(21), 50)),
            ([KernelElement.hessian_diag(1)],
             sample_hessian_offsets(KernelElement.hessian_diag(1), spec, table, RngStream(22), 50)),
            ([KernelElement.hessian_off_diag(0, 2)],
             sample_hessian_offsets(KernelElement.hessian_off_diag(0, 2), spec, table, RngStream(23), 50)),
            (hessian_elements(3), sample_aggregate_offsets(hessian_elements(3), spec, table, RngStream(24), 50)),
        ]

    def test_pair_sums_to_zero(self):
        # the second item is the exact negation of the first
        _, draws = self.draws()
        for _, (taus, mirrored) in draws:
            assert taus.shape == (50, 3)
            assert np.array_equal(mirrored, -taus)

    def test_pdf_even_for_all_densities(self):
        spec, draws = self.draws()
        for elems, (taus, mirrored) in draws:
            assert np.array_equal(element_density_ratios(mirrored, elems, spec.sigma),
                                  element_density_ratios(taus, elems, spec.sigma))
            for t, m in zip(taus, mirrored):
                assert_allclose(mixture_pdf(m, elems, spec), mixture_pdf(t, elems, spec), rtol=1e-12)
