"""Kernel closed forms against finite-difference and quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, optimize

from smoothdiff.kernels import (
    KernelElement,
    KernelSpec,
    axis_blur_gradient_kernel,
    gaussian_cdf_1d,
    gaussian_pdf,
    gaussian_pdf_1d,
    gradient_cdf,
    gradient_inverse_cdf,
    gradient_kernel,
    gradient_partition,
    gradient_pdf,
    hessian_diag_cdf,
    hessian_diag_pdf,
    hessian_diag_scale,
    hessian_elements,
    hessian_kernel,
)

SQ2PI = math.sqrt(2.0 * math.pi)


def fd_gradient(tau, i, spec, h):
    e = np.zeros(spec.dim)
    e[i] = h
    return (gaussian_pdf(tau + e, spec) - gaussian_pdf(tau - e, spec)) / (2 * h)


def fd_hessian_5pt(tau, i, j, spec, h):
    """Fourth-order stencil; accurate enough for 1e-6 absolute at small sigma."""
    ei = np.zeros(spec.dim)
    ej = np.zeros(spec.dim)
    ei[i] = h
    ej[j] = h
    f = lambda t: gaussian_pdf(t, spec)
    if i == j:
        return (-f(tau + 2 * ei) + 16 * f(tau + ei) - 30 * f(tau)
                + 16 * f(tau - ei) - f(tau - 2 * ei)) / (12 * h * h)
    vals = 0.0
    for si, wi in ((1, 8), (-1, -8), (2, -1), (-2, 1)):
        for sj, wj in ((1, 8), (-1, -8), (2, -1), (-2, 1)):
            vals += wi * wj * f(tau + si * ei + sj * ej)
    return vals / (144 * h * h)


class TestKernelSpec:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec(sigma=0.0, dim=2)
        with pytest.raises(ValueError):
            KernelSpec(sigma=-1.0, dim=2)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            KernelSpec(sigma=1.0, dim=0)


class TestGaussianPdf:
    def test_unit_peak_1d(self):
        assert_allclose(gaussian_pdf([0.0], KernelSpec(1.0, 1)), 1 / SQ2PI, rtol=1e-14)

    def test_unit_peak_2d(self):
        assert_allclose(gaussian_pdf([0.0, 0.0], KernelSpec(1.0, 2)), 1 / (2 * math.pi), rtol=1e-14)

    def test_separability_example(self):
        spec2 = KernelSpec(1.0, 2)
        spec1 = KernelSpec(1.0, 1)
        lhs = gaussian_pdf([1.0, 0.0], spec2)
        rhs = gaussian_pdf([1.0], spec1) * gaussian_pdf([0.0], spec1)
        assert_allclose(lhs, rhs, rtol=1e-14)

    @given(st.integers(2, 5), st.floats(0.2, 2.5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_separability_random(self, dim, sigma, seed):
        tau = np.random.default_rng(seed).uniform(-2, 2, size=dim)
        spec = KernelSpec(sigma, dim)
        prod = float(np.prod([gaussian_pdf([t], KernelSpec(sigma, 1)) for t in tau]))
        assert_allclose(gaussian_pdf(tau, spec), prod, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_pdf([1.0, 2.0, 3.0], KernelSpec(1.0, 2))

    def test_a_scalar_offset_is_an_offset_on_one_axis(self):
        spec = KernelSpec(0.7, 1)
        assert gaussian_pdf(0.3, spec) == gaussian_pdf([0.3], spec)
        assert gradient_kernel(np.float64(0.3), 0, spec) == gradient_kernel([0.3], 0, spec)
        with pytest.raises(ValueError, match=r"offset has shape \(1,\), expected \(2,\)"):
            gaussian_pdf(0.3, KernelSpec(0.7, 2))


class TestGradientKernel:
    def test_zero_on_axis_origin(self):
        spec = KernelSpec(1.0, 3)
        assert gradient_kernel([0.0, 0.7, -0.3], 0, spec) == 0.0

    def test_frozen_value_with_fd_oracle(self):
        # oracle: central difference of the density, step 1e-6
        spec = KernelSpec(1.0, 1)
        val = gradient_kernel([1.0], 0, spec)
        assert_allclose(val, -math.exp(-0.5) / SQ2PI, rtol=1e-12)
        assert_allclose(val, -0.2419707245191434, rtol=1e-12)
        assert abs(val - fd_gradient(np.array([1.0]), 0, spec, 1e-6)) < 1e-9

    def test_antisymmetry(self):
        spec = KernelSpec(1.0, 1)
        assert_allclose(gradient_kernel([-1.0], 0, spec), 0.2419707245191434, rtol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            gradient_kernel([1.0, 2.0], 2, KernelSpec(1.0, 2))


class TestHessianKernel:
    def test_diag_roots_exact(self):
        for sigma in (0.3, 1.0, 2.7):
            spec = KernelSpec(sigma, 2)
            elem = KernelElement.hessian_diag(0)
            assert hessian_kernel([sigma, 0.4], elem, spec) == 0.0
            assert hessian_kernel([-sigma, 0.4], elem, spec) == 0.0

    def test_offdiag_zero_on_axes(self):
        spec = KernelSpec(1.0, 2)
        elem = KernelElement.hessian_off_diag(0, 1)
        assert hessian_kernel([0.0, 1.3], elem, spec) == 0.0
        assert hessian_kernel([1.3, 0.0], elem, spec) == 0.0

    def test_frozen_diag_value_with_fd_oracle(self):
        # oracle: second-order central difference of the density, step 1e-4
        spec = KernelSpec(1.0, 1)
        elem = KernelElement.hessian_diag(0)
        val = hessian_kernel([0.0], elem, spec)
        assert_allclose(val, -1 / SQ2PI, rtol=1e-12)
        assert_allclose(val, -0.3989422804014327, rtol=1e-12)
        h = 1e-4
        fd = (gaussian_pdf([h], spec) - 2 * gaussian_pdf([0.0], spec) + gaussian_pdf([-h], spec)) / h**2
        assert abs(val - fd) < 1e-7

    def test_matrix_symmetric(self):
        spec = KernelSpec(0.8, 3)
        tau = np.array([0.3, -1.1, 0.6])
        h = np.empty((3, 3))
        for e in hessian_elements(3):
            if e.kind.value == "hessian_diag":
                h[e.i, e.i] = hessian_kernel(tau, e, spec)
            else:
                h[e.i, e.j] = h[e.j, e.i] = hessian_kernel(tau, e, spec)
        assert np.array_equal(h, h.T)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            hessian_kernel([0.0, 0.0], KernelElement.gradient(0), KernelSpec(1.0, 2))

    def test_offdiag_symmetric_element(self):
        assert KernelElement.hessian_off_diag(2, 0) == KernelElement.hessian_off_diag(0, 2)

    @pytest.mark.parametrize("i", [0, 2])
    def test_offdiag_element_on_one_axis_is_rejected(self, i):
        with pytest.raises(ValueError, match="off-diagonal element requires i != j"):
            KernelElement.hessian_off_diag(i, i)

    @pytest.mark.parametrize("elem", [KernelElement.hessian_diag(2), KernelElement.hessian_diag(-1),
                                      KernelElement.hessian_off_diag(0, 2)])
    def test_element_out_of_range_is_rejected(self, elem):
        with pytest.raises(ValueError, match="out of range for dim 2"):
            hessian_kernel([0.1, 0.2], elem, KernelSpec(1.0, 2))


def test_fd_consistency_100_random_points():
    """Both derivative kernels match finite differences to 1e-6 absolute."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        sigma = rng.uniform(0.1, 3.0)
        dim = int(rng.integers(1, 4))
        spec = KernelSpec(sigma, dim)
        tau = rng.uniform(-2.0, 2.0, size=dim) * min(sigma * 2.5, 1.0)
        i = int(rng.integers(dim))
        j = int(rng.integers(dim))
        assert abs(gradient_kernel(tau, i, spec) - fd_gradient(tau, i, spec, 1e-6 * sigma)) < 1e-6
        elem = KernelElement.hessian_diag(i) if i == j else KernelElement.hessian_off_diag(i, j)
        assert abs(hessian_kernel(tau, elem, spec) - fd_hessian_5pt(tau, i, j, spec, 3e-3 * sigma)) < 1e-6


class TestGradientPdf:
    def test_zero_at_origin(self):
        assert gradient_pdf(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.2])
    def test_integrates_to_one(self, sigma):
        val, _ = integrate.quad(gradient_pdf, -10 * sigma, 10 * sigma, args=(sigma,))
        assert abs(val - 1.0) < 1e-9

    def test_frozen_value_with_quadrature_oracle(self):
        # oracle: positivized gradient kernel over its total mass
        num = abs(float(axis_blur_gradient_kernel(1.0, 1.0)))
        den, _ = integrate.quad(lambda u: abs(float(axis_blur_gradient_kernel(u, 1.0))), -12, 12)
        assert_allclose(gradient_pdf(1.0, 1.0), num / den, rtol=1e-9)
        assert_allclose(gradient_pdf(1.0, 1.0), math.exp(-0.5) / 2, rtol=1e-12)
        assert_allclose(gradient_pdf(1.0, 1.0), 0.3032653298563167, rtol=1e-12)


class TestGradientInverseCdf:
    def test_median_is_zero(self):
        assert gradient_inverse_cdf(0.5, 1.0) == 0.0

    def test_frozen_quartiles_with_bisection_oracle(self):
        # oracle: bisection inversion of the numerically integrated CDF
        def cdf_numeric(u):
            val, _ = integrate.quad(gradient_pdf, -12, u, args=(1.0,))
            return val

        root = optimize.brentq(lambda u: cdf_numeric(u) - 0.25, -12, 0, xtol=1e-12)
        assert_allclose(gradient_inverse_cdf(0.25, 1.0), root, atol=1e-9)
        assert_allclose(gradient_inverse_cdf(0.25, 1.0), -math.sqrt(2 * math.log(2)), rtol=1e-12)
        assert_allclose(gradient_inverse_cdf(0.25, 1.0), -1.1774100225154747, rtol=1e-12)
        assert_allclose(gradient_inverse_cdf(0.75, 1.0), 1.1774100225154747, rtol=1e-12)

    def test_identity_against_numeric_cdf(self):
        xi = np.arange(0.01, 1.0, 0.01)
        u = gradient_inverse_cdf(xi, 1.0)
        cdf = np.array([integrate.quad(gradient_pdf, -12, ui, args=(1.0,))[0] for ui in u])
        assert np.abs(cdf - xi).max() < 1e-6

    def test_monotone(self):
        xi = np.linspace(1e-6, 1 - 1e-6, 4001)
        u = gradient_inverse_cdf(xi, 0.7)
        assert np.all(np.diff(u) >= 0)

    @given(st.floats(0.001, 0.999), st.floats(0.05, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_sigma_scaling_exact(self, xi, sigma):
        assert gradient_inverse_cdf(xi, sigma) == sigma * gradient_inverse_cdf(xi, 1.0)

    @given(st.floats(0.001, 0.499))
    @settings(max_examples=100, deadline=None)
    def test_antisymmetric_about_half(self, xi):
        lo = gradient_inverse_cdf(xi, 1.0)
        hi = gradient_inverse_cdf(1.0 - xi, 1.0)
        assert math.isclose(lo, -hi, rel_tol=1e-12, abs_tol=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                gradient_inverse_cdf(bad, 1.0)

    def test_non_finite_rejected(self):
        # a NaN used to pass the domain check and come back as NaN
        for bad in (np.nan, np.inf, [0.3, np.nan], np.array([[0.2, 0.7], [np.nan, 0.5]])):
            with pytest.raises(ValueError):
                gradient_inverse_cdf(bad, 1.0)

    def test_leaves_its_input_and_returns_a_new_value(self):
        xi = np.array([[0.2, 0.7, 0.5], [1e-300, 0.999, 0.25]])
        before = xi.copy()
        out = gradient_inverse_cdf(xi, 0.4)
        assert np.array_equal(xi, before)
        assert out.shape == xi.shape and not np.shares_memory(out, xi)
        for scalar in (0.3, np.float64(0.3), np.array(0.3)):
            u = gradient_inverse_cdf(scalar, 0.4)
            assert type(u) is float and u == gradient_inverse_cdf(np.array([0.3]), 0.4)[0]


class TestHessianDiagCdf:
    @pytest.mark.parametrize("sigma", [0.4, 1.0, 3.1])
    def test_quarter_at_minus_sigma_exact(self, sigma):
        assert hessian_diag_cdf(-sigma, sigma) == 0.25

    def test_half_at_zero(self):
        assert hessian_diag_cdf(0.0, 1.7) == 0.5

    def test_three_quarters_at_plus_sigma(self):
        # symmetry with the u = -sigma anchor; quadrature cross-check
        assert hessian_diag_cdf(1.0, 1.0) == 0.75
        quad_val, _ = integrate.quad(hessian_diag_pdf, -14, 1.0, args=(1.0,))
        assert abs(quad_val - 0.75) < 1e-8

    def test_matches_quadrature(self):
        for u in (-2.5, -1.0, -0.3, 0.9, 2.0):
            quad_val, _ = integrate.quad(hessian_diag_pdf, -14, u, args=(1.0,))
            assert abs(hessian_diag_cdf(u, 1.0) - quad_val) < 1e-8

    def test_monotone_grid_and_endpoints(self):
        sigma = 1.3
        u = np.linspace(-10 * sigma, 10 * sigma, 10_001)
        cdf = hessian_diag_cdf(u, sigma)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] < 1e-9
        assert cdf[-1] > 1 - 1e-9


def test_hessian_diag_sign_structure():
    """Negative strictly inside (-sigma, sigma), positive outside, zero at roots."""
    sigma = 0.9
    spec = KernelSpec(sigma, 1)
    elem = KernelElement.hessian_diag(0)
    inside = np.linspace(-sigma + 1e-9, sigma - 1e-9, 101)
    outside = np.concatenate([np.linspace(-4 * sigma, -sigma - 1e-9, 50),
                              np.linspace(sigma + 1e-9, 4 * sigma, 50)])
    assert all(hessian_kernel([u], elem, spec) < 0 for u in inside)
    assert all(hessian_kernel([u], elem, spec) > 0 for u in outside)
    assert hessian_kernel([sigma], elem, spec) == 0.0


class TestAxisBlur:
    def test_zero_at_origin(self):
        assert axis_blur_gradient_kernel(0.0, 1.0) == 0.0

    def test_coincides_with_gradient_kernel_1d(self):
        spec = KernelSpec(1.4, 1)
        for u in (-2.0, -0.5, 0.7, 3.0):
            assert_allclose(axis_blur_gradient_kernel(u, 1.4), gradient_kernel([u], 0, spec), rtol=1e-14)

    def test_frozen_value(self):
        assert_allclose(axis_blur_gradient_kernel(1.0, 1.0), -0.2419707245191434, rtol=1e-12)


@pytest.mark.parametrize("sigma", [0.0, -1.0])
@pytest.mark.parametrize("fn", [axis_blur_gradient_kernel, gradient_pdf, gradient_inverse_cdf,
                                hessian_diag_pdf, hessian_diag_cdf, gradient_cdf, gaussian_cdf_1d],
                         ids=lambda fn: fn.__name__)
def test_one_axis_functions_reject_a_nonpositive_sigma(fn, sigma):
    with pytest.raises(ValueError, match=f"sigma must be > 0, got {sigma}"):
        fn(0.3, sigma)


def test_normalization_constants_closed_form():
    # closed forms agree with quadrature; quadrature is the test-side oracle
    part, _ = integrate.quad(lambda u: abs(float(axis_blur_gradient_kernel(u, 1.3))), -15, 15)
    assert_allclose(gradient_partition(1.3), part, rtol=1e-9)
    mass, _ = integrate.quad(
        lambda u: abs((u - 1.3) * (u + 1.3)) / 1.3**4 * gaussian_pdf_1d(u, 1.3), -15, 15)
    assert_allclose(hessian_diag_scale(1.3), 1.0 / mass, rtol=1e-9)


def test_gradient_cdf_matches_quadrature():
    for u in (-3.0, -0.8, 0.0, 1.2, 4.0):
        # split at the |u| kink so the quadrature stays accurate
        val, _ = integrate.quad(gradient_pdf, -14, min(u, 0.0), args=(1.0,))
        if u > 0:
            val += integrate.quad(gradient_pdf, 0.0, u, args=(1.0,))[0]
        assert abs(gradient_cdf(u, 1.0) - val) < 1e-9
