"""Smoothed-derivative estimation for black-box optimization.

Estimate gradients, Hessians, and Hessian-vector products of a smoothed
black-box objective by importance-sampled Gaussian-derivative
convolutions, and feed them to first- and second-order optimizers.
"""

from .kernels import (
    ElementKind,
    KernelElement,
    KernelSpec,
    axis_blur_gradient_kernel,
    gaussian_pdf,
    gradient_cdf,
    gradient_elements,
    gradient_inverse_cdf,
    gradient_kernel,
    gradient_pdf,
    hessian_diag_cdf,
    hessian_diag_pdf,
    hessian_elements,
    hessian_kernel,
)
from .samplers import (
    RngStream,
    TabulatedInverseCdf,
    build_hessian_diag_table,
    element_pdf,
    mixture_pdf,
)
from .estimators import (
    EstimationError,
    EstimatorConfig,
    GradientEstimate,
    HessianEstimate,
    HvpEstimate,
    Objective,
    SamplingMode,
    estimate_gradient,
    estimate_gradient_fd,
    estimate_gradient_fr22,
    estimate_hessian,
    estimate_hvp,
    greybox_gradient,
    greybox_hessian,
)
from .optimizers import (
    OptimizerState,
    SigmaSchedule,
    TrustRegion,
    anneal_sigma,
    gd_adam_run,
    gd_adam_step,
    newton_cg_run,
    newton_step,
    psd_modify,
)
from .tasks import (
    RasterScene,
    Task,
    box_task,
    make_task,
    negated_gaussian_task,
    phong_sphere_task,
    quad_task,
    read_image,
    texture_task,
    write_image,
)
from .trace import Budget, ConvergenceTrace, NonFiniteStateError, TraceRecord
from .harness import (
    EnsembleResult,
    RunConfig,
    ThresholdStat,
    VarianceReport,
    export_traces,
    load_traces,
    run_ensemble,
    summarize_traces,
    variance_report,
)

__version__ = "0.1.0"
