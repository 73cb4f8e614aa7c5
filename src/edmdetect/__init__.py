"""Distance-matrix GNSS fault detection: test statistic, analytic nominal
distribution via first-order eigenvalue perturbation, and a seeded Monte
Carlo validation harness. It exports what its commands read; a noisy or
faulted rho is array arithmetic on ``nominal_pseudoranges(...).rho``."""

from .edm import (
    augment_edm,
    centered_gram,
    centered_gram_eigvals,
    centering_matrix,
    edm_from_gram,
    gram_centered,
    gram_from_positions,
    spectrum,
    test_statistic,
)
from .errors import (
    ConfigError,
    ConstellationSamplingError,
    DegenerateEigenvalueError,
    GeometryError,
    SpectrumError,
)
from .geometry import (
    NoiseModel,
    PseudorangeSample,
    ScenarioGeometry,
    generate_constellation,
    nominal_pseudoranges,
    true_ranges,
)
from .montecarlo import (
    SimulationSummary,
    TrialBatch,
    run_trials,
    summarize,
)
from .perturbation import (
    DetectionThresholds,
    StatisticDistribution,
    detection_threshold,
    eigenvalue_sensitivities,
    eigenvalue_variance,
    gram_sensitivities,
    predict_q_distribution,
    ratio_gaussian,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The audit loads on first use, so `import edmdetect` never compiles it.
    if name in ("FiniteDifferenceAudit", "finite_difference_audit"):
        from . import audit

        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConfigError",
    "ConstellationSamplingError",
    "DegenerateEigenvalueError",
    "DetectionThresholds",
    "FiniteDifferenceAudit",
    "GeometryError",
    "NoiseModel",
    "PseudorangeSample",
    "ScenarioGeometry",
    "SimulationSummary",
    "SpectrumError",
    "StatisticDistribution",
    "TrialBatch",
    "augment_edm",
    "centered_gram",
    "centered_gram_eigvals",
    "centering_matrix",
    "detection_threshold",
    "edm_from_gram",
    "eigenvalue_sensitivities",
    "eigenvalue_variance",
    "finite_difference_audit",
    "generate_constellation",
    "gram_centered",
    "gram_from_positions",
    "gram_sensitivities",
    "nominal_pseudoranges",
    "predict_q_distribution",
    "ratio_gaussian",
    "run_trials",
    "spectrum",
    "summarize",
    "test_statistic",
    "true_ranges",
]
