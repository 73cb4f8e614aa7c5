"""Distance-matrix GNSS fault detection: test statistic, analytic nominal
distribution via first-order eigenvalue perturbation, and a seeded Monte
Carlo validation harness."""

from .edm import (
    ORDERING_MAGNITUDE,
    GramSpectrum,
    SquaredDistanceMatrix,
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
    elevation_angles,
    generate_constellation,
    nominal_pseudoranges,
    sample_pseudoranges,
    true_ranges,
)
from .montecarlo import (
    SimulationSummary,
    TrialBatch,
    inject_fault,
    run_trials,
    summarize,
)
from .perturbation import (
    DetectionThresholds,
    GramSensitivity,
    SensitivityTable,
    StatisticDistribution,
    detection_threshold,
    eigenvalue_sensitivities,
    eigenvalue_variance,
    gram_sensitivities,
    numerator_moments,
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
    "GramSensitivity",
    "GramSpectrum",
    "NoiseModel",
    "ORDERING_MAGNITUDE",
    "PseudorangeSample",
    "ScenarioGeometry",
    "SensitivityTable",
    "SimulationSummary",
    "SpectrumError",
    "SquaredDistanceMatrix",
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
    "elevation_angles",
    "finite_difference_audit",
    "generate_constellation",
    "gram_centered",
    "gram_from_positions",
    "gram_sensitivities",
    "inject_fault",
    "nominal_pseudoranges",
    "numerator_moments",
    "predict_q_distribution",
    "ratio_gaussian",
    "run_trials",
    "sample_pseudoranges",
    "spectrum",
    "summarize",
    "test_statistic",
    "true_ranges",
]
