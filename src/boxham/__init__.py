"""Spectral structure of lattice operators with box-constant disorder.

Finite truncations of Delta + sum_n omega_n P_n on Z^d with the potential
constant over rectangular boxes: geometry and exact operator identities
(`lattice`), restricted resolvents and the large-r Schur/Neumann reduction
(`resolvent`), boundary-perturbed tridiagonal expansions (`tridiag`),
Kronecker-sum cluster analysis (`cluster`), the coefficient-separation design
(`separation`), exact cyclotomic zero tests (`cyclotomic`), compensated
arithmetic (`compensated`), and the reproducible experiment harness + CLI
(`harness`, `cli`).
"""

from .cluster import (
    AdmissibilityReport,
    GapReport,
    admissibility,
    classify_pair,
    min_nonzero_gaps,
    predicted_cluster_energy,
    verify_gaps,
)
from .cyclotomic import cos_sum_is_zero, cyclotomic_polynomial, verify_nonvanishing
from .errors import (
    BoxhamError,
    CombinatorialLimitError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    IncompleteSampleError,
    MagnitudeError,
    MatchingError,
    PrecisionWarning,
    SpectralProximityError,
    VolumeError,
)
from .harness import (
    ExperimentConfig,
    constancy_scan,
    cyclic_rank_check,
    gap_growth_probe,
    load_config,
    multiplicity_scan,
    parse_config_text,
    sample_disorder,
)
from .lattice import (
    BoxPartition,
    DisorderSample,
    LatticeOperator,
    build_hamiltonian,
    build_laplacian,
    build_partition,
)
from .resolvent import (
    RestrictedResolvent,
    SchurReduced,
    neumann_truncation,
    restricted_resolvent,
    schur_reduced,
    truncation_remainder,
)
from .separation import verify_separation
from .tridiag import TridiagSpec, c_coefficient, exact_spectrum, predicted_eigenvalue

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BoxPartition",
    "BoxhamError",
    "CombinatorialLimitError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateInputError",
    "DisorderSample",
    "ExperimentConfig",
    "GapReport",
    "IncompleteSampleError",
    "LatticeOperator",
    "MagnitudeError",
    "MatchingError",
    "PrecisionWarning",
    "RestrictedResolvent",
    "SchurReduced",
    "SpectralProximityError",
    "TridiagSpec",
    "VolumeError",
    "admissibility",
    "build_hamiltonian",
    "build_laplacian",
    "build_partition",
    "c_coefficient",
    "classify_pair",
    "constancy_scan",
    "cos_sum_is_zero",
    "cyclic_rank_check",
    "cyclotomic_polynomial",
    "exact_spectrum",
    "gap_growth_probe",
    "load_config",
    "min_nonzero_gaps",
    "multiplicity_scan",
    "neumann_truncation",
    "parse_config_text",
    "predicted_cluster_energy",
    "predicted_eigenvalue",
    "restricted_resolvent",
    "sample_disorder",
    "schur_reduced",
    "truncation_remainder",
    "verify_gaps",
    "verify_nonvanishing",
    "verify_separation",
]
