"""Effective information and ERM capacities for finite discrete systems.

A channel's output picks out a posterior over its inputs (the actual
repertoire); the KL divergence of that posterior from the prior is the
effective information of the output. Averaged over outputs this recovers
Shannon entropy and mutual information, and applied to empirical risk
minimization over a finite hypothesis space it recovers empirical
VC-entropy and Rademacher complexity exactly.
"""

from .channels import ATOL, Alphabet, Channel, Distribution, copy_channel
from .deterministic import (
    DeterministicMap,
    actual_repertoire_det,
    channel_of_map,
    effective_probability,
    ei_deterministic,
    preimage,
)
from .errors import (
    EffinfoError,
    EnumerationCapError,
    UndefinedOutputError,
    ValidationError,
)
from .info import (
    actual_repertoire,
    effective_information,
    expected_effective_information,
    information_gain,
    kl_divergence,
    mutual_information,
    output_distribution,
    shannon_entropy,
)
from .learning import (
    DEFAULT_POINT_CAP,
    Dataset,
    FunctionClass,
    Labeling,
    LearnerAnalysis,
    PointSet,
    analyze_learner,
    empirical_risk,
    erm,
    restriction_count,
    vc_entropy,
)

__all__ = [
    "ATOL",
    "Alphabet",
    "Channel",
    "Distribution",
    "copy_channel",
    "DeterministicMap",
    "actual_repertoire_det",
    "channel_of_map",
    "effective_probability",
    "ei_deterministic",
    "preimage",
    "EffinfoError",
    "EnumerationCapError",
    "UndefinedOutputError",
    "ValidationError",
    "actual_repertoire",
    "effective_information",
    "expected_effective_information",
    "information_gain",
    "kl_divergence",
    "mutual_information",
    "output_distribution",
    "shannon_entropy",
    "DEFAULT_POINT_CAP",
    "Dataset",
    "FunctionClass",
    "Labeling",
    "LearnerAnalysis",
    "PointSet",
    "analyze_learner",
    "empirical_risk",
    "erm",
    "restriction_count",
    "vc_entropy",
]

__version__ = "0.1.0"
