"""Rainbow network flows: diversity routing of balanced description codes.

The package models capacitated directed networks, routes colored flow
paths (descriptions) through them, builds working balanced
multiple-description codecs on top of priority encoding, and evaluates or
optimizes the per-sink distortion vectors those flows achieve.
"""

from .distortion import (
    GAUSSIAN,
    BalancedDesign,
    DistortionModel,
    ProfileOptimum,
    StepDensity,
    crnf_distortion,
    description_rates,
    drnf_distortion,
    minimize_balanced_average,
    optimize_pet_profile,
    ozarow_joint_bound,
    profile_objective,
    weighted_distortion,
)
from .errors import (
    CodecError,
    FlowDocumentError,
    RainbowNetError,
    ScenarioError,
    SearchSizeError,
)
from .flows import (
    AdmissibilityReport,
    ContinuousRnf,
    DiscreteRnf,
    EdgeSlack,
    RainbowFlowVector,
    check_admissibility,
    edge_spectrum,
    flow_to_document,
    is_admissible,
    load_flow,
    node_spectrum,
    rainbow_flow_vector,
    refine,
    spectrum_measure,
    total_rainbow_flow,
)
from .intervals import IntervalSet
from .network import (
    Edge,
    FlowPath,
    Network,
    load_scenario,
    max_flow,
)
from .pet import (
    Description,
    DescriptionSet,
    PetProfile,
    description_from_bytes,
    description_to_bytes,
    pet_decode,
    pet_encode,
)
from .progressive import ProgressiveGaussianSource, progressive_gaussian_source
from .search import (
    BaselineResult,
    SearchConfig,
    SearchResult,
    alternating_search,
    exact_search,
    greedy_search,
    route,
    separate_coding_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BalancedDesign",
    "BaselineResult",
    "CodecError",
    "ContinuousRnf",
    "Description",
    "DescriptionSet",
    "DiscreteRnf",
    "DistortionModel",
    "Edge",
    "EdgeSlack",
    "FlowDocumentError",
    "FlowPath",
    "GAUSSIAN",
    "IntervalSet",
    "Network",
    "PetProfile",
    "ProfileOptimum",
    "ProgressiveGaussianSource",
    "RainbowFlowVector",
    "RainbowNetError",
    "ScenarioError",
    "SearchConfig",
    "SearchResult",
    "SearchSizeError",
    "StepDensity",
    "alternating_search",
    "check_admissibility",
    "crnf_distortion",
    "description_from_bytes",
    "description_rates",
    "description_to_bytes",
    "drnf_distortion",
    "edge_spectrum",
    "exact_search",
    "flow_to_document",
    "greedy_search",
    "is_admissible",
    "load_flow",
    "load_scenario",
    "max_flow",
    "minimize_balanced_average",
    "node_spectrum",
    "optimize_pet_profile",
    "ozarow_joint_bound",
    "pet_decode",
    "pet_encode",
    "profile_objective",
    "progressive_gaussian_source",
    "rainbow_flow_vector",
    "refine",
    "route",
    "separate_coding_baseline",
    "spectrum_measure",
    "total_rainbow_flow",
    "weighted_distortion",
]
