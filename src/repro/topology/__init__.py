"""AS-topology extraction and analysis from observed BGP AS-paths.

This package implements Section 3 of the paper: building the AS-level
graph from RIB dumps, inferring the level-1 (tier-1) clique, classifying
ASes (transit vs. stub, single- vs. multi-homed), pruning single-homed
stub ASes with path transfer, and quantifying route diversity (Figure 2,
Table 1).
"""

from repro.topology.dataset import ObservedRoute, PathDataset
from repro.topology.graph import ASGraph
from repro.topology.clique import infer_level1_clique
from repro.topology.classify import ASClassification, classify_ases
from repro.topology.prune import (
    prepare_dataset,
    prune_single_homed_stubs,
    restrict_to_largest_component,
)
from repro.topology.diversity import (
    DiversityReport,
    distinct_paths_histogram,
    max_unique_paths_per_as,
    prefixes_per_path_histogram,
    route_diversity_report,
)

__all__ = [
    "ObservedRoute",
    "PathDataset",
    "ASGraph",
    "infer_level1_clique",
    "ASClassification",
    "classify_ases",
    "prepare_dataset",
    "prune_single_homed_stubs",
    "restrict_to_largest_component",
    "DiversityReport",
    "distinct_paths_histogram",
    "max_unique_paths_per_as",
    "prefixes_per_path_histogram",
    "route_diversity_report",
]
