"""AS-topology extraction and analysis from observed BGP AS-paths.

This package implements Section 3 of the paper: building the AS-level
graph from RIB dumps, inferring the level-1 (tier-1) clique, classifying
ASes (transit vs. stub, single- vs. multi-homed), pruning single-homed
stub ASes with path transfer, and quantifying route diversity (Figure 2,
Table 1).

The package re-exports nothing: each caller imports the submodule it
runs, so a pipeline that reads a dataset does not load the route
diversity statistics (:mod:`repro.topology.diversity`).
"""
