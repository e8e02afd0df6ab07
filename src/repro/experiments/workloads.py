"""Canonical experiment workloads.

A :class:`Workload` fixes every random choice of the pipeline: the
synthetic Internet, the observation points, and the training/validation
split.  :func:`prepare` runs the shared, expensive prefix work (ground
truth simulation, dump collection, cleaning, classification, pruning,
splits) once per workload and caches the result for the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bgp.engine import simulate
from repro.data.observation import (
    ObservationPoint,
    collect_dataset,
    select_observation_points,
)
from repro.data.synthesis import SyntheticConfig, SyntheticInternet, synthesize_internet
from repro.topology.classify import ASClassification
from repro.topology.dataset import PathDataset
from repro.topology.graph import ASGraph
from repro.topology.prune import PruneResult, prepare_dataset
from repro.core.split import split_by_observation_points


@dataclass(frozen=True)
class Workload:
    """A fully-determined experiment input."""

    name: str
    config: SyntheticConfig
    n_observation_ases: int
    observation_seed: int = 7
    multi_point_fraction: float = 0.4
    split_seed: int = 11
    training_fraction: float = 0.5

    def scaled(self, factor: float, name: str | None = None) -> "Workload":
        """A workload with the Internet population scaled by ``factor``."""
        return replace(
            self,
            name=name or f"{self.name}-x{factor}",
            config=self.config.scaled(factor),
            n_observation_ases=max(4, round(self.n_observation_ases * factor)),
        )


SMALL = Workload(
    name="small",
    config=SyntheticConfig(seed=1, n_level1=4, n_level2=8, n_other=14, n_stub=30),
    n_observation_ases=20,
    multi_point_fraction=0.5,
)
"""Seconds-scale workload used by tests and quick runs."""

DEFAULT = Workload(
    name="default",
    config=SyntheticConfig(
        seed=42, n_level1=5, n_level2=10, n_other=26, n_stub=62,
        weird_session_fraction=0.12,
    ),
    n_observation_ases=30,
    multi_point_fraction=0.45,
)
"""The workload the EXPERIMENTS.md numbers are reported on.

Sized so the full experiment matrix — including the ablations, which
re-refine the model ten times — completes in minutes on one core; the
refinement problem is already two orders of magnitude beyond the toy
figures of the paper (thousands of observed unique paths).
"""

LARGE = Workload(
    name="large",
    config=SyntheticConfig(
        seed=7, n_level1=6, n_level2=16, n_other=40, n_stub=110,
        weird_session_fraction=0.12,
    ),
    n_observation_ases=45,
    multi_point_fraction=0.45,
)
"""Tens-of-minutes workload (172 ASes) for scaling studies."""

WORKLOADS = {workload.name: workload for workload in (SMALL, DEFAULT, LARGE)}
"""The canonical workloads by name (what every ``--workload`` flag chooses from)."""


@dataclass
class PreparedWorkload:
    """Everything downstream experiments need, computed once."""

    workload: Workload
    internet: SyntheticInternet
    points: list[ObservationPoint]
    dataset: PathDataset
    graph: ASGraph
    level1: set[int]
    classification: ASClassification
    pruned: PruneResult
    training: PathDataset
    validation: PathDataset
    ground_truth_messages: int = 0

    @property
    def model_dataset(self) -> PathDataset:
        """The cleaned, pruned dataset models are built from."""
        return self.pruned.dataset

    @property
    def model_graph(self) -> ASGraph:
        """The pruned AS graph models are built on."""
        return self.pruned.graph


_CACHE: dict[Workload, PreparedWorkload] = {}


def prepare(workload: Workload = DEFAULT) -> PreparedWorkload:
    """Run the shared pipeline for ``workload`` (cached)."""
    if workload in _CACHE:
        return _CACHE[workload]

    internet = synthesize_internet(workload.config)
    stats = simulate(internet.network)
    points = select_observation_points(
        internet,
        workload.n_observation_ases,
        seed=workload.observation_seed,
        multi_point_fraction=workload.multi_point_fraction,
    )
    collected = collect_dataset(internet.network, points)
    # Simulated paths are loop-free, so cleaning drops no AS: a seed seen
    # here is in the graph prepare_dataset builds.
    observed = collected.all_asns()
    seeds = [asn for asn in internet.level1_asns if asn in observed][:3]
    dataset, graph, level1, classification, pruned = prepare_dataset(
        collected, seeds
    )
    training, validation = split_by_observation_points(
        pruned.dataset, workload.training_fraction, seed=workload.split_seed
    )
    prepared = PreparedWorkload(
        workload=workload,
        internet=internet,
        points=points,
        dataset=dataset,
        graph=graph,
        level1=level1,
        classification=classification,
        pruned=pruned,
        training=training,
        validation=validation,
        ground_truth_messages=stats.messages,
    )
    _CACHE[workload] = prepared
    return prepared
