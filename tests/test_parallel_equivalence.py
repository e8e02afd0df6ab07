"""Property test: the supervised pool is observationally identical to the
sequential path on healthy inputs — same RIBs, all three tables of every
router by value (``tests/oracle``'s ``rib_contents``), same outcome
classification, same message counts — for arbitrary synthetic topologies."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.build import build_initial_model
from repro.core.model import simulate_pooled
from repro.core.refine import RefinementConfig, Refiner
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.parallel import ParallelConfig
from repro.topology.graph import ASGraph
from tests.oracle import rib_contents

pytestmark = pytest.mark.timeout(300)

TINY = dict(n_level1=3, n_level2=4, n_other=6, n_stub=10)


def ribs(network):
    """Prefix -> :func:`~tests.oracle.rib_contents`: every router's
    Adj-RIB-In, Loc-RIB and Adj-RIB-Out, by value."""
    return {prefix: rib_contents(network, prefix) for prefix in network.prefixes()}


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parallel_simulation_equals_sequential(seed):
    config = SyntheticConfig(seed=seed, **TINY)
    sequential = synthesize_internet(config).network
    parallel = synthesize_internet(config).network

    seq_stats = simulate_pooled(sequential)
    par_stats = simulate_pooled(parallel, parallel=ParallelConfig(workers=4))

    assert ribs(parallel) == ribs(sequential)
    assert par_stats.prefixes == seq_stats.prefixes
    assert sorted(par_stats.quarantined) == sorted(seq_stats.quarantined)
    assert par_stats.messages == seq_stats.messages
    assert par_stats.per_prefix_messages == seq_stats.per_prefix_messages


def test_parallel_refinement_equals_sequential():
    internet = synthesize_internet(SyntheticConfig(seed=11, **TINY))
    points = select_observation_points(internet, 6, seed=11)
    dataset = collect_dataset(internet.network, points).cleaned()

    def refine(parallel):
        graph = ASGraph.from_dataset(dataset)
        model = build_initial_model(dataset, graph)
        refiner = Refiner(
            model,
            dataset,
            RefinementConfig(max_iterations=6, parallel=parallel),
        )
        return refiner, refiner.run()

    seq_refiner, seq_result = refine(None)
    par_refiner, par_result = refine(ParallelConfig(workers=2))

    assert par_result.converged == seq_result.converged
    assert par_result.iteration_count == seq_result.iteration_count
    assert par_result.final_match_rate == seq_result.final_match_rate
    assert ribs(par_result.model.network) == ribs(seq_result.model.network)
    assert par_refiner.stats.prefixes == seq_refiner.stats.prefixes
    assert sorted(par_refiner.stats.quarantined) == sorted(
        seq_refiner.stats.quarantined
    )
