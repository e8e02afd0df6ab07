"""Unit tests for small pieces: errors, sessions, stats, workload scaling."""

import pytest

from repro.bgp.engine import DIVERGED, EngineStats, Quarantine
from repro.bgp.network import Network
from repro.data.synthesis import SyntheticConfig
from repro.errors import (
    DatasetError,
    ParseError,
    RefinementError,
    ReproError,
    SimulationError,
    TopologyError,
)
from repro.experiments.workloads import DEFAULT
from repro.net.prefix import Prefix


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ParseError, TopologyError, SimulationError, RefinementError, DatasetError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_parse_error_is_value_error(self):
        assert issubclass(ParseError, ValueError)


class TestSession:
    def test_kind_detection(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        c = net.add_router(1)
        ebgp, _ = net.connect(a, b)
        ibgp, _ = net.connect(a, c)
        assert ebgp.is_ebgp and not ebgp.is_ibgp
        assert ibgp.is_ibgp and not ibgp.is_ebgp

    def test_ensure_maps_create_once(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        session, _ = net.connect(a, b)
        first = session.ensure_import_map()
        assert session.ensure_import_map() is first
        assert session.import_map is first
        export = session.ensure_export_map()
        assert session.export_map is export

    def test_repr_names_endpoints(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        session, _ = net.connect(a, b)
        assert "AS1.r1" in repr(session) and "AS2.r1" in repr(session)


class TestEngineStats:
    def test_merge_accumulates(self):
        a = EngineStats(prefixes=1, messages=10, decisions=5)
        a.per_prefix_messages[Prefix("10.0.0.0/24")] = 10
        b = EngineStats(prefixes=2, messages=20, decisions=7)
        b.quarantined.append(Quarantine(Prefix("10.0.1.0/24"), DIVERGED, 21, 20))
        b.supervision = {"spawns": 2}
        a.merge(b)
        assert a.prefixes == 3
        assert a.messages == 30
        assert a.decisions == 12
        assert a.diverged == [Prefix("10.0.1.0/24")]
        assert a.supervision == {"spawns": 2}
        assert len(a.per_prefix_messages) == 1


class TestWorkloadScaling:
    def test_scaled_config_scales_populations(self):
        scaled = SyntheticConfig(n_stub=100).scaled(0.5)
        assert scaled.n_stub == 50

    def test_scaled_keeps_fractions(self):
        base = SyntheticConfig(weird_session_fraction=0.2)
        assert base.scaled(2.0).weird_session_fraction == 0.2

    def test_scaled_floors_protect_minimums(self):
        tiny = SyntheticConfig().scaled(0.01)
        assert tiny.n_level1 >= 3
        assert tiny.n_stub >= 6

    def test_workload_scaled(self):
        scaled = DEFAULT.scaled(0.5, name="half")
        assert scaled.name == "half"
        assert scaled.n_observation_ases == round(DEFAULT.n_observation_ases * 0.5)
        assert scaled.config.n_stub == round(DEFAULT.config.n_stub * 0.5)

    def test_workload_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT.name = "x"
