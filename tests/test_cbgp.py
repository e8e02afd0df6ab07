"""Tests for the C-BGP-style config export/parse round-trip."""

import io
import random

import pytest

from repro.bgp import Network, simulate
from repro.bgp.policy import Action, Clause, Match
from repro.cbgp import export_model, export_network, parse_script
from repro.cbgp.parse import parse_file
from repro.core.build import build_initial_model
from repro.core.model import MODEL_DECISION_CONFIG
from repro.core.refine import Refiner
from repro.errors import ParseError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.dataset import ObservedRoute, PathDataset

P = Prefix("10.0.0.0/24")


def round_trip(net: Network) -> Network:
    buffer = io.StringIO()
    export_network(net, buffer)
    return parse_script(io.StringIO(buffer.getvalue()))


def build_rich_network() -> Network:
    net = Network()
    r1 = net.add_router(1)
    r2a, r2b = net.add_router(2), net.add_router(2)
    r3 = net.add_router(3)
    net.ases[2].igp.add_link(r2a.router_id, r2b.router_id, 4)
    net.ibgp_full_mesh(2)
    net.connect(r1, r2a)
    net.connect(r2b, r3)
    net.connect(r1, r3)
    session = net.get_session(r3, r1)
    session.ensure_export_map().append(
        Clause(Match(prefix=P, path_len_lt=2), Action.DENY, tag="refine-filter")
    )
    session_in = net.get_session(r2a, r1)
    session_in.ensure_import_map().append(
        Clause(
            Match(from_asn=2),
            Action.PERMIT,
            set_local_pref=90,
            set_med=10,
            prepend=1,
            add_communities=frozenset((77,)),
        )
    )
    net.originate(r3, P)
    return net


class TestRoundTrip:
    def test_stats_preserved(self):
        net = build_rich_network()
        clone = round_trip(net)
        assert clone.stats() == net.stats()

    def test_igp_costs_preserved(self):
        net = build_rich_network()
        clone = round_trip(net)
        routers = clone.as_routers(2)
        assert clone.ases[2].igp.cost(routers[0].router_id, routers[1].router_id) == 4

    def test_policies_preserved_semantically(self):
        net = build_rich_network()
        clone = round_trip(net)
        simulate(net)
        simulate(clone)
        for rid, router in net.routers.items():
            best = router.best(P)
            clone_best = clone.routers[rid].best(P)
            if best is None:
                assert clone_best is None
            else:
                assert clone_best.as_path == best.as_path

    def test_clause_fields_survive(self):
        net = build_rich_network()
        clone = round_trip(net)
        r1 = clone.as_routers(1)[0]
        r2a = clone.as_routers(2)[0]
        session = clone.get_session(r2a, r1)
        clause = next(session.import_map.clauses())
        assert clause.set_local_pref == 90
        assert clause.set_med == 10
        assert clause.prepend == 1
        assert clause.add_communities == frozenset((77,))
        assert clause.match.from_asn == 2

    def test_refined_model_round_trips(self):
        ds = PathDataset(
            [
                ObservedRoute("a", 1, P, ASPath((1, 2, 4))),
                ObservedRoute("b", 1, P, ASPath((1, 3, 4))),
            ]
        )
        model = build_initial_model(ds)
        Refiner(model, ds).run()
        buffer = io.StringIO()
        export_model(model, buffer)
        clone = parse_script(io.StringIO(buffer.getvalue()))
        assert clone.stats() == model.network.stats()
        simulate(clone, config=MODEL_DECISION_CONFIG)
        prefix = model.canonical_prefix(4)
        original_paths = {
            r.best(prefix).as_path
            for r in model.network.as_routers(1)
            if r.best(prefix)
        }
        clone_paths = {
            r.best(prefix).as_path for r in clone.as_routers(1) if r.best(prefix)
        }
        assert clone_paths == original_paths


class TestParserErrors:
    def test_unknown_line_rejected(self):
        with pytest.raises(ParseError):
            parse_script(io.StringIO("bogus directive\n"))

    def test_unterminated_rule_rejected(self):
        text = (
            "net add node 0.1.0.1\n"
            "bgp add router 1 0.1.0.1\n"
            "net add node 0.2.0.1\n"
            "bgp add router 2 0.2.0.1\n"
            "bgp router 0.1.0.1 add peer 2 0.2.0.1\n"
            "bgp router 0.1.0.1 peer 0.2.0.1 filter in add-rule\n"
            '  match "any"\n'
        )
        with pytest.raises(ParseError):
            parse_script(io.StringIO(text))

    def test_asn_mismatch_rejected(self):
        text = "net add node 0.1.0.1\nbgp add router 9 0.1.0.1\n"
        with pytest.raises(ParseError):
            parse_script(io.StringIO(text))

    def test_cross_as_igp_link_rejected(self):
        text = (
            "net add node 0.1.0.1\n"
            "net add node 0.2.0.1\n"
            "net add link 0.1.0.1 0.2.0.1 3\n"
        )
        with pytest.raises(ParseError):
            parse_script(io.StringIO(text))

    def test_comments_ignored(self):
        net = parse_script(io.StringIO("# nothing but comments\n\n"))
        assert net.stats()["routers"] == 0

    @pytest.mark.parametrize("line, culprit", [
        ("net add link 0.1.0.1 0.1.0.2", "net add link"),         # arity
        ("net add link 0.1.0.1 0.1.0.2 cheap", "cheap"),          # bad cost
        ("net add link 0.1.0.1 0.1.0.2 0", "positive"),           # refused cost
        ("bgp add router 1", "bgp add router"),                   # arity
        ("bgp add router one 0.1.0.1", "one"),                    # bad ASN
        ("bgp router 0.1.0.1 add peer 2", "add peer"),            # arity
        ("bgp add peer 2 0.2.0.1", "add peer"),                   # no owner
        ("bgp router 0.1.0.1 add peer 1 0.1.0.1", "itself"),      # self peering
        ("net add node", "net add node"),                         # no address
        ("net add node 0.1.0.0", "index 0"),                      # router index 0
        ("bgp router 0.1.0.1 add network 10.0.0.0", "10.0.0.0"),  # no length
    ])
    def test_corrupt_directive_is_a_parse_error_naming_the_line(self, line, culprit):
        text = "# header\nnet add node 0.1.0.1\n" + line + "\n"
        with pytest.raises(ParseError, match="line 3: ") as caught:
            parse_script(io.StringIO(text))
        assert culprit in str(caught.value)

    @pytest.mark.parametrize("inner", [
        "iter x", 'match "path-length < many"', 'action "metric low"',
        'match "neighbor is 0.1.0"', "bogus",
    ])
    def test_corrupt_rule_line_is_a_parse_error_naming_the_line(self, inner):
        text = (
            "net add node 0.1.0.1\nnet add node 0.2.0.1\n"
            "bgp router 0.1.0.1 peer 0.2.0.1 filter in add-rule\n"
            f"  {inner}\n  exit\n"
        )
        with pytest.raises(ParseError, match="line 4: "):
            parse_script(io.StringIO(text))

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "corrupt.cfg"
        path.write_bytes(b"net add node 0.1.0.1\nnet add \xff node 0.2.0.1\n")
        with pytest.raises(ParseError, match="not text"):
            parse_file(path)

    def test_mutated_exports_parse_or_raise_parse_error(self):
        """Seeded mutation fuzz: no other exception type may escape."""
        buffer = io.StringIO()
        export_network(build_rich_network(), buffer)
        lines = buffer.getvalue().splitlines(keepends=True)
        rng = random.Random(20060911)
        outcomes = {"parsed": 0, "rejected": 0}
        for _ in range(2500):
            mutated = list(lines)
            for _ in range(rng.randint(1, 3)):
                index = rng.randrange(len(mutated))
                kind = rng.choice(("drop", "duplicate", "truncate", "flip"))
                line = mutated[index]
                if kind == "drop":
                    del mutated[index]
                elif kind == "duplicate":
                    mutated.insert(index, line)
                elif kind == "truncate":
                    mutated[index] = line[: rng.randrange(len(line))] + "\n"
                else:
                    raw = bytearray(line.encode())
                    raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
                    mutated[index] = raw.decode("latin-1")
                if not mutated:
                    break
            try:
                parse_script(mutated)
            except ParseError as error:
                assert str(error).startswith("line "), error
                outcomes["rejected"] += 1
            else:
                outcomes["parsed"] += 1
        # The fuzz must reach both verdicts to mean anything.
        assert outcomes["parsed"] > 100 and outcomes["rejected"] > 100
