"""Parse the C-BGP-style dialect written by :mod:`repro.cbgp.export`.

The parser rebuilds a :class:`~repro.bgp.Network`: nodes, IGP links, BGP
routers, per-direction peer filters and network originations.  Router ids
are recovered from the dotted-quad node addresses (high 16 bits = ASN).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, TextIO

from repro.bgp.network import Network
from repro.bgp.policy import Action, Clause, Match
from repro.bgp.router import Router, router_id_asn, router_id_index
from repro.errors import ParseError, TopologyError
from repro.net.ip import ip_from_string
from repro.net.prefix import Prefix

_RULE_HEAD = re.compile(
    r"^bgp router (\S+) peer (\S+) filter (in|out) add-rule$"
)


def parse_script(source: TextIO | Iterable[str]) -> Network:
    """Parse a script produced by :func:`repro.cbgp.export.export_network`.

    Malformed input of any kind — an unknown directive, a wrong token
    count, a bad number or address, a directive the topology rejects —
    raises :class:`~repro.errors.ParseError` naming the line number.
    """
    parser = _ScriptParser()
    number = 0
    try:
        for number, raw in enumerate(source, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parser.feed(line)
            except (ValueError, IndexError, TopologyError) as error:
                # ValueError covers ParseError, int()/float() and a wrong
                # token count on unpacking; IndexError a missing token;
                # TopologyError an edit the network refuses (a router
                # peering with itself, a prefix originated twice, a zero
                # IGP cost).
                raise ParseError(
                    f"line {number}: {error} in {line!r}"
                ) from error
    except UnicodeDecodeError as error:
        # Raised by the file object while reading ahead, so the position
        # is "somewhere after the last line delivered".
        raise ParseError(f"after line {number}: not text: {error}") from error
    if parser.pending_rule is not None:
        raise ParseError(f"line {number}: unterminated add-rule block")
    return parser.network


class _ScriptParser:
    """The network under construction plus the add-rule block being read."""

    def __init__(self) -> None:
        self.network = Network(name="parsed")
        self.routers_by_ip: dict[int, Router] = {}
        self.pending_rule: _PendingRule | None = None

    def router(self, ip_text: str) -> Router:
        """Return (creating if needed) the router with the encoded id."""
        router_id = ip_from_string(ip_text)
        router = self.routers_by_ip.get(router_id)
        if router is not None:
            return router
        asn = router_id_asn(router_id)
        index = router_id_index(router_id)
        if index == 0:
            raise ParseError(f"router address {ip_text} has router index 0")
        node = self.network.add_as(asn)
        while len(node.routers) < index:
            router = self.network.add_router(asn)
            self.routers_by_ip[router.router_id] = router
        return self.routers_by_ip[router_id]

    def feed(self, line: str) -> None:
        """Apply one non-blank, non-comment line."""
        network = self.network
        rule = self.pending_rule
        if rule is not None:
            if line == "exit":
                rule.install(network)
                self.pending_rule = None
            elif line.startswith("match "):
                rule.match = _parse_match(line[len("match ") :].strip().strip('"'))
            elif line.startswith("action "):
                rule.action = _parse_action(
                    line[len("action ") :].strip().strip('"')
                )
            elif line.startswith("tag "):
                rule.tag_text = line[len("tag ") :].strip().strip('"')
            elif line.startswith("iter "):
                rule.iteration = int(line[len("iter ") :].strip())
            else:
                raise ParseError("unexpected line inside add-rule")
        elif line.startswith("net add node "):
            self.router(line.split()[3])
        elif line.startswith("net add link "):
            _, _, _, ip_a, ip_b, cost = line.split()
            a, b = self.router(ip_a), self.router(ip_b)
            if a.asn != b.asn:
                raise ParseError("IGP link across ASes")
            network.ases[a.asn].igp.add_link(a.router_id, b.router_id, float(cost))
        elif line.startswith("bgp add router "):
            _, _, _, asn_text, ip_text = line.split()
            router = self.router(ip_text)
            if router.asn != int(asn_text):
                raise ParseError(
                    f"ASN mismatch for {ip_text}: declared {asn_text}, "
                    f"encoded {router.asn}"
                )
        elif " add peer " in line:
            head, _, tail = line.partition(" add peer ")
            _, peer_ip = tail.split()
            dst, src = self.router(head.split()[2]), self.router(peer_ip)
            if network.get_session(src, dst) is None:
                network.add_session(src, dst)
        elif " add network " in line:
            head, _, prefix_text = line.partition(" add network ")
            network.originate(
                self.router(head.split()[2]), Prefix(prefix_text.strip())
            )
        else:
            head = _RULE_HEAD.match(line)
            if head is None:
                raise ParseError("unrecognised line")
            self.pending_rule = _PendingRule(
                self.router(head.group(1)), self.router(head.group(2)), head.group(3)
            )


def parse_file(path: str | Path) -> Network:
    """Parse a C-BGP-style config file from disk into a :class:`Network`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_script(handle)


class _PendingRule:
    """An add-rule block being accumulated."""

    def __init__(self, owner: Router, peer: Router, direction: str):
        self.owner = owner
        self.peer = peer
        self.direction = direction
        self.match = Match()
        self.action: dict = {"action": Action.PERMIT}
        self.tag_text = ""
        self.iteration: int | None = None

    def install(self, network: Network) -> None:
        """Attach the parsed clause to the right session route-map."""
        owner, peer = self.owner, self.peer
        if self.direction == "in":
            session = network.get_session(peer, owner)
            if session is None:
                session = network.add_session(peer, owner)
            route_map = session.ensure_import_map()
        else:
            session = network.get_session(owner, peer)
            if session is None:
                session = network.add_session(owner, peer)
            route_map = session.ensure_export_map()
        route_map.append(
            Clause(
                match=self.match,
                tag=self.tag_text or None,
                iteration=self.iteration,
                **self.action,
            )
        )


def _parse_match(text: str) -> Match:
    """Parse a match expression back into a :class:`Match`."""
    if text == "any":
        return Match()
    kwargs: dict = {}
    for term in text.split(" & "):
        term = term.strip()
        if term.startswith("prefix is "):
            kwargs["prefix"] = Prefix(term[len("prefix is ") :])
        elif term.startswith("path-length < "):
            kwargs["path_len_lt"] = int(term[len("path-length < ") :])
        elif term.startswith("path-length > "):
            kwargs["path_len_gt"] = int(term[len("path-length > ") :])
        elif term.startswith("neighbor-as is "):
            kwargs["from_asn"] = int(term[len("neighbor-as is ") :])
        elif term.startswith("neighbor is "):
            kwargs["from_router"] = ip_from_string(term[len("neighbor is ") :])
        elif term.startswith('path "'):
            inner = term[len('path "') : -1]
            kwargs["path_contains"] = int(inner.strip(". *"))
        elif term.startswith("path-regex <"):
            kwargs["path_regex"] = term[len("path-regex <") : -1]
        elif term.startswith("community is "):
            kwargs["community"] = int(term[len("community is ") :])
        else:
            raise ParseError(f"unrecognised match term: {term!r}")
    return Match(**kwargs)


def _parse_action(text: str) -> dict:
    """Parse an action expression into Clause keyword arguments."""
    if text == "deny":
        return {"action": Action.DENY}
    kwargs: dict = {"action": Action.PERMIT}
    if text == "accept":
        return kwargs
    communities: set[int] = set()
    for part in text.split(", "):
        part = part.strip()
        if part.startswith("local-pref "):
            kwargs["set_local_pref"] = int(part[len("local-pref ") :])
        elif part.startswith("metric "):
            kwargs["set_med"] = int(part[len("metric ") :])
        elif part.startswith("as-path prepend "):
            kwargs["prepend"] = int(part[len("as-path prepend ") :])
        elif part == "community strip":
            kwargs["strip_communities"] = True
        elif part.startswith("community add "):
            communities.add(int(part[len("community add ") :]))
        else:
            raise ParseError(f"unrecognised action: {part!r}")
    if communities:
        kwargs["add_communities"] = frozenset(communities)
    return kwargs
