"""Deterministic fault injection for networks and dump streams.

The harness makes the failure modes the runtime must survive reproducible
on demand:

* **dispute wheels** — local-pref cycles (the classic "bad gadget") that
  make BGP diverge for a prefix, mirroring the policy-induced divergence
  real relationship inference produces;
* **dump corruption** — garbled and truncated ``bgpdump -m`` lines, the
  noise real RouteViews/RIPE feeds contain;
* **session flaps** — eBGP peerings torn down before simulation;
* **message-budget exhaustion** — an artificially tiny per-prefix budget
  that forces :class:`~repro.errors.ConvergenceError` on healthy prefixes
  (which are then quarantined like a real divergence, visibly).

Everything is driven by a seeded :class:`random.Random`, so a
``FaultConfig`` fully determines the injected workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bgp.network import Network
from repro.bgp.policy import Clause, Match
from repro.errors import TopologyError
from repro.net.prefix import Prefix

WHEEL_TAG = "fault-wheel"
"""Route-map clause tag marking injected dispute-wheel policies."""

WHEEL_LOCAL_PREF = 200
"""Local-pref installed on wheel sessions (beats the default of 100)."""


@dataclass(frozen=True)
class FaultConfig:
    """A fully-determined fault workload."""

    seed: int = 0
    dispute_wheels: int = 0
    corrupt_line_fraction: float = 0.0
    truncate_line_fraction: float = 0.0
    session_flaps: int = 0
    message_budget: int | None = None
    worker_crash_prefixes: int = 0
    """Prefixes whose supervised-pool task kills its worker outright
    (``os._exit``), exercising crash resubmission and poison quarantine.
    Only meaningful for parallel runs."""
    worker_hang_prefixes: int = 0
    """Prefixes whose supervised-pool task hangs until the per-task
    watchdog fires.  Only meaningful for parallel runs."""


@dataclass
class FaultReport:
    """What was actually injected (for the RunHealth report)."""

    wheels: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    flapped: list[tuple[int, int]] = field(default_factory=list)
    corrupted_lines: int = 0
    truncated_lines: int = 0
    message_budget: int | None = None
    worker_crash: list[str] = field(default_factory=list)
    worker_hang: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serialisable summary."""
        return {
            "dispute_wheels": [
                {"prefix": prefix, "ases": list(ases)} for prefix, ases in self.wheels
            ],
            "flapped_sessions": [list(pair) for pair in self.flapped],
            "corrupted_lines": self.corrupted_lines,
            "truncated_lines": self.truncated_lines,
            "message_budget": self.message_budget,
            "worker_crash_prefixes": sorted(self.worker_crash),
            "worker_hang_prefixes": sorted(self.worker_hang),
        }


def inject_dispute_wheel(
    network: Network, prefix: Prefix, wheel_asns: tuple[int, ...]
) -> None:
    """Install a local-pref dispute wheel for ``prefix`` among ``wheel_asns``.

    Each AS in the cycle prefers any route for ``prefix`` announced by the
    next AS in the cycle over everything else (local-pref 200 import
    clauses on every session from the next AS), the textbook "bad gadget"
    that has no stable solution for odd cycles.  The same sessions get a
    force-permit export clause for the prefix, so relationship policies
    (valley-free export filters) cannot keep the wheel routes from
    circulating.  Every consecutive pair must be connected by at least
    one eBGP session.
    """
    if len(wheel_asns) < 3:
        raise TopologyError(f"a dispute wheel needs >= 3 ASes, got {wheel_asns}")
    for position, asn in enumerate(wheel_asns):
        next_asn = wheel_asns[(position + 1) % len(wheel_asns)]
        installed = 0
        for router in network.as_routers(asn):
            for session in router.sessions_in:
                if session.is_ebgp and session.src.asn == next_asn:
                    # Prepended so the wheel clauses shadow any existing
                    # relationship-policy clause for this prefix.
                    session.ensure_import_map().prepend(
                        Clause(
                            Match(prefix=prefix),
                            set_local_pref=WHEEL_LOCAL_PREF,
                            tag=WHEEL_TAG,
                        )
                    )
                    session.ensure_export_map().prepend(
                        Clause(Match(prefix=prefix), tag=WHEEL_TAG)
                    )
                    installed += 1
        if not installed:
            raise TopologyError(
                f"no eBGP session from AS{next_asn} into AS{asn}: "
                "cannot close the dispute wheel"
            )


def find_wheel_candidates(network: Network, limit: int | None = None) -> list[tuple[int, int, int]]:
    """AS triangles (sorted 3-cycles of the eBGP adjacency) usable as wheels."""
    neighbors: dict[int, set[int]] = {}
    for a, b in network.as_adjacencies():
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    triangles: list[tuple[int, int, int]] = []
    for a in sorted(neighbors):
        for b in sorted(n for n in neighbors[a] if n > a):
            for c in sorted(n for n in neighbors[a] & neighbors[b] if n > b):
                triangles.append((a, b, c))
                if limit is not None and len(triangles) >= limit:
                    return triangles
    return triangles


def inject_dispute_wheels(
    network: Network, config: FaultConfig, report: FaultReport, rng: random.Random
) -> None:
    """Sabotage ``config.dispute_wheels`` prefixes with local-pref wheels.

    Each wheel is an AS triangle that does not originate the chosen
    prefix, so the wheel oscillates over routes learned from elsewhere.
    """
    if config.dispute_wheels <= 0:
        return
    triangles = find_wheel_candidates(network)
    prefixes = network.prefixes()
    if not triangles or not prefixes:
        return
    chosen_prefixes = rng.sample(prefixes, min(config.dispute_wheels, len(prefixes)))
    for prefix in chosen_prefixes:
        origin_asns = {
            network.routers[router_id].asn for router_id in network.originators(prefix)
        }
        usable = [t for t in triangles if not origin_asns & set(t)]
        if not usable:
            continue
        wheel = rng.choice(usable)
        inject_dispute_wheel(network, prefix, wheel)
        report.wheels.append((str(prefix), wheel))


def flap_sessions(
    network: Network, count: int, report: FaultReport, rng: random.Random
) -> None:
    """Tear down ``count`` eBGP peerings (both directions), recording the pairs."""
    if count <= 0:
        return
    peerings = sorted(
        {
            (min(s.src.router_id, s.dst.router_id), max(s.src.router_id, s.dst.router_id))
            for s in network.ebgp_sessions()
        }
    )
    for id_a, id_b in rng.sample(peerings, min(count, len(peerings))):
        a, b = network.routers[id_a], network.routers[id_b]
        network.disconnect(a, b)
        report.flapped.append((a.asn, b.asn))


def select_worker_fault_prefixes(
    network: Network, config: FaultConfig, report: FaultReport, rng: random.Random
) -> None:
    """Pick the prefixes whose supervised-pool task will crash or hang.

    Wheel prefixes are excluded — a prefix that both diverges and kills
    its worker would make the expected classification ambiguous.  The
    selection only *names* prefixes (in the report); the actual sabotage
    happens inside the workers via
    :class:`repro.parallel.protocol.WorkerFaults`.
    """
    wanted = config.worker_crash_prefixes + config.worker_hang_prefixes
    if wanted <= 0:
        return
    wheel_prefixes = {prefix for prefix, _ in report.wheels}
    candidates = [p for p in network.prefixes() if str(p) not in wheel_prefixes]
    chosen = rng.sample(candidates, min(wanted, len(candidates)))
    crash = chosen[: config.worker_crash_prefixes]
    hang = chosen[config.worker_crash_prefixes :]
    report.worker_crash.extend(str(p) for p in crash)
    report.worker_hang.extend(str(p) for p in hang)


def apply_faults(network: Network, config: FaultConfig) -> FaultReport:
    """Apply all network-level faults of ``config``; returns what was injected."""
    rng = random.Random(config.seed)
    report = FaultReport(message_budget=config.message_budget)
    flap_sessions(network, config.session_flaps, report, rng)
    inject_dispute_wheels(network, config, report, rng)
    select_worker_fault_prefixes(network, config, report, rng)
    return report


def corrupt_dump_lines(
    lines: list[str], config: FaultConfig, report: FaultReport
) -> list[str]:
    """Deterministically garble/truncate a fraction of dump lines.

    Corruption replaces the AS-path field with garbage or smashes the
    field separators; truncation cuts the line in half.  Both produce
    lines the lenient parser counts as ``skipped_malformed``.
    """
    rng = random.Random(config.seed + 1)
    out: list[str] = []
    for line in lines:
        roll = rng.random()
        if roll < config.truncate_line_fraction:
            out.append(line[: max(1, len(line) // 2)])
            report.truncated_lines += 1
        elif roll < config.truncate_line_fraction + config.corrupt_line_fraction:
            fields = line.split("|")
            if len(fields) >= 7:
                fields[6] = "not an as path"
                out.append("|".join(fields))
            else:
                out.append(line.replace("|", " "))
            report.corrupted_lines += 1
        else:
            out.append(line)
    return out


def corrupt_artifact_payload(path, seed: int = 0) -> int:
    """Flip bytes inside a prediction artifact's compressed payload.

    The header line is left intact, so a reader gets past the magic and
    schema checks and fails loudly at the payload checksum — exactly the
    bit-rot (or torn copy) the serve-path chaos campaign injects between
    a compile and a hot reload.  Returns how many bytes were flipped.
    Deterministic in ``seed``.
    """
    from pathlib import Path

    blob = bytearray(Path(path).read_bytes())
    newline = blob.find(b"\n", blob.find(b"\n") + 1)  # end of header line
    payload_start = newline + 1
    if newline < 0 or payload_start >= len(blob):
        raise TopologyError(f"{path} is too short to be an artifact")
    rng = random.Random(seed)
    flips = max(1, (len(blob) - payload_start) // 64)
    for _ in range(flips):
        index = rng.randrange(payload_start, len(blob))
        blob[index] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    return flips
