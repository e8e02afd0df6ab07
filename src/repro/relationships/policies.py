"""Realizing inferred relationships as BGP policies (Section 3.3).

"We then realized appropriate policies based on the local-pref BGP
attribute and route filters in the simulator" — with footnote 2: "We treat
siblings in the same manner as peering relationships and set the same
local-preference for unknown AS edges as for peerings."

Implementation: on import, a route is tagged with a community recording
the relationship class of the session it arrived over and given the
corresponding local-pref (customer > peer/sibling/unknown > provider).  On
export towards a peer or provider, routes tagged as learned from a peer or
provider are denied (only customer routes and own routes cross such
edges); towards customers and siblings everything is exported.
"""

from __future__ import annotations

from repro.bgp.network import Network
from repro.bgp.policy import Action, Clause, Match
from repro.relationships.types import Relationship, RelationshipMap

LOCAL_PREF_CUSTOMER = 100
LOCAL_PREF_PEER = 90
LOCAL_PREF_PROVIDER = 80

TAG_FROM_CUSTOMER = (0xFFFA << 16) | 1
TAG_FROM_PEER = (0xFFFA << 16) | 2
TAG_FROM_PROVIDER = (0xFFFA << 16) | 3

_IMPORT_SETTINGS = {
    # relationship of the *announcing neighbour* from the receiver's view;
    # footnote 2: siblings and unknown edges are treated like peerings.
    Relationship.CUSTOMER: (LOCAL_PREF_CUSTOMER, TAG_FROM_CUSTOMER),
    Relationship.SIBLING: (LOCAL_PREF_PEER, TAG_FROM_PEER),
    Relationship.PEER: (LOCAL_PREF_PEER, TAG_FROM_PEER),
    Relationship.UNKNOWN: (LOCAL_PREF_PEER, TAG_FROM_PEER),
    Relationship.PROVIDER: (LOCAL_PREF_PROVIDER, TAG_FROM_PROVIDER),
}

POLICY_TAG = "relationship"


def apply_relationship_policies(
    network: Network, relationships: RelationshipMap
) -> int:
    """Install relationship policies on every eBGP session of ``network``.

    Returns the number of sessions configured.  Siblings and unclassified
    edges are treated exactly like peerings (footnote 2), which also keeps
    the policy system inside the Gao-Rexford convergence conditions.
    """
    configured = 0
    for session in network.ebgp_sessions():
        receiver_asn = session.dst.asn
        announcer_asn = session.src.asn
        rel_of_announcer = relationships.get(receiver_asn, announcer_asn)
        local_pref, tag = _IMPORT_SETTINGS[rel_of_announcer]
        import_map = session.ensure_import_map()
        import_map.remove_if(lambda clause: clause.tag == POLICY_TAG)
        # strip_communities: the relationship tags must describe *this*
        # session, so tags inherited from the previous AS hop are dropped.
        import_map.append(
            Clause(
                Match(),
                Action.PERMIT,
                set_local_pref=local_pref,
                add_communities=frozenset((tag,)),
                strip_communities=True,
                tag=POLICY_TAG,
            )
        )
        # Export side: the session src announces to dst; restrict what
        # crosses depending on dst's relationship from src's point of view.
        rel_of_receiver = relationships.get(announcer_asn, receiver_asn)
        export_map = session.ensure_export_map()
        export_map.remove_if(lambda clause: clause.tag == POLICY_TAG)
        if rel_of_receiver in (Relationship.PEER, Relationship.PROVIDER,
                               Relationship.UNKNOWN, Relationship.SIBLING):
            for community in (TAG_FROM_PEER, TAG_FROM_PROVIDER):
                export_map.append(
                    Clause(
                        Match(community=community),
                        Action.DENY,
                        tag=POLICY_TAG,
                    )
                )
        configured += 1
    return configured
