"""Data-plane forwarding over a converged control plane.

The BGP engine computes what routers *know*; this package computes where
packets actually *go*: hop-by-hop forwarding from any router towards any
prefix, following each traversed router's own best route (iBGP-learned
routes are carried across the AS along IGP shortest paths to the egress
border router).  This is the substrate for traceroute-style validation —
e.g. checking that the AS-level path a packet takes agrees with the
AS-path the source router selected, and detecting forwarding deflections
and loops.
"""

from repro.forwarding.trace import (
    ForwardingStatus,
    ForwardingTrace,
    forward_as_path,
    traceroute,
)

__all__ = [
    "ForwardingStatus",
    "ForwardingTrace",
    "forward_as_path",
    "traceroute",
]
