"""C-BGP-style configuration scripts.

The paper feeds its models to the C-BGP simulator [30].  This package
serialises a :class:`~repro.bgp.Network` into a C-BGP-flavoured script
(``net add node``, ``bgp add router``, ``bgp router ... add peer``,
filter rules) and parses the same dialect back, so models built here can
be inspected, diffed, version-controlled, and — modulo dialect details —
replayed against the real C-BGP.

The package re-exports nothing: callers import
:mod:`repro.cbgp.export` or :mod:`repro.cbgp.parse`.
"""
