"""Synthetic BGP measurement data (the RouteViews/RIPE substitute).

The paper consumes RIB dumps from >1300 real observation points.  Offline,
this package generates the equivalent: a tiered synthetic Internet with
ground-truth topology, intra-AS structure and policies (including
deliberately non-standard ones), a ground-truth BGP simulation, a set of
observation points biased towards the core, and bgpdump-style table dumps.

Everything downstream of :func:`collect_dataset` sees only observed
AS-paths, exactly as the paper's pipeline sees only BGP feeds.

The package re-exports nothing: each caller imports the submodule it
runs, so synthesising and reading a dump loads neither the CAIDA reader
nor the hardened ingestion path (:mod:`repro.data.ingest`,
:mod:`repro.data.sanitize`).
"""
