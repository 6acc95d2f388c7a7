"""Exact service-rate-region analysis of linear storage codes.

The pipeline: a generator matrix over GF(q) yields the recovery sets of
size at most two, those become an edge-colored graph, and demand questions
become exact rational LPs or matching problems on that graph.

Each name is imported from its submodule (`servicerate.codes`,
`servicerate.graphrep`, `servicerate.lp`, `servicerate.matching`,
`servicerate.region`, `servicerate.batchpir`, `servicerate.errors`), so
importing one of them loads only what it depends on.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
