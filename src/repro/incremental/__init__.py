"""repro.incremental — incremental solving sessions for the whole stack.

EDA workloads arrive as *sequences* of closely related queries (k-sweeps,
equivalence checks); this package keeps solver state alive between them:

* :class:`IncrementalSession` — the shared interface: ``add_clause()``,
  ``solve(assumptions=[...])``, ``push()``/``pop()`` scopes;
* :class:`CDCLSession` — native incremental CDCL (retained learned clauses
  and VSIDS activities, in-search assumption handling);
* :class:`ResolveSession` — the generic re-solve fallback wrapping any
  other registered solver, the NBL engines included;
* :class:`JobSession` — runs each query as one runtime job: the
  sessions of the default ``"portfolio"`` spec and every preprocessing
  session;
* :func:`make_session` — factory understanding every runtime solver spec.

Quickstart (register-allocation k-sweep)::

    from repro.cnf import graph_coloring_formula
    from repro.incremental import make_session

    formula = graph_coloring_formula(edges, num_values, max_registers)
    session = make_session("cdcl", base_formula=formula)
    for k in range(2, max_registers + 1):
        blocked = [-var(v, c) for v in values for c in range(k, max_registers)]
        result = session.solve(assumptions=blocked)   # warm solver state
"""

from repro.incremental.frontends import JobSession, make_session
from repro.incremental.session import (
    CDCLSession,
    IncrementalSession,
    ResolveSession,
)

__all__ = [
    "CDCLSession",
    "IncrementalSession",
    "JobSession",
    "ResolveSession",
    "make_session",
]
