"""Core FastPPV: scheduled approximation of Personalized PageRank.

Public surface:

* :func:`~repro.core.exact.exact_ppv` — ground-truth PPV (power iteration).
* :func:`~repro.core.hubs.select_hubs` — hub selection (expected utility and
  alternative policies, Sect. 4 / Sect. 6.2).
* :class:`~repro.core.index.PPVIndex` / :func:`~repro.core.index.build_index`
  — offline precomputation of prime PPVs (Algorithm 1).
* :class:`~repro.core.batch.FastPPV` — the incremental, accuracy-aware
  online engine (Algorithm 2): a batch of queries — a single query is the
  batch of one — through the one round loop of :mod:`repro.core.splice`
  over the index's resident :class:`~repro.core.splice.SpliceBlock`, with
  stopping conditions from :mod:`repro.core.query` (result caching lives
  in :mod:`repro.serving.cache`, not here).
* :mod:`repro.core.errors` — the Theorem 2 error bound and query-time L1
  error.
* :mod:`repro.core.linearity` — multi-node queries via the Linearity
  Theorem.
* Extensions: :mod:`repro.core.dynamic` (incremental graph updates),
  :mod:`repro.core.autotune` (hub-count auto-configuration),
  :mod:`repro.core.hitting` (scheduled approximation of hitting time).
"""

from repro.core.autotune import AutotuneResult, autotune_hub_count
from repro.core.batch import FastPPV
from repro.core.dynamic import add_edges, remove_edges, update_index
from repro.core.errors import l1_error_bound, query_time_l1_error
from repro.core.exact import exact_ppv, exact_ppv_matrix
from repro.core.hitting import (
    HittingEstimate,
    exact_hitting,
    scheduled_hitting,
)
from repro.core.hubs import HubPolicy, select_hubs
from repro.core.index import PPVIndex, build_index
from repro.core.linearity import multi_node_ppv
from repro.core.prime import (
    PrimePPV,
    prime_ppv,
    prime_push_many,
)
from repro.core.query import (
    QueryResult,
    StopAfterIterations,
    StopAfterTime,
    StopAtL1Error,
    any_of,
)
from repro.core.reachability import (
    ReachabilityResult,
    reachability_query,
)
from repro.core.topk import (
    StopWhenCertified,
    query_top_k,
)

__all__ = [
    "exact_ppv",
    "exact_ppv_matrix",
    "HubPolicy",
    "select_hubs",
    "PrimePPV",
    "prime_ppv",
    "PPVIndex",
    "build_index",
    "FastPPV",
    "prime_push_many",
    "QueryResult",
    "StopAfterIterations",
    "StopAtL1Error",
    "StopAfterTime",
    "any_of",
    "l1_error_bound",
    "query_time_l1_error",
    "multi_node_ppv",
    "query_top_k",
    "StopWhenCertified",
    "add_edges",
    "remove_edges",
    "update_index",
    "autotune_hub_count",
    "AutotuneResult",
    "exact_hitting",
    "scheduled_hitting",
    "HittingEstimate",
    "ReachabilityResult",
    "reachability_query",
]
