"""The serving layer: one façade over every FastPPV query engine.

There is one engine per backend — in memory ``FastPPV``, on disk
``DiskFastPPV``; a single query is the batch of one on both, and both
run the same incremental-round loop — each with its own workload
spelling.
This package puts them behind one backend-agnostic API:

* :class:`PPVService` — the façade.  ``PPVService.open(index, graph=g)``
  or ``PPVService.open(ppv_store, graph_store=s)`` builds the memory
  or disk backend from its keyword and serves
  :class:`QuerySpec` requests on it: ``query`` (sync), ``submit``
  (a :class:`QueryHandle` future), ``query_many`` (ordered burst),
  ``stream`` (per-iteration :class:`QuerySnapshot` delivery).
* A **coalescing micro-batch scheduler**: concurrent submissions are
  admitted into one queue and drained as engine batches, so independent
  clients share the batch engines' amortisation — on disk, two
  concurrent callers share cluster residency instead of thrashing
  faults (:mod:`repro.serving.scheduler`).
* A **popularity-aware cache**: completed results are cached with hit
  counters feeding eviction, shared by both backends and invalidated
  whenever the index state changes (:mod:`repro.serving.cache`).
* The **query-family registry** (:mod:`repro.serving.families`): every
  request is a family-tagged spec (``ppv``, ``top_k``, ``hitting``,
  ``reachability``, or a registered extension), and the
  :class:`QueryFamily` descriptor gives the stack its validation,
  batching, caching, and wire codec — so new analyses get
  coalescing/caching/network for free
  (:func:`~repro.serving.families.register_family`).
* The :class:`~repro.serving.engines.Engine` protocol and its two
  adapters, :class:`MemoryEngine` and :class:`DiskEngine`.

Quickstart::

    from repro.serving import PPVService, QuerySpec

    with PPVService.open(index, graph=graph) as service:
        result = service.query(QuerySpec(7))                  # eta = 2
        topk = service.query(QuerySpec(7, top_k=10))          # certified
        mixed = service.query(QuerySpec((3, 9), weights=(2, 1)))
        for snapshot in service.stream(QuerySpec(7, top_k=10)):
            if snapshot.certified:
                break                                          # anytime!
"""

from repro.serving.cache import PopularityCache
from repro.serving.families import (
    FamilyTask,
    QueryFamily,
    UnsupportedFamilyError,
    available_families,
    register_family,
    resolve_family,
    supported_families,
)
from repro.serving.engines import (
    DiskEngine,
    Engine,
    MemoryEngine,
)
from repro.serving.scheduler import CoalescingScheduler
from repro.serving.service import PPVService, ServiceStats
from repro.serving.spec import QueryHandle, QuerySnapshot, QuerySpec

__all__ = [
    "PPVService",
    "ServiceStats",
    "QuerySpec",
    "QueryHandle",
    "QuerySnapshot",
    "PopularityCache",
    "CoalescingScheduler",
    "QueryFamily",
    "FamilyTask",
    "UnsupportedFamilyError",
    "register_family",
    "resolve_family",
    "available_families",
    "supported_families",
    "Engine",
    "MemoryEngine",
    "DiskEngine",
]
