"""Disk substrate for large graphs (Sect. 5.3, Fig. 16).

Four pieces:

* :mod:`repro.storage.ppv_store` — a binary on-disk PPV index with an
  offset directory, so online processing can fetch one hub's prime PPV
  with one random access ("the precomputed prime PPVs or building blocks
  are stored in a PPV index on disk", Sect. 5.1).
* :mod:`repro.storage.clustering` — anchor-based graph clustering via
  personalized PageRank (after Sarkar & Moore [18]): random anchors, every
  node joins the anchor with the highest PPV value at it.
* :mod:`repro.storage.residency` — the resident form of one cluster
  (CSR rows lowered once per fault) and the bounded LRU holding it,
  shared by the local and the sharded graph store.
* :mod:`repro.storage.disk_engine` — online query processing against a
  disk-resident graph: packed per-cluster segment files, one cluster in
  memory at a time, cluster faults counted and budgeted, prime subgraphs
  assembled cluster by cluster.  One engine, :class:`DiskFastPPV`,
  serves batches; a single query is the batch of one.  It serves the
  memory engine's :class:`~repro.core.query.QueryResult`, with the
  per-query I/O record (``cluster_faults`` / ``hub_reads`` /
  ``truncated``) filled in.
"""

from repro.storage.clustering import ClusterAssignment, cluster_graph
from repro.storage.disk_engine import DiskFastPPV, DiskGraphStore
from repro.storage.ppv_store import DiskPPVStore, load_index, save_index

__all__ = [
    "save_index",
    "load_index",
    "DiskPPVStore",
    "ClusterAssignment",
    "cluster_graph",
    "DiskGraphStore",
    "DiskFastPPV",
]
