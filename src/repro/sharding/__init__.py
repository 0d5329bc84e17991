"""Hub-sharded scale-out serving (the ``repro.sharding`` subsystem).

Splits a built FastPPV index across shard processes and serves it
through a router that is **bitwise-exact** against an unsharded disk
deployment:

* :mod:`~repro.sharding.partition` — the offline partitioner: whole
  PPR clusters (hence their hubs) per shard, LPT-balanced, written as
  ordinary per-shard ``DiskPPVStore``/``DiskGraphStore`` directories
  plus a ``shard_map.json`` manifest (``repro shard-index``).
* :mod:`~repro.sharding.shard` — the shard process: a data-plane
  engine serving ``fetch_hubs`` / ``fetch_cluster`` / ``shard_info``
  and refusing queries (the ``"shard"`` backend).
* :mod:`~repro.sharding.remote` — the router's fleet client and the
  remote store twins the disk engine runs over.
* :mod:`~repro.sharding.router` — :class:`RouterEngine` (the
  ``"sharded"`` backend) and the :class:`ShardRouter` harness
  (``repro serve --shard-map``).

Importing this package registers the ``"shard"`` and ``"sharded"``
serving backends.
"""

from repro.sharding.partition import (
    assign_clusters,
    load_shard_map,
    partition_index,
    shard_dir_name,
)
from repro.sharding.remote import (
    ShardedGraphStore,
    ShardedPPVStore,
    ShardFleet,
)
from repro.sharding.router import RouterEngine, ShardRouter
from repro.sharding.shard import ShardEngine, shard_service_factory

__all__ = [
    "RouterEngine",
    "ShardEngine",
    "ShardFleet",
    "ShardRouter",
    "ShardedGraphStore",
    "ShardedPPVStore",
    "assign_clusters",
    "load_shard_map",
    "partition_index",
    "shard_dir_name",
    "shard_service_factory",
]
