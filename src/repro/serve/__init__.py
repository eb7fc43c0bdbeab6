"""roload-serve: snapshot-forked multi-session simulation service.

Layers, bottom up:

* :mod:`repro.serve.pool` — warm snapshot pool; cold-boots one machine
  per (profile, workload, scale, variant, boot) key and forks sessions
  from it copy-on-write in milliseconds.
* :mod:`repro.serve.session` — one guest machine with fail-closed
  resource caps and its own hash-chained audit trail.
* :mod:`repro.serve.worker` — a share-nothing worker process hosting
  many sessions cooperatively via bounded ``Kernel.run`` slices.
* :mod:`repro.serve.protocol` — line-JSON request validation; unknown
  operations and fields are denied, never ignored.
* :mod:`repro.serve.server` — the asyncio front end (``roload-serve``)
  that shards sessions across the worker pool.

The service is measured from outside, as a client would see it, by the
``serve-fork`` and ``serve-steady`` workloads of ``bench/run.py``.
"""

from repro.serve.pool import PoolKey, SnapshotPool
from repro.serve.session import Session, SessionCaps

__all__ = ["PoolKey", "SnapshotPool", "Session", "SessionCaps"]
