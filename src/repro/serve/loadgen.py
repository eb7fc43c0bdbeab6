"""Load generator for roload-serve, and the BENCH_serve.json writer.

Boots a server in-process on a throwaway Unix socket, then drives it
the way a fleet of clients would: warm the pool, create ``--sessions``
sessions fanned across the worker pool (cycling through ``--tiers`` so
the same workload runs on different interpreter tiers), step each for
``--steps`` bounded slices, query the final state hash and audit head,
and destroy everything.

What it measures:

* **fork** — cold-boot cost (from the warm phase) vs copy-on-write
  fork latency per create: the snapshot-pool speedup.
* **throughput** — sessions/sec over the whole run, step slices/sec,
  and aggregate simulated MIPS during the step phase.
* **latency** — client-observed create and step latency percentiles
  (includes protocol and queueing time: the honest service numbers).
* **determinism** — sessions with identical (workload, scale, variant,
  boot, step plan) form a group; within a group every session must
  report the *same* architectural state hash and audit chain head at
  the end, across interpreter tiers. Any divergence is counted and
  fails the run.

``--out`` writes the ``roload-serve`` schema-v1 bench record;
``--audit-export`` saves one session's sealed audit chain as JSONL for
``roload-stats audit verify``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import tempfile
from time import perf_counter
from typing import List, Optional

from repro import config as _config
from repro.serve import protocol
from repro.serve.server import serve

SCHEMA_VERSION = 1


class Client:
    """One line-JSON protocol connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, path: str) -> "Client":
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer)

    async def request(self, **fields) -> dict:
        self.writer.write(protocol.encode(fields))
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _percentile(values: "List[float]", q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class SessionResult:
    __slots__ = ("sid", "tier", "fork_us", "create_ms", "step_ms",
                 "retired", "state", "state_hash", "audit_head",
                 "error")

    def __init__(self, tier: str):
        self.sid = -1
        self.tier = tier
        self.fork_us = 0.0
        self.create_ms = 0.0
        self.step_ms: "List[float]" = []
        self.retired = 0
        self.state = "?"
        self.state_hash = ""
        self.audit_head = ""
        self.error: "Optional[str]" = None


async def _drive_session(path: str, base: dict, tier: str, steps: int,
                         slice_n: int) -> SessionResult:
    """One client: create -> step xN -> query(hash) -> destroy."""
    result = SessionResult(tier)
    client = await Client.connect(path)
    try:
        began = perf_counter()
        reply = await client.request(op="create", tier=tier, **base)
        result.create_ms = (perf_counter() - began) * 1e3
        if not reply.get("ok"):
            result.error = f"create: {reply.get('error')}"
            return result
        result.sid = reply["session"]
        result.fork_us = reply["fork_us"]
        for _ in range(steps):
            began = perf_counter()
            reply = await client.request(op="step", session=result.sid,
                                         n=slice_n)
            result.step_ms.append((perf_counter() - began) * 1e3)
            if not reply.get("ok"):
                result.error = f"step: {reply.get('error')}"
                return result
            result.retired = reply["retired"]
            result.state = reply["state"]
            if reply["state"] != "running":
                break
        reply = await client.request(op="query", session=result.sid,
                                     hash=True)
        if not reply.get("ok"):
            result.error = f"query: {reply.get('error')}"
            return result
        result.state_hash = reply.get("state_hash", "")
        result.audit_head = reply["audit"]["head"]
        return result
    finally:
        if result.sid >= 0:
            try:
                await client.request(op="destroy", session=result.sid)
            except (ConnectionError, OSError):
                pass
        await client.close()


def _determinism(results: "List[SessionResult]") -> dict:
    """Group identically-driven sessions; count hash/head divergence.

    The tier is deliberately NOT part of the group key: the whole point
    is that the same workload stepped the same way must look identical
    from the outside no matter which interpreter tier simulated it.
    """
    groups: "dict[tuple, set]" = {}
    for result in results:
        if result.error or result.sid < 0:
            continue
        key = (result.retired, result.state)
        groups.setdefault(key, set()).add(
            (result.state_hash, result.audit_head))
    divergent = sum(1 for variants in groups.values()
                    if len(variants) > 1)
    return {"groups": len(groups), "divergent": divergent,
            "sessions_compared": sum(
                1 for r in results if not r.error and r.sid >= 0)}


async def run_load(args) -> dict:
    """Run the whole load scenario; returns the bench record."""
    base = {"profile": args.profile, "workload": args.workload,
            "scale": args.scale, "variant": args.variant,
            "boot": args.boot}
    tiers = [tier.strip() for tier in args.tiers.split(",")
             if tier.strip()]
    bound = asyncio.Event()
    address: "List[str]" = []

    def ready(addr):
        address.append(addr)
        bound.set()

    with tempfile.TemporaryDirectory(prefix="roload-serve-") as tmp:
        path = os.path.join(tmp, "serve.sock")
        server_task = asyncio.create_task(serve(
            path=path, workers=args.workers, ready=ready))
        await asyncio.wait_for(bound.wait(), timeout=60)
        try:
            control = await Client.connect(path)
            reply = await control.request(op="ping")
            workers = reply["workers"]

            began = perf_counter()
            reply = await control.request(op="warm", **base)
            warm_ms = (perf_counter() - began) * 1e3
            if not reply.get("ok"):
                raise SystemExit(f"loadgen: warm failed: "
                                 f"{reply.get('error')}")
            boots = reply.get("boot_us", [])
            cold_boot_ms = (sum(boots) / len(boots) / 1e3) if boots \
                else warm_ms / max(1, workers)

            run_began = perf_counter()
            results = await asyncio.gather(*(
                _drive_session(path, base, tiers[i % len(tiers)],
                               args.steps, args.slice)
                for i in range(args.sessions)))
            run_seconds = perf_counter() - run_began

            audit_records = None
            if args.audit_export:
                # A fresh session's full chain, sealed by destroy.
                client = await Client.connect(path)
                reply = await client.request(op="create", tier=tiers[0],
                                             **base)
                sid = reply["session"]
                await client.request(op="step", session=sid,
                                     n=args.slice)
                reply = await client.request(op="destroy", session=sid)
                audit_records = reply["audit"]
                await client.close()

            await control.close()
        finally:
            server_task.cancel()
            try:
                await server_task
            except (asyncio.CancelledError, Exception):
                pass

    failures = [r for r in results if r.error]
    for result in failures[:5]:
        print(f"loadgen: session tier={result.tier}: {result.error}",
              file=sys.stderr)
    completed = [r for r in results if not r.error]
    forks_ms = [r.fork_us / 1e3 for r in completed]
    creates_ms = [r.create_ms for r in completed]
    steps_ms = [ms for r in completed for ms in r.step_ms]
    total_steps = sum(len(r.step_ms) for r in completed)
    total_retired = sum(r.retired for r in completed)
    fork_ms_mean = (sum(forks_ms) / len(forks_ms)) if forks_ms else 0.0

    record = {
        "tool": "roload-serve",
        "schema_version": SCHEMA_VERSION,
        "params": {
            "sessions": args.sessions, "workers": workers,
            "steps": args.steps, "slice": args.slice,
            "workload": args.workload, "scale": args.scale,
            "variant": args.variant, "profile": args.profile,
            "boot": args.boot, "tiers": tiers,
        },
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "fork": {
            "cold_boot_ms": cold_boot_ms,
            "fork_ms_mean": fork_ms_mean,
            "fork_ms_p99": _percentile(forks_ms, 0.99),
            "speedup": (cold_boot_ms / fork_ms_mean)
                       if fork_ms_mean else 0.0,
        },
        "throughput": {
            "sessions_per_sec": len(completed) / run_seconds
                                if run_seconds else 0.0,
            "steps_per_sec": total_steps / run_seconds
                             if run_seconds else 0.0,
            "sim_mips": total_retired / run_seconds / 1e6
                        if run_seconds else 0.0,
        },
        "latency_ms": {
            "step_p50": _percentile(steps_ms, 0.50),
            "step_p99": _percentile(steps_ms, 0.99),
            "create_p50": _percentile(creates_ms, 0.50),
            "create_p99": _percentile(creates_ms, 0.99),
        },
        "determinism": _determinism(results),
        "completed": len(completed),
        "failed": len(failures),
    }
    if audit_records is not None:
        with open(args.audit_export, "w", encoding="utf-8") as handle:
            for rec in audit_records:
                handle.write(json.dumps(rec, sort_keys=True,
                                        separators=(",", ":")) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Drive an in-process roload-serve with many "
                    "concurrent sessions and record BENCH_serve.json.")
    parser.add_argument("--sessions", type=int, default=64)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: "
                             "REPRO_SERVE_WORKERS)")
    parser.add_argument("--steps", type=int, default=4,
                        help="step slices per session (default 4)")
    parser.add_argument("--slice", type=int, default=2000,
                        help="instructions per step slice (default "
                             "2000)")
    parser.add_argument("--workload", default="429.mcf")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--variant", default="vcall")
    parser.add_argument("--profile", default="processor+kernel")
    parser.add_argument("--boot", type=int, default=None,
                        help="snapshot boot point in instructions "
                             "(default: REPRO_SERVE_BOOT)")
    parser.add_argument("--tiers", default="tier1,tier2,tier4",
                        help="comma-separated tier cycle for sessions")
    parser.add_argument("--out", default=None, metavar="BENCH.json",
                        help="write the bench record here")
    parser.add_argument("--audit-export", default=None,
                        metavar="AUDIT.jsonl",
                        help="export one session's sealed audit chain")
    args = parser.parse_args(argv)
    if args.boot is None:
        args.boot = _config.current().serve_boot

    record = asyncio.run(run_load(args))

    fork = record["fork"]
    throughput = record["throughput"]
    latency = record["latency_ms"]
    determinism = record["determinism"]
    print(f"loadgen: {record['completed']}/{record['params']['sessions']}"
          f" sessions completed on {record['params']['workers']} "
          f"workers ({record['failed']} failed)")
    print(f"  fork: {fork['fork_ms_mean']:.3f}ms mean / "
          f"{fork['fork_ms_p99']:.3f}ms p99 vs "
          f"{fork['cold_boot_ms']:.1f}ms cold boot "
          f"({fork['speedup']:.1f}x)")
    print(f"  throughput: {throughput['sessions_per_sec']:.1f} "
          f"sessions/s, {throughput['steps_per_sec']:.1f} steps/s, "
          f"{throughput['sim_mips']:.3f} sim-MIPS")
    print(f"  latency: step p50 {latency['step_p50']:.2f}ms / p99 "
          f"{latency['step_p99']:.2f}ms, create p99 "
          f"{latency['create_p99']:.2f}ms")
    print(f"  determinism: {determinism['groups']} group(s) over "
          f"{determinism['sessions_compared']} sessions, "
          f"{determinism['divergent']} divergent")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"  record: {args.out}")
    if args.audit_export:
        print(f"  audit chain: {args.audit_export}")
    if record["failed"] or determinism["divergent"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
