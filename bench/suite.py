"""The four benchmark workloads, driven through public entry points only.

* ``sweep`` — :func:`repro.workloads.build_workload`,
  :func:`repro.compiler.compile_module`, :func:`repro.soc.build_system`,
  ``Kernel.create_process`` and ``Kernel.run``, in-process;
* ``serve-fork`` / ``serve-steady`` — the ``roload-serve`` line-JSON
  protocol over a Unix socket, with the server in its own process group;
* ``fuzz`` — :class:`repro.fuzz.Campaign`.

Every workload runs the same fixed unit of work ``REPS`` times in a row
(a repetition), sized from ``run_seconds`` in ``BENCHMARK.json`` (or the
smoke length) so the run lasts about that long; the ``*_S`` and
``*_PER_SECOND`` constants were measured on a 2-CPU x86-64 host when
undisturbed. Repetitions must agree architecturally. Each
repetition records the host slowdown probed around it, which
``bench/run.py`` divides its times by. A traced run executes the same
code with a live :class:`harness.Tracer`; for ``fuzz`` the tracer wraps
the names :mod:`repro.fuzz.executor` and :mod:`repro.fuzz.campaign`
resolve at call time, since the campaign makes those calls itself.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean
from time import perf_counter
from typing import Dict, List, Optional

from harness import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("bench") / "out"              # relative to ROOT, the cwd
GOLDEN = Path(__file__).resolve().parent / "golden"

PROFILE = "processor+kernel"
REPS = 8
SMOKE_REPS = 2
# Set-up takes a fraction of a second and its time is noisy (a single
# import spreads ~20% across runs); the median of this many is steadier.
SETUP_REPEATS = 9
CLIENTS = 2
SERVE_WORKERS = 2

# Host-speed probe. Other tenants of a shared host slow its CPUs by up
# to ~1.7x, one CPU or both, for stretches of seconds to minutes. A
# fixed pure-Python loop timed before and after each repetition and
# set-up measures that slowdown, and reported times are scaled to the
# loop's undisturbed time on the 2-CPU host the bounds were fixed on.
PROBE_LOOPS = 300_000
PROBE_REFERENCE_S = 0.0104

# sweep: the paper's SPEC-CPU2006-style regime, one long Kernel.run per
# program; a round of the three pairs takes ~1.8 s at scale 0.75.
SWEEP_PAIRS = (("429.mcf", "base"), ("483.xalancbmk", "vcall"),
               ("403.gcc", "icall"))
SWEEP_SCALE = 0.75
SWEEP_SMOKE_SCALE = 0.1
SWEEP_ROUND_S = 1.8

# serve-fork: short sessions, each forked copy-on-write with cold
# translation caches. Nine plans, one per step count 4..12, each
# retiring FORK_SESSION_INSTRET in steps of 1,000-4,000 instructions;
# a round (every plan once per client) takes ~0.95 s.
FORK_KEY = {"profile": PROFILE, "workload": "471.omnetpp", "scale": 0.05,
            "variant": "vcall", "boot": 4096}
FORK_STEP_COUNTS = tuple(range(4, 13))
FORK_SESSION_INSTRET = 16_000
FORK_STEP_RANGE = (1_000, 4_000)
FORK_ROUND_S = 0.95

# serve-steady: long-lived sessions stepped in 10,000-40,000-instruction
# slices; fork cost is amortized and mcf's working set materializes
# hundreds of private copy-on-write frames per session.
STEADY_KEY = {"profile": PROFILE, "workload": "429.mcf", "scale": 4.0,
              "variant": "base", "boot": 4096}
STEADY_SLICE_RANGE = (10_000, 40_000)
STEADY_SLICES_PER_SECOND = 3.7

# fuzz: every repetition is the same guided campaign with a fixed seed,
# so its cost does not move with --seed (a 400-execution campaign's
# throughput spreads ~10% across campaign seeds, which pick the victim
# mix); a small campaign seeded by --seed, run after the timed
# repetitions, checks fresh inputs.
FUZZ_TIMED_SEED = 1
FUZZ_EXECS_PER_SECOND = 22
FUZZ_CHECK_EXECUTIONS = 40


class Result:
    """What one workload run measured and checked."""

    def __init__(self, workload: str):
        self.workload = workload
        self.setups: List[dict] = []  # seconds, slowdown
        self.reps: List[dict] = []    # see add_rep
        self.machines = 0            # guest machines started, timed phase
        self.builds = 0              # images compiled, timed phase
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.peak_rss_kib = 0
        self.layers: dict = {}       # per-layer numbers measured outside spans
        self.samples: Dict[str, list] = {}   # per-request serve timings

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failed += 1
            self.problems.append(message)
        return ok

    def add_setup(self, seconds: float, slowdown: float) -> None:
        self.setups.append({"seconds": seconds, "slowdown": slowdown})

    def add_rep(self, wall_s: float, instructions: int, op_ms: List[float],
                slowdown: float,
                op_slowdown: "Optional[List[float]]" = None) -> None:
        """One repetition: its wall time, the guest instructions it
        retired, each operation's latency, and the host slowdown over
        the repetition (and per operation, where measured)."""
        self.reps.append({"wall_s": wall_s, "instructions": instructions,
                          "op_ms": op_ms, "slowdown": slowdown,
                          "op_slowdown": op_slowdown
                          or [slowdown] * len(op_ms)})


def own_peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cpu_slowdown(cpu: int) -> float:
    """How much slower than undisturbed ``cpu`` runs right now: the
    probe loop's time there over PROBE_REFERENCE_S. Pins the process to
    ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    began = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return (perf_counter() - began) / PROBE_REFERENCE_S


def cpu_slowdowns(cpus: "set[int]") -> List[float]:
    """The slowdown of each of ``cpus``; leaves the process free to run
    on all of them."""
    slows = [cpu_slowdown(cpu) for cpu in sorted(cpus)]
    os.sched_setaffinity(0, cpus)
    return slows


def move_to_fastest_cpu(cpus: "set[int]") -> "tuple[float, int]":
    """Pin this process to whichever of ``cpus`` is least slowed right
    now; returns (its slowdown, the cpu). Other tenants slow one CPU at
    a time as well as all together."""
    slow, cpu = min((cpu_slowdown(cpu), cpu) for cpu in sorted(cpus))
    os.sched_setaffinity(0, {cpu})
    return slow, cpu


def measure_import_setup(result: Result, modules: str,
                         repeats: int) -> None:
    """Set-up of an in-process workload: a fresh interpreter importing
    the layers it drives, repeated and timed from outside."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpus = os.sched_getaffinity(0)
    for _ in range(repeats):
        before = cpu_slowdowns(cpus)
        began = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {modules}"],
                       env=env, check=True)
        elapsed = perf_counter() - began
        result.add_setup(elapsed, mean(before + cpu_slowdowns(cpus)))


# -- golden results ----------------------------------------------------------

def golden_check(result: Result, key: str, observed, write: bool) -> None:
    """Compare ``observed`` with the golden entry ``key`` of this
    workload's file in bench/golden (or record it with ``write``)."""
    path = GOLDEN / f"{result.workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    if write:
        table[key] = observed
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return
    if not result.check(key in table, f"no golden {key} in {path.name}; "
                        f"record it with --write-golden"):
        return
    result.check(table[key] == observed,
                 f"golden {key} differs: expected {table[key]!r}, "
                 f"observed {observed!r}")


# -- guest-execution meter ---------------------------------------------------

class GuestMeter:
    """Wraps ``Kernel.run`` to count what each call retires.

    Counting runs in both modes (sim-MIPS needs the instructions of
    every run, including those inside a fuzz campaign); with a live
    tracer each call is also a ``kernel.run`` span whose JIT and region
    compile time, read from the core's counters, becomes a
    ``cpu.translate`` child.
    """

    def __init__(self, tracer: Tracer):
        from repro.kernel import Kernel
        self.instructions = 0
        self.top_tier = 0
        self.run_s = 0.0
        self.jit_compile_s = 0.0
        self.region_compile_s = 0.0
        original = Kernel.run
        span = tracer.span
        child = tracer.child
        meter = self

        def run(kernel, *args, **kwargs):
            core = kernel.system.core
            instret = core.instret
            top = core.tier3_retired + core.tier4_retired
            jit_s, region_s = (core.jit_compile_seconds,
                               core.region_compile_seconds)
            began = perf_counter()
            with span("kernel.run") as current:
                try:
                    return original(kernel, *args, **kwargs)
                finally:
                    meter.run_s += perf_counter() - began
                    meter.instructions += core.instret - instret
                    meter.top_tier += (core.tier3_retired
                                       + core.tier4_retired - top)
                    jit_s = core.jit_compile_seconds - jit_s
                    region_s = core.region_compile_seconds - region_s
                    meter.jit_compile_s += jit_s
                    meter.region_compile_s += region_s
                    child(current, "cpu.translate", jit_s + region_s)

        self._kernel, self._original = Kernel, original
        Kernel.run = run

    def close(self) -> None:
        self._kernel.run = self._original

    def layers(self) -> dict:
        return {"kernel.run_s": self.run_s,
                "cpu.jit_compile_s": self.jit_compile_s,
                "cpu.region_compile_s": self.region_compile_s,
                "cpu.run_mips": (self.instructions / self.run_s / 1e6
                                 if self.run_s else 0.0),
                "cpu.top_tier_frac": (self.top_tier / self.instructions
                                      if self.instructions else 0.0)}


# -- sweep -------------------------------------------------------------------

def run_sweep(seconds: float, reps: int, smoke: bool, tracer: Tracer,
              write_golden: bool) -> Result:
    result = Result("sweep")
    measure_import_setup(
        result, "repro.workloads, repro.compiler, repro.soc, repro.kernel, "
        "repro.defenses", 1 if smoke else SETUP_REPEATS)
    from repro.compiler import compile_module
    from repro.defenses import TypeBasedCFI, VCallProtection
    from repro.kernel import Kernel
    from repro.soc import build_system
    from repro.workloads import build_workload, profile

    def hardening(variant, program):
        if variant == "vcall":
            return [VCallProtection(key_by_hierarchy=program.hierarchies)]
        if variant == "icall":
            return [TypeBasedCFI()]
        return None

    scale = SWEEP_SMOKE_SCALE if smoke else SWEEP_SCALE
    rounds = max(1, round(seconds / reps / SWEEP_ROUND_S))
    meter = GuestMeter(tracer)
    observed: Dict[str, dict] = {}
    cpus = os.sched_getaffinity(0)
    try:
        for _ in range(reps):
            before, ops, slows = meter.instructions, [], []
            for _ in range(rounds):
                for name, variant in SWEEP_PAIRS:
                    # Programs run for a second or so: each is scaled by
                    # the slowdown probed right around it.
                    slow, cpu = move_to_fastest_cpu(cpus)
                    pair = f"{name}/{variant}"
                    began = perf_counter()
                    with tracer.span("bench.pair", request=pair):
                        with tracer.span("workloads.generate"):
                            program = build_workload(profile(name),
                                                     scale=scale)
                        with tracer.span("compiler.compile"):
                            image = compile_module(
                                program.module,
                                hardening=hardening(variant, program))
                        with tracer.span("kernel.load"):
                            system = build_system(PROFILE)
                            kernel = Kernel(system)
                            process = kernel.create_process(image,
                                                            name=name)
                        kernel.run(process, max_instructions=100_000_000)
                    ops.append((perf_counter() - began) * 1e3)
                    slows.append((slow + cpu_slowdown(cpu)) / 2)
                    result.attempted += 1
                    result.machines += 1
                    result.builds += 1
                    _sweep_check(result, pair, system, process, observed)
            wall = sum(ops) / 1e3
            scaled = sum(ms / slow for ms, slow in zip(ops, slows)) / 1e3
            result.add_rep(wall, meter.instructions - before, ops,
                           wall / scaled, slows)
    finally:
        os.sched_setaffinity(0, cpus)
        meter.close()
    result.layers.update(meter.layers())
    result.peak_rss_kib = own_peak_rss_kib()
    golden_check(result, f"scale={scale}", observed, write_golden)
    return result


def _sweep_check(result: Result, pair: str, system, process,
                 observed: dict) -> None:
    """The pair must exit and repeat its first run exactly."""
    if not result.check(process.state.value == "exited",
                        f"{pair} did not exit: {process.status()}"):
        return
    stats = system.timing.stats
    measured = {"cycles": stats.cycles,
                "instructions": stats.instructions,
                "exit_code": process.exit_code,
                "dtlb_miss_rate": 1.0 - system.mmu.dtlb.hit_rate,
                "dcache_miss_rate": 1.0 - system.dcache.hit_rate}
    first = observed.setdefault(pair, measured)
    result.check(first == measured, f"{pair} differs from its first run: "
                 f"{first} vs {measured}")


# -- serve -------------------------------------------------------------------

def spread_sizes(count: int, total: int, low: int, high: int) -> List[int]:
    """``count`` sizes evenly spaced inside [low, high] summing exactly
    to ``total`` — a fixed multiset the seed only reorders, so the total
    work and the mix of slice sizes do not move with the seed."""
    if count <= 0 or not count * low <= total <= count * high:
        raise ValueError(f"cannot split {total} into {count} sizes within "
                         f"[{low}, {high}]")
    average = total / count
    half = min(average - low, high - average)
    if count == 1:
        sizes = [total]
    else:
        sizes = [round(average + half * (2 * i - (count - 1)) / (count - 1))
                 for i in range(count)]
    sizes[count // 2] += total - sum(sizes)
    return sizes


def serve_plans(workload: str, seed: int, seconds: float,
                reps: int) -> dict:
    """Step plans, and the plans each client runs in each repetition.

    The seed draws the order of every plan's steps and of the sessions;
    each plan is used by at least two sessions.
    """
    rng = random.Random(f"{workload}:{seed}")
    per_rep = seconds / reps
    if workload == "serve-fork":
        plans = []
        for count in FORK_STEP_COUNTS:
            steps = spread_sizes(count, FORK_SESSION_INSTRET,
                                 *FORK_STEP_RANGE)
            rng.shuffle(steps)
            plans.append(steps)
        rounds = max(1, round(per_rep / FORK_ROUND_S))
        orders = []
        for _ in range(reps):
            rep_orders = []
            for _ in range(CLIENTS):
                order = []
                for _ in range(rounds):
                    cycle = list(range(len(plans)))
                    rng.shuffle(cycle)
                    order.extend(cycle)
                rep_orders.append(order)
            orders.append(rep_orders)
        return {"key": FORK_KEY, "plans": plans, "orders": orders}
    slices = max(2, round(per_rep * STEADY_SLICES_PER_SECOND))
    low, high = STEADY_SLICE_RANGE
    plans = []
    for _ in range(CLIENTS):
        steps = spread_sizes(slices, slices * (low + high) // 2, low, high)
        rng.shuffle(steps)
        plans.append(steps)
    # One session per client per repetition; the clients swap plans
    # every repetition, so each plan runs on both.
    orders = [[[(client + rep) % len(plans)] for client in range(CLIENTS)]
              for rep in range(reps)]
    return {"key": STEADY_KEY, "plans": plans, "orders": orders}


class Client:
    """One line-JSON connection to roload-serve."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, path: str) -> "Client":
        # Replies carry whole audit chains, far past asyncio's 64 KiB
        # default line limit.
        reader, writer = await asyncio.open_unix_connection(
            path, limit=1 << 26)
        return cls(reader, writer)

    async def call(self, **request) -> dict:
        self.writer.write((json.dumps(request) + "\n").encode())
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("roload-serve closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, _, group = stat[stat.rindex(")") + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


def _vm_hwm_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """``roload-serve`` in its own process group.

    Stopped with SIGINT, which takes the server's clean-shutdown path
    (workers are told to exit and joined). SIGTERM would orphan the
    workers instead, so after the server exits the group is reaped and
    any survivor fails the run.
    """

    def __init__(self, workload: str):
        self.socket = str(OUT / f"{workload}.sock")
        with open(OUT / f"{workload}-server.log", "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--socket",
                 self.socket, "--workers", str(SERVE_WORKERS)],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdout=log, stderr=log, start_new_session=True)

    async def connect(self, timeout: float = 60.0) -> Client:
        deadline = perf_counter() + timeout
        while True:
            try:
                return await Client.connect(self.socket)
            except (FileNotFoundError, ConnectionRefusedError):
                if self.process.poll() is not None:
                    raise RuntimeError(f"roload-serve exited with "
                                       f"{self.process.returncode}")
                if perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.01)

    def peak_rss_kib(self) -> int:
        return max((_vm_hwm_kib(pid)
                    for pid in _group_members(self.process.pid)), default=0)

    def stop(self) -> List[int]:
        """Stop the server; returns the pids of any process left in its
        group (killed before returning)."""
        pgid = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        deadline = perf_counter() + 5.0
        survivors = _group_members(pgid)
        while survivors and perf_counter() < deadline:
            time.sleep(0.05)
            survivors = _group_members(pgid)
        if survivors:
            os.killpg(pgid, signal.SIGKILL)
        return survivors


async def _start(workload: str, key: dict, result: Result) -> Server:
    """One set-up: spawn the server, connect, and warm every worker."""
    cpus = os.sched_getaffinity(0)
    before = cpu_slowdowns(cpus)
    began = perf_counter()
    server = Server(workload)
    try:
        control = await server.connect()
        reply = await control.call(op="warm", **key)
        await control.close()
    except BaseException:
        server.stop()
        raise
    result.add_setup(perf_counter() - began,
                     mean(before + cpu_slowdowns(cpus)))
    result.check(bool(reply.get("ok"))
                 and reply.get("workers") == SERVE_WORKERS,
                 f"warm failed: {reply}")
    return server


async def _request(client: Client, tracer: Tracer, name: str, sid,
                   result: Result, **request) -> "tuple[dict, float]":
    """One timed request; worker-side time the reply reports becomes a
    child span."""
    result.attempted += 1
    with tracer.span(name, request=sid) as span:
        began = perf_counter()
        reply = await client.call(**request)
        elapsed = perf_counter() - began
        if reply.get("ok"):
            if name == "serve.step":
                tracer.child(span, "serve.slice", reply["wall_us"] / 1e6)
            elif name == "serve.create":
                tracer.child(span, "replay.fork", reply["fork_us"] / 1e6)
    result.check(bool(reply.get("ok")), f"{request['op']} failed: "
                 f"{reply.get('error')}")
    return reply, elapsed


async def _session(client: Client, tracer: Tracer, key: dict,
                   steps: List[int], result: Result, ops: List[float],
                   track: int) -> "tuple[Optional[tuple], int]":
    """create -> steps -> query(hash) -> destroy. Returns the session's
    end state (state hash, audit head, retired), None on a failure, and
    the instructions its steps retired."""
    samples = result.samples
    end, retired = None, 0
    with tracer.span("bench.session", track=track) as session:
        reply, elapsed = await _request(client, tracer, "serve.create",
                                        None, result, op="create", **key)
        if not reply.get("ok"):
            return end, retired
        sid = reply["session"]
        if session is not None:
            session.request = sid
        samples["create_ms"].append(elapsed * 1e3)
        samples["fork_ms"].append(reply["fork_us"] / 1e3)
        result.check(reply.get("source") == "fork",
                     f"session {sid} was booted, not forked")
        result.machines += 1
        for n in steps:
            reply, elapsed = await _request(client, tracer, "serve.step",
                                            sid, result, op="step",
                                            session=sid, n=n)
            if not reply.get("ok"):
                break
            ops.append(elapsed * 1e3)
            retired += reply["executed"]
            samples["slice_ms"].append(reply["wall_us"] / 1e3)
            samples["overhead_ms"].append(elapsed * 1e3
                                          - reply["wall_us"] / 1e3)
            if not result.check(reply["executed"] == n
                                and reply["state"] == "running",
                                f"session {sid} step of {n} retired "
                                f"{reply['executed']} ({reply['state']})"):
                break
        else:
            reply, elapsed = await _request(client, tracer, "serve.query",
                                            sid, result, op="query",
                                            session=sid, hash=True)
            if reply.get("ok"):
                samples["query_ms"].append(elapsed * 1e3)
                samples["private_frames"].append(
                    reply["metrics"]["private_frames"])
                residency = reply["residency"]
                samples["retired"].append(sum(residency.values()))
                samples["top_tier"].append(residency["tier3"]
                                           + residency["tier4"])
                end = (reply["state_hash"], reply["audit"]["head"],
                       reply["retired"])
        _, elapsed = await _request(client, tracer, "serve.destroy", sid,
                                    result, op="destroy", session=sid)
        samples["destroy_ms"].append(elapsed * 1e3)
    return end, retired


async def _serve_phase(server: Server, plan: dict, tracer: Tracer,
                       result: Result) -> str:
    """The timed repetitions; returns a digest of every plan's end
    state."""
    clients = [await server.connect() for _ in range(CLIENTS)]
    result.samples = {name: [] for name in (
        "create_ms", "fork_ms", "slice_ms", "overhead_ms", "query_ms",
        "destroy_ms", "private_frames", "retired", "top_tier")}
    ends: Dict[int, set] = {}
    client_s = 0.0

    async def drive(index: int, order: List[int], ops: List[float]) -> int:
        nonlocal client_s
        began, retired = perf_counter(), 0
        with tracer.span("bench.client", request=index, track=index):
            for plan_index in order:
                end, steps = await _session(
                    clients[index], tracer, plan["key"],
                    plan["plans"][plan_index], result, ops, index)
                retired += steps
                if end is not None:
                    ends.setdefault(plan_index, set()).add(end)
        client_s += perf_counter() - began
        return retired

    cpus = os.sched_getaffinity(0)
    try:
        # A closed loop: each client waits for every reply before its
        # next request; both finish a repetition before the next starts.
        for orders in plan["orders"]:
            ops: List[float] = []
            before = cpu_slowdowns(cpus)
            began = perf_counter()
            retired = await asyncio.gather(
                *(drive(i, order, ops) for i, order in enumerate(orders)))
            wall = perf_counter() - began
            after = cpu_slowdowns(cpus)
            # The repetition ends with its slower worker, so its wall is
            # scaled by the slowest CPU; its steps, served on both, by
            # the mean.
            result.add_rep(wall, sum(retired), ops,
                           (max(before) + max(after)) / 2,
                           [mean(before + after)] * len(ops))
    finally:
        for client in clients:
            await client.close()
    result.layers["client_s"] = client_s
    for plan_index in range(len(plan["plans"])):
        found = ends.get(plan_index, set())
        result.check(len(found) == 1, f"plan {plan_index}: end states "
                     f"(state hash, audit head, retired) {sorted(found)}")
    return hashlib.sha256(json.dumps(sorted(
        [index, *sorted(found)[0]] for index, found in ends.items()
        if len(found) == 1)).encode()).hexdigest()


async def _run_serve(workload: str, seed: int, seconds: float, reps: int,
                     smoke: bool, tracer: Tracer,
                     write_golden: bool) -> Result:
    result = Result(workload)
    plan = serve_plans(workload, seed, seconds, reps)
    OUT.mkdir(parents=True, exist_ok=True)
    server = None

    def stop() -> None:
        survivors = server.stop()
        result.check(not survivors, f"processes {survivors} outlived "
                     f"roload-serve")

    try:
        for _ in range(1 if smoke else SETUP_REPEATS):
            if server is not None:
                stop()
            server = await _start(workload, plan["key"], result)
        digest = await _serve_phase(server, plan, tracer, result)
        result.peak_rss_kib = max(server.peak_rss_kib(), own_peak_rss_kib())
    finally:
        if server is not None:
            stop()
    if seed == 1:
        key = "seed=1" if workload == "serve-fork" else \
            f"seed=1,slices={len(plan['plans'][0])}"
        golden_check(result, key, digest, write_golden)
    return result


# -- fuzz --------------------------------------------------------------------

def _trace_fuzz(tracer: Tracer) -> None:
    """Wrap the calls a campaign makes internally, by the names its
    modules resolve at call time."""
    import repro.compiler
    import repro.soc.system
    from repro.fuzz import campaign, executor, scheduler
    from repro.kernel import Kernel
    for owner, attr, name in (
            (campaign.Campaign, "run", "fuzz.campaign"),
            (scheduler.GuidedScheduler, "propose", "fuzz.propose"),
            (scheduler.RandomScheduler, "propose", "fuzz.propose"),
            (executor.WarmVictimPool, "victim", "fuzz.victim"),
            (executor, "build_image", "workloads.generate"),
            (repro.compiler, "compile_module", "compiler.compile"),
            (repro.soc.system, "build_system", "kernel.load"),
            (Kernel, "create_process", "kernel.load"),
            (executor, "snapshot", "replay.snapshot"),
            (executor, "restore", "replay.restore"),
            (executor, "apply_injection", "fuzz.inject"),
            (executor, "classify_outcome", "fuzz.classify"),
            (executor, "signature", "fuzz.signature"),
            (campaign, "minimize", "fuzz.minimize"),
            (campaign, "replay_verify", "fuzz.replay_verify")):
        tracer.patch(owner, attr, name)
    tracer.patch(executor.WarmVictimPool, "execute", "fuzz.execute",
                 numbered=True)


def _campaign_checks(result: Result, report, label: str) -> None:
    """Executions that errored or escaped count as failed; a campaign
    that is not ok for another reason fails one check."""
    result.attempted += report.executions
    bad = report.errors + len(report.result.escapes)
    if bad:
        result.failed += bad
        result.problems.append(f"{label}: {report.errors} errors, "
                               f"{len(report.result.escapes)} escapes")
    else:
        result.check(report.ok, f"{label}: campaign not ok")


def _campaign_observed(report) -> dict:
    return {"unique_signatures": report.unique_signatures,
            "table": report.result.table.to_dict()}


def run_fuzz(seed: int, seconds: float, reps: int, smoke: bool,
             tracer: Tracer, write_golden: bool) -> Result:
    result = Result("fuzz")
    measure_import_setup(result, "repro.fuzz",
                         1 if smoke else SETUP_REPEATS)
    from repro.fuzz import Campaign, executor

    executions = max(8, round(seconds / reps * FUZZ_EXECS_PER_SECOND))
    pool_class = executor.WarmVictimPool
    original_execute = pool_class.execute
    original_build = executor.build_image
    ops: List[float] = []

    # Execution latency and victim builds are counted in both modes:
    # the campaign makes both calls itself.
    def execute(pool, *args, **kwargs):
        began = perf_counter()
        try:
            return original_execute(pool, *args, **kwargs)
        finally:
            ops.append((perf_counter() - began) * 1e3)

    def build_image(spec):
        result.builds += 1
        return original_build(spec)

    meter = GuestMeter(tracer)
    pool_class.execute = execute
    executor.build_image = build_image
    _trace_fuzz(tracer)
    observed = None
    cpus = os.sched_getaffinity(0)
    try:
        for rep in range(reps):
            slow, cpu = move_to_fastest_cpu(cpus)
            ops = []
            began, before = perf_counter(), meter.instructions
            with tracer.span("bench.rep", request=rep):
                report = Campaign(mode="guided", executions=executions,
                                  workers=1, seed=FUZZ_TIMED_SEED).run()
            wall = perf_counter() - began
            result.add_rep(wall, meter.instructions - before, ops,
                           (slow + cpu_slowdown(cpu)) / 2)
            result.machines += report.executions
            _campaign_checks(result, report, f"timed campaign {rep}")
            if observed is None:
                observed = _campaign_observed(report)
            result.check(_campaign_observed(report) == observed,
                         f"timed campaign {rep} differs from the first")
            result.layers["fuzz.useful_ratio"] = \
                report.unique_signatures / report.executions
    finally:
        os.sched_setaffinity(0, cpus)
        tracer.unpatch()
        pool_class.execute = original_execute
        executor.build_image = original_build
        meter.close()
    result.layers.update(meter.layers())
    result.peak_rss_kib = own_peak_rss_kib()
    golden_check(result, f"seed={FUZZ_TIMED_SEED},executions={executions}",
                 observed, write_golden)

    check = Campaign(mode="guided", executions=FUZZ_CHECK_EXECUTIONS,
                     workers=1, seed=seed).run()
    _campaign_checks(result, check, f"seed-{seed} campaign")
    if seed == 1:
        golden_check(result, f"seed=1,executions={FUZZ_CHECK_EXECUTIONS}",
                     _campaign_observed(check), write_golden)
    return result


def run(workload: str, seed: int, seconds: float, smoke: bool,
        trace: bool, write_golden: bool) -> "tuple[Result, Tracer]":
    tracer = Tracer(trace)
    reps = SMOKE_REPS if smoke else REPS
    if workload == "sweep":
        result = run_sweep(seconds, reps, smoke, tracer, write_golden)
    elif workload in ("serve-fork", "serve-steady"):
        result = asyncio.run(_run_serve(workload, seed, seconds, reps,
                                        smoke, tracer, write_golden))
    elif workload == "fuzz":
        result = run_fuzz(seed, seconds, reps, smoke, tracer, write_golden)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return result, tracer
