"""Flight recorder: interval-sampled time-series of the live counters.

A :class:`Sampler` records one row of the architectural counters —
cycles, retires per tier, TLB hits, page walks, ROLoad checks/faults,
region and flat-region residency — every ``interval`` retired
instructions. Sampling happens only at the simulator's existing batch
observation points (the tier-2/3/4 chain loop in ``Core._run_jit`` and
the kernel run loop), where the deferred counters have just flushed:
the per-instruction hot paths stay untouched, and the check the batch
points pay is one ``is not None`` test plus one integer compare against
:attr:`next_at`.

The row buffer is bounded: when it fills, every other sample is dropped
and the interval doubles (decimation), so an arbitrarily long run keeps
a full-span time-series at progressively coarser resolution instead of
either growing without limit or forgetting its prefix.

Export paths: the ``timeseries`` section of the metrics JSON
(:meth:`export`) and Perfetto counter tracks in the Chrome trace
(:meth:`counter_events`).
"""

from __future__ import annotations

from time import perf_counter
from typing import List

DEFAULT_CAPACITY = 4096


class Sampler:
    """Bounded, decimating time-series recorder over a live Core."""

    __slots__ = ("interval", "initial_interval", "capacity", "next_at",
                 "samples", "taken", "decimations")

    def __init__(self, interval: int, capacity: int = DEFAULT_CAPACITY):
        interval = int(interval)
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, "
                             f"got {interval}")
        if capacity < 2:
            raise ValueError(f"sampler needs capacity >= 2, "
                             f"got {capacity}")
        self.interval = interval
        self.initial_interval = interval
        self.capacity = capacity
        self.next_at = interval
        self.samples: "List[dict]" = []
        self.taken = 0
        self.decimations = 0

    def sample(self, core) -> None:
        """Record one row and re-arm :attr:`next_at`.

        Callers gate on ``stats.instructions >= sampler.next_at`` (or
        call unconditionally at run boundaries). Cold path: reads plain
        attributes, mutates nothing the interpreter reads.
        """
        stats = core.timing.stats
        mmu = core.mmu
        instret = stats.instructions
        row = {
            "ts": perf_counter(),
            "instret": instret,
            "cycles": stats.cycles,
            **core.retired_by_tier(),
            "jit_compiled": core.jit_compiled,
            "regions_compiled": core.regions_compiled,
        }
        mstats = getattr(mmu, "stats", None)
        if mstats is not None:
            row["walks"] = mstats.walks
            row["translations"] = mstats.translations
            row["roload_checks"] = mstats.roload_checks
            row["roload_faults"] = mstats.roload_faults
        itlb = getattr(mmu, "itlb", None)
        if itlb is not None:
            row["itlb_hits"] = itlb.hits
        dtlb = getattr(mmu, "dtlb", None)
        if dtlb is not None:
            row["dtlb_hits"] = dtlb.hits
        self.samples.append(row)
        self.taken += 1
        if len(self.samples) >= self.capacity:
            # Decimate: keep every other row, double the interval. The
            # retained rows still span the whole run.
            del self.samples[::2]
            self.interval *= 2
            self.decimations += 1
        self.next_at = instret + self.interval

    def export(self) -> dict:
        """The ``timeseries`` section of the metrics JSON."""
        return {
            "interval": self.interval,
            "initial_interval": self.initial_interval,
            "capacity": self.capacity,
            "taken": self.taken,
            "decimations": self.decimations,
            "samples": [dict(row) for row in self.samples],
        }

    def counter_events(self, epoch: float) -> "List[dict]":
        """The samples as ``counter.*`` events (Perfetto counter tracks),
        timestamped relative to the event stream's epoch so they merge
        cleanly with the emitted events in one Chrome trace."""
        events: "List[dict]" = []
        for row in self.samples:
            ts = max(row["ts"] - epoch, 0.0)
            events.append({
                "ts": ts, "type": "counter.sampled.tiers", "cat": "sim",
                "tier0": row["tier0"], "tier1": row["tier1"],
                "tier2": row["tier2"], "tier4": row["tier4"],
            })
            events.append({
                "ts": ts, "type": "counter.sampled.progress",
                "cat": "sim", "instret": row["instret"],
                "cycles": row["cycles"],
            })
            mmu_args = {key: row[key]
                        for key in ("walks", "roload_checks",
                                    "roload_faults", "itlb_hits",
                                    "dtlb_hits")
                        if key in row}
            if mmu_args:
                events.append({"ts": ts, "type": "counter.sampled.mmu",
                               "cat": "sim", **mmu_args})
            events.append({
                "ts": ts, "type": "counter.sampled.compiled",
                "cat": "sim", "jit_compiled": row["jit_compiled"],
                "regions_compiled": row["regions_compiled"],
            })
        return events
