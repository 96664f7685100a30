"""Benchmark: SAP churn, SAP refresh, paper-scale figures and dense
allocation, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sap-churn --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs each
round untraced and then traced, on the same inputs, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines above it give the run's provenance, every
metric by name and unit, and the checks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics every workload reports in its result: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("allocs_per_s", "allocations/s"),
    ("peak_rss_mb", "MB"),
)


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host": {
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without
    git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Rounds of one workload and what they measured."""

    def __init__(self, workload, seed: int, digests=None) -> None:
        self.workload = workload
        self.seed = seed
        self.setup_times = []
        self.rounds = []
        self.errors = []
        self.checks = 0
        self.attempted = 0
        self.failed = 0
        #: realization -> outputs of its first round; a later round of
        #: the same realization must reproduce them exactly
        self.digests = {} if digests is None else digests
        #: realization -> (the fastest time of each slice of its timed
        #: work, and of each of its allocate() calls)
        self.best = {}
        #: realization -> its first timed round
        self.firsts = {}

    def setup(self, probe, realization: int = 0):
        gc.collect()
        start = time.perf_counter()
        state = self.workload.setup(self.seed, probe, realization)
        self.setup_times.append(time.perf_counter() - start)
        return state

    def round(self, state, probe, realization: int = 0,
              timed: bool = True):
        before = len(probe.latencies)
        sliced = len(probe.slices)
        gc.collect()
        result = self.workload.run_round(state, probe)
        latencies = probe.latencies[before:]
        self.attempted += result.attempted
        self.failed += result.failed
        self.checks += result.checks + 1
        self.errors.extend(result.errors)
        first = self.digests.setdefault(realization, result.digest)
        if result.digest != first:
            self.errors.append(f"realization {realization} gave "
                               f"{result.digest}, before {first}")
        if timed:
            self.rounds.append(result)
            self.firsts.setdefault(realization, result)
            self.keep_best(realization, probe.slices[sliced:], latencies)
        return result

    def keep_best(self, realization: int, slices, latencies) -> None:
        """A realization does the same work, slice by slice, every time
        it runs; each slice and each allocate() call is kept at its
        fastest, since a shared host only ever adds time."""
        import numpy

        slices = numpy.asarray(slices)
        latencies = numpy.asarray(latencies)
        if realization in self.best:
            best_slices, best_latencies = self.best[realization]
            if (len(best_slices), len(best_latencies)) != (
                    len(slices), len(latencies)):
                self.errors.append(
                    f"realization {realization} ran {len(latencies)} "
                    f"allocate() calls in {len(slices)} slices, before "
                    f"{len(best_latencies)} in {len(best_slices)}")
                return
            slices = numpy.minimum(slices, best_slices)
            latencies = numpy.minimum(latencies, best_latencies)
        self.best[realization] = (slices, latencies)


def measure(workload, seed: int, seconds: float):
    """The untraced run: set-up samples, then whole cycles over the
    workload's realizations until the next cycle would overrun."""
    from workloads import AllocProbe

    run = Run(workload, seed)
    probe = AllocProbe()
    state = None
    if workload.reuses_state:
        for __ in range(workload.setup_repeats):
            state = run.setup(probe)
    if workload.check_round:
        run.round(state, AllocProbe(check=True), timed=False)
    probe = AllocProbe()
    started = time.perf_counter()
    cycles = 0
    while True:
        for realization in range(workload.realizations):
            if not workload.reuses_state:
                state = run.setup(probe, realization)
            run.round(state, probe, realization)
        cycles += 1
        elapsed = time.perf_counter() - started
        if elapsed * (cycles + 1) / cycles > seconds:
            break
    return run, cycles


def fastest_cycle(run):
    """(wall time, allocate() latencies) of one cycle over the run's
    realizations, each slice and call at its fastest."""
    import numpy

    wall = sum(float(slices.sum()) for slices, __ in run.best.values())
    latencies = numpy.concatenate([calls for __, calls in run.best.values()])
    return wall, latencies


def end_to_end(run) -> dict:
    wall, latencies = fastest_cycle(run)
    return {
        "setup_s": statistics.median(run.setup_times),
        "allocs_per_s": len(latencies) / wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def report_end_to_end(run, cycles, metrics) -> list:
    import numpy

    units = dict(END_TO_END)
    wall, latencies = fastest_cycle(run)
    lines = [f"  {name:<18} {metrics[name]:>14.4f} {units[name]}"
             for name, __ in END_TO_END]
    lines[0] += f"  (median of {len(run.setup_times)} set-ups)"
    lines[1] += (f"  ({len(run.best)} realizations x {cycles} cycles, "
                 f"each slice at its fastest)")
    # Printed, not gated (see README): latency quantiles spread across
    # seeds more than their bound allows on this host.
    for name, quantile in (("alloc_p50_us", 0.5), ("alloc_p99_us", 0.99)):
        value = float(numpy.quantile(latencies, quantile)) * 1e6
        lines.append(f"  {name:<18} {value:>14.4f} us  ({len(latencies)} "
                     f"calls, each at its fastest)")
    lines.append(f"  {'wall_s':<18} {wall:>14.4f} s"
                 f"  (one cycle, each slice at its fastest)")
    first = run.firsts
    if any(r.events for r in first.values()):
        events = sum(r.events for r in first.values())
        deliveries = sum(r.deliveries for r in first.values())
        lines.append(f"  {'sim_events_per_s':<18} {events / wall:>14.1f} "
                     f"events/s")
        lines.append(f"  {'deliveries_per_s':<18} "
                     f"{deliveries / wall:>14.1f} packets/s")
    collisions = sum(r.counters.get("hash_collisions", 0)
                     for r in first.values())
    if collisions:
        lines.append(f"  {collisions} sessions shared a SAP message id "
                     f"hash with another session of their site and were "
                     f"hidden from every other cache")
    stale = sum(r.counters.get("stale_versions", 0)
                for r in first.values())
    if stale:
        lines.append(f"  {stale} cache entries held a replaced version "
                     f"of a session beside its current one")
    return lines


def one_pass(workload, seed: int, realization: int, digests,
             traced: bool):
    """One set-up plus one round, traced or not; returns (run, probe,
    tracer, wall)."""
    from tracing import Tracer
    from workloads import AllocProbe

    run = Run(workload, seed, digests)
    probe = AllocProbe()
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        state = run.setup(probe, realization)
        result = run.round(state, probe, realization)
    return run, probe, tracer, run.setup_times[0] + result.wall


def measure_layers(workload, seed: int, seconds: float):
    """Alternate untraced and traced passes on the same inputs; tracing
    must leave every output unchanged."""
    untraced, traced = [], []
    digests = {}
    started = time.perf_counter()
    while True:
        realization = 0 if workload.reuses_state else len(traced)
        untraced.append(one_pass(workload, seed, realization, digests,
                                 traced=False))
        traced.append(one_pass(workload, seed, realization, digests,
                               traced=True))
        elapsed = time.perf_counter() - started
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    return untraced, traced


#: Per-layer metrics: (name, unit).  The README maps each to the
#: end-to-end metric and workload it should move.
PER_LAYER_UNITS = {
    "events": "count", "sends": "count", "deliveries": "count",
    "losses": "count", "hit_ratio": "ratio",
    "parses_per_new_entry": "ratio", "entries_scanned": "count",
    "message_keys": "count", "address_changes": "count",
    "clashes": "count", "defences": "count", "retreats": "count",
    "visible_mean": "sessions", "forced": "count",
}


def layer_metrics(traced, untraced) -> dict:
    """Per-pass means of the traced passes, plus the trace accounting."""
    from tracing import LAYERS

    passes = len(traced)
    out = {}

    def add(name, value):
        out[name] = out.get(name, 0.0) + value / passes

    for run, probe, tracer, wall in traced:
        calls, total = tracer.calls, tracer.total
        rounds = run.rounds
        outcomes = tracer.cache_outcomes
        observed = sum(outcomes.values())
        misses = outcomes["miss"]
        allocations = calls["core.allocate"]
        counters = {}
        for result in rounds:
            for key, value in result.counters.items():
                counters[key] = counters.get(key, 0) + value
        add("sim.events.events", sum(r.events for r in rounds))
        add("sim.network.sends", calls["sim.network.send"])
        add("sim.network.send_s", total["sim.network.send"])
        add("sim.network.deliveries", sum(r.deliveries for r in rounds))
        add("sim.network.losses", sum(r.losses for r in rounds))
        add("sap.messages.encode_calls", calls["sap.messages.encode"])
        add("sap.messages.encode_s", total["sap.messages.encode"])
        add("sap.messages.decode_calls", calls["sap.messages.decode"])
        add("sap.messages.decode_s", total["sap.messages.decode"])
        add("sap.sdp.format_calls", calls["sap.sdp.format"])
        add("sap.sdp.format_s", total["sap.sdp.format"])
        add("sap.sdp.parse_calls", calls["sap.sdp.parse"])
        add("sap.sdp.parse_s", total["sap.sdp.parse"])
        add("sap.sdp.parses_per_new_entry",
            calls["sap.sdp.parse"] / misses if misses else 0.0)
        add("sap.cache.observe_calls", calls["sap.cache.observe"])
        add("sap.cache.observe_s", total["sap.cache.observe"])
        add("sap.cache.hit_ratio",
            outcomes["hit"] / observed if observed else 0.0)
        add("sap.cache.scan_calls", calls["sap.cache.scan"])
        add("sap.cache.scan_s", total["sap.cache.scan"])
        add("sap.cache.entries_scanned", tracer.entries_scanned)
        add("sap.cache.visible_set_s", total["sap.cache.visible_set"])
        add("sap.directory.owns_calls", calls["sap.directory.owns"])
        add("sap.directory.owns_s", total["sap.directory.owns"])
        add("sap.directory.message_keys",
            calls["sap.directory.message_key"])
        add("sap.directory.address_changes",
            counters.get("address_changes", 0))
        add("sap.clash_protocol.on_announcement_s",
            total["sap.clash_protocol.on_announcement"])
        add("sap.clash_protocol.clashes", counters.get("clashes", 0))
        add("sap.clash_protocol.defences", counters.get("defences", 0))
        add("sap.clash_protocol.retreats", counters.get("retreats", 0))
        add("core.allocate_calls", allocations)
        add("core.allocate_s", total["core.allocate"])
        add("core.visible_mean",
            probe.visible_total / allocations if allocations else 0.0)
        add("core.forced", probe.forced)
        add("core.band_geometry_s", total["core.band_geometry"])
        add("experiments.world.visible_at_calls",
            calls["experiments.world.visible_at"])
        add("experiments.world.visible_at_s",
            total["experiments.world.visible_at"])
        add("experiments.world.clashes_s",
            total["experiments.world.clashes"])
        add("routing.scoping.overlap_calls",
            calls["routing.scoping.overlap"])
        add("routing.scoping.overlap_s", total["routing.scoping.overlap"])
        add("routing.scoping.build_s", total["routing.scoping.build"])
        add("topology.mbone.generate_s", total["topology.mbone.generate"])
        for layer in LAYERS:
            add(f"{layer}.self_s", tracer.self_time.get(layer, 0.0))
        add("trace.wall_s", wall)
        add("trace.uncovered_s", wall - tracer.covered())
    untraced_wall = statistics.median(wall for *__, wall in untraced)
    traced_wall = statistics.median(wall for *__, wall in traced)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    return "count" if last.endswith("_calls") else "s"


def check_layer_sums(metrics: dict) -> list:
    """The layers' self times and the uncovered time must add up to the
    traced wall time, and none may be negative."""
    from tracing import LAYERS

    parts = [metrics[f"{layer}.self_s"] for layer in LAYERS]
    parts.append(metrics["trace.uncovered_s"])
    errors = [f"negative time {value}" for value in parts if value < -1e-9]
    if abs(sum(parts) - metrics["trace.wall_s"]) > 1e-6 * max(
            1.0, metrics["trace.wall_s"]):
        errors.append(f"self times sum to {sum(parts)}, traced wall is "
                      f"{metrics['trace.wall_s']}")
    return errors


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    print(f"== {name} seed={seed} seconds={seconds} trace={trace}")
    if trace:
        untraced, traced = measure_layers(workload, seed, seconds)
        runs = [r for r, *__ in untraced] + [r for r, *__ in traced]
        metrics = layer_metrics(traced, untraced)
        errors = [e for r in runs for e in r.errors]
        errors += check_layer_sums(metrics)
        run = untraced[0][0]
        print("  first untraced pass (end to end):")
        for line in report_end_to_end(run, 1, end_to_end(run)):
            print("  " + line)
        print(f"  per layer (mean of {len(traced)} traced passes):")
        for key in sorted(metrics):
            print(f"  {key:<40} {metrics[key]:>14.6f} {layer_unit(key)}")
        print("  spans (last traced pass):")
        for line in traced[-1][2].call_tree():
            print(line)
    else:
        run, cycles = measure(workload, seed, seconds)
        runs = [run]
        metrics = end_to_end(run)
        errors = list(run.errors)
        for line in report_end_to_end(run, cycles, metrics):
            print(line)
    checks = sum(r.checks for r in runs)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    meta = provenance(name, seed, seconds, trace)
    meta.update(attempted=attempted, failed=failed,
                rounds=sum(len(r.rounds) for r in runs), checks=checks)
    print("run: " + json.dumps(meta, sort_keys=True))
    if errors:
        print(f"checks: FAIL ({len(errors)} of {checks})")
        for error in errors[:20]:
            print(f"  - {error}")
    else:
        print(f"checks: pass ({checks})")
    units = dict(END_TO_END)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value,
                  "unit": layer_unit(key) if trace else units[key]}
            for key, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="sap-churn, sap-refresh, alloc-paper, "
                             "alloc-dense, or all")
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing from {SRC}; "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    results = {name: run_workload(name, args.seed, args.seconds,
                                  args.trace)
               for name in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value
                        for name, result in results.items()
                        for key, value in result["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
