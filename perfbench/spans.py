"""Spans and counters around the pipeline's public functions.

The traced benchmark run installs timing wrappers from here onto the
functions each layer exposes, bound where their consumers look them
up (``repro.core.heuristic.edge_delta_distances``, both
``repro.netsim.tcpmodel.solve_fluid`` and
``repro.netsim.experiments.solve_fluid``, ...).  Nothing under
``src/`` changes: the wrappers are plain attribute replacements made
in the benchmark's own child process before the timed call, so
forked sweep workers inherit them.

Each wrapped call records one span: name, start, duration and self
time (duration minus the time its wrapped children took).  Per-name
aggregates (calls, total, self) are exact; individual spans are kept
for the trace file up to ``SPAN_CAP`` per name.  Pool workers leave
through ``os._exit`` and never run ``atexit``, so each worker appends
its spans to a shard file after every sweep point and the supervisor
merges the shards when the sweep returns.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import time
from pathlib import Path

#: Individual spans kept per name for the trace file (aggregates stay
#: exact past the cap).
SPAN_CAP = 2000


class Recorder:
    """Per-process span and counter store."""

    def __init__(self, shard_dir: Path) -> None:
        self.shard_dir = Path(shard_dir)
        self.owner_pid = os.getpid()
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (name, start_ns, dur_ns, self_ns, pid)
        self.kept: dict[str, int] = {}
        self.stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def record(self, name: str, start: int, dur: int, self_ns: int) -> None:
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += self_ns
        kept = self.kept.get(name, 0)
        if kept < SPAN_CAP:
            self.kept[name] = kept + 1
            self.spans.append((name, start, dur, self_ns, os.getpid()))

    def flush_shard(self) -> None:
        """Append this process's spans to its shard file and clear them."""
        doc = {
            "pid": os.getpid(),
            "agg": self.agg,
            "counters": self.counters,
            "spans": self.spans,
        }
        path = self.shard_dir / f"shard-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        self.reset()

    def merged(self) -> dict:
        """This process's spans plus every worker shard."""
        docs = [{"agg": self.agg, "counters": self.counters, "spans": self.spans}]
        for path in sorted(self.shard_dir.glob("shard-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                docs.append(json.loads(line))
        agg: dict[str, list[int]] = {}
        counters: dict[str, float] = {}
        spans: list[tuple] = []
        exported: dict[str, int] = {}
        for doc in docs:
            for name, (calls, total, self_ns) in doc["agg"].items():
                entry = agg.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_ns
            for name, value in doc["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for span in doc["spans"]:
                if exported.get(span[0], 0) < SPAN_CAP:
                    exported[span[0]] = exported.get(span[0], 0) + 1
                    spans.append(tuple(span))
        return {"agg": agg, "counters": counters, "spans": spans}


def _timed(rec: Recorder, name: str, fn, before=None, after=None, skip=None):
    """``fn`` wrapped to record a span; hooks see (args, kwargs[, result])."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip is not None and skip(args):
            return fn(*args, **kwargs)
        state = before(rec, args, kwargs) if before is not None else None
        stack = rec.stack
        stack.append(0)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - start
            children = stack.pop()
            if stack:
                stack[-1] += dur
            rec.record(name, start, dur, dur - children)
        if after is not None:
            after(rec, args, kwargs, result, state)
        return result

    return wrapper


def _patch(rec: Recorder, target: str, name: str, **hooks) -> None:
    """Wrap ``module:attr`` or ``module:Class.method`` in place.

    A target the code no longer has is listed in ``rec.missing`` and
    its metrics read 0, so a later refactor that moves a function shows
    up in the report instead of breaking the traced run.
    """
    module_name, _, attr = target.partition(":")
    *path, leaf = attr.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    except (ImportError, AttributeError, KeyError):
        rec.missing.append(target)
        return
    setattr(owner, leaf, _timed(rec, name, original, **hooks))


# -- hooks ------------------------------------------------------------------


def _count_points(rec, args, kwargs, result, state):
    import numpy as np

    rec.add("terrain.elevation_m.points", int(np.size(args[1])))


def _cache_before(rec, args, kwargs):
    stats = getattr(args[0].checker, "cache_stats", None)
    return stats() if stats is not None else None


def _hop_stats(rec, args, kwargs, result, before):
    pipeline = args[0]
    stats = getattr(pipeline, "stats", None)
    if stats is not None:
        rec.add("pipeline.candidate_pairs", stats.candidate_pairs)
        rec.add("pipeline.feasible_hops", stats.feasible_hops)
    if before is not None:
        after = pipeline.checker.cache_stats()
        rec.add("los.profile_cache.hits", after["profile_hits"] - before["profile_hits"])
        rec.add(
            "los.profile_cache.misses",
            after["profile_misses"] - before["profile_misses"],
        )


def _commodities(rec, args, kwargs, result, state):
    flows = kwargs.get("flows", args[1] if len(args) > 1 else None)
    count = getattr(flows, "n_commodities", None)
    if count is not None:
        rec.add("netsim.commodities_total", count)


def _solver_row(rec, args, kwargs, rows, state):
    for row in rows:
        if row.get("series") == "solver":
            for key in ("full_solves", "delta_solves", "memo_hits"):
                rec.add(f"whatif.{key}", row.get(key, 0))


def _store_get_before(rec, args, kwargs):
    store, key = args[0], args[1]
    return key in getattr(store, "_memory", {})


def _store_get_after(rec, args, kwargs, result, in_memory):
    found, _artifact = result
    if found:
        rec.add("store.get.hits", 1)
        if not in_memory:
            rec.add("store.get.bytes", os.path.getsize(args[0].path_for(args[1])))


def _store_put_after(rec, args, kwargs, path, state):
    if path is not None:
        rec.add("store.put.bytes", os.path.getsize(path))


def _already_solved(args) -> bool:
    return getattr(args[0], "_pred", None) is not None


def install(rec: Recorder) -> None:
    """Wrap every layer function the per-layer table names."""
    os.register_at_fork(after_in_child=rec.reset)
    patch = functools.partial(_patch, rec)
    # terrain / LoS
    patch("repro.geo.terrain:TerrainModel.elevation_m", "terrain.elevation_m",
          after=_count_points)
    patch("repro.towers.los:LosChecker.profile_terrain_m", "los.profile_terrain_m")
    patch("repro.core.pipeline:CachingLosChecker.profile_terrain_m",
          "pipeline.profile_cache")
    patch("repro.core.pipeline:HopPipeline.enumerate_hops", "pipeline.enumerate_hops",
          before=_cache_before, after=_hop_stats)
    # substrate assembly (bound in the scenario builder)
    patch("repro.scenarios.base:synthesize_towers", "synthesis.synthesize_towers")
    patch("repro.scenarios.base:build_link_catalog", "links.build_link_catalog")
    patch("repro.scenarios.base:build_conduit_network", "fiber.build_conduit_network")
    # design
    patch("repro.core.heuristic:greedy_sequence", "heuristic.greedy_sequence")
    for consumer in ("repro.core.heuristic", "repro.graph.view", "repro.graph.kernel"):
        patch(f"{consumer}:edge_delta_distances", "graph.edge_delta_distances")
    # A kernel's first predecessors() call is its one full solve;
    # distances() goes through it, later calls return the cached matrix.
    patch("repro.graph.kernel:GraphKernel.predecessors", "graph.kernel.distances",
          skip=_already_solved)
    patch("repro.core.design:augment_capacity", "augmentation.augment_capacity")
    # netsim
    patch("repro.netsim.experiments:run_load_curve", "netsim.run_load_curve")
    patch("repro.netsim.experiments:solve_fluid_tcp", "netsim.solve_fluid_tcp",
          after=_commodities)
    for consumer in ("repro.netsim.experiments", "repro.netsim.tcpmodel"):
        patch(f"{consumer}:solve_fluid", "netsim.solve_fluid")
    patch("repro.netsim.experiments:kept_flow_table", "netsim.kept_flow_table")
    # weather
    patch("repro.weather.degradation:weather_stage_records", "weather.stage_records",
          after=_solver_row)
    patch("repro.weather.evaluation:YearlyWeatherEvaluator.rain_for_days",
          "weather.rain_for_days")
    patch("repro.graph.whatif:FailureSetSolver.distances_for", "whatif.distances_for")
    # store
    patch("repro.exp.store:ArtifactStore.get", "store.get",
          before=_store_get_before, after=_store_get_after)
    patch("repro.exp.store:ArtifactStore.put", "store.put", after=_store_put_after)
    # orchestration: one span per stage compute, one per sweep point
    from repro.exp import stages

    for name, stage in list(stages.STAGES.items()):
        stages.STAGES[name] = dataclasses.replace(
            stage, run=_timed(rec, f"stage.{name}", stage.run)
        )

    def flush_in_worker(rec_, args, kwargs, result, state):
        if os.getpid() != rec_.owner_pid:
            rec_.flush_shard()

    patch("repro.exp.service:run_experiment", "point", after=flush_in_worker)


def span_cost_s(calls: int = 50_000) -> float:
    """Wall seconds one wrapper adds to a call (calibrated on a no-op)."""
    rec = Recorder(Path("."))

    def noop():
        return None

    wrapped = _timed(rec, "calibration", noop)
    start = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    bare = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter_ns() - start
    return max(0, traced - bare) / calls / 1e9


# -- reporting --------------------------------------------------------------


def per_layer_metrics(merged: dict) -> dict[str, float]:
    """The per-layer metric values (the names BENCHMARK.json lists)."""
    agg, counters = merged["agg"], merged["counters"]

    def calls(name):
        return agg.get(name, [0, 0, 0])[0]

    def total_s(name):
        return agg.get(name, [0, 0, 0])[1] / 1e9

    def self_s(name):
        return agg.get(name, [0, 0, 0])[2] / 1e9

    def count(name):
        return counters.get(name, 0)

    hits, misses = count("los.profile_cache.hits"), count("los.profile_cache.misses")
    tcp_calls = calls("netsim.solve_fluid_tcp")
    out = {
        "terrain.elevation_m.calls": calls("terrain.elevation_m"),
        "terrain.elevation_m.points": count("terrain.elevation_m.points"),
        "terrain.elevation_m.s": total_s("terrain.elevation_m"),
        "los.profile_terrain_m.calls": calls("los.profile_terrain_m"),
        "los.profile_terrain_m.s": self_s("los.profile_terrain_m"),
        "los.profile_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pipeline.profile_cache.s": self_s("pipeline.profile_cache"),
        "pipeline.enumerate_hops.s": total_s("pipeline.enumerate_hops"),
        "pipeline.candidate_pairs": count("pipeline.candidate_pairs"),
        "pipeline.feasible_hops": count("pipeline.feasible_hops"),
        "synthesis.synthesize_towers.s": total_s("synthesis.synthesize_towers"),
        "links.build_link_catalog.s": total_s("links.build_link_catalog"),
        "fiber.build_conduit_network.s": total_s("fiber.build_conduit_network"),
        "heuristic.greedy_sequence.s": total_s("heuristic.greedy_sequence"),
        "graph.edge_delta_distances.calls": calls("graph.edge_delta_distances"),
        "graph.edge_delta_distances.s": total_s("graph.edge_delta_distances"),
        "graph.kernel.distances.calls": calls("graph.kernel.distances"),
        "graph.kernel.distances.s": total_s("graph.kernel.distances"),
        "augmentation.augment_capacity.s": total_s("augmentation.augment_capacity"),
        "netsim.run_load_curve.s": total_s("netsim.run_load_curve"),
        "netsim.solve_fluid_tcp.calls": tcp_calls,
        "netsim.solve_fluid.calls": calls("netsim.solve_fluid"),
        "netsim.solve_fluid.s": total_s("netsim.solve_fluid"),
        "netsim.fills_per_tcp_solve": (
            calls("netsim.solve_fluid") / tcp_calls if tcp_calls else 0.0
        ),
        "netsim.kept_flow_table.s": total_s("netsim.kept_flow_table"),
        "netsim.commodities": (
            count("netsim.commodities_total") / tcp_calls if tcp_calls else 0.0
        ),
        "weather.stage_records.s": total_s("weather.stage_records"),
        "weather.rain_for_days.s": total_s("weather.rain_for_days"),
        "whatif.distances_for.calls": calls("whatif.distances_for"),
        "whatif.distances_for.s": total_s("whatif.distances_for"),
        "whatif.full_solves": count("whatif.full_solves"),
        "whatif.delta_solves": count("whatif.delta_solves"),
        "whatif.memo_hits": count("whatif.memo_hits"),
        "store.get.calls": calls("store.get"),
        "store.get.hits": count("store.get.hits"),
        "store.get.s": total_s("store.get"),
        "store.get.bytes": count("store.get.bytes"),
        "store.put.calls": calls("store.put"),
        "store.put.s": total_s("store.put"),
        "store.put.bytes": count("store.put.bytes"),
    }
    for stage in ("substrate", "design", "netsim", "weather", "econ"):
        name = f"stage.{stage}"
        out[f"{name}.s"] = total_s(name)
        out[f"{name}.computed"] = calls(name)
        # Stage wall not covered by any wrapped layer inside it.
        out[f"trace.unattributed_frac.{stage}"] = (
            self_s(name) / total_s(name) if total_s(name) > 0 else 0.0
        )
    return out


def layer_table(merged: dict, wall_s: float) -> str:
    """Per-name calls / total / self time, biggest self time first.

    The last column is self time over the traced call's wall time; it
    sums over sweep workers, so it can exceed 100%.
    """
    rows = sorted(merged["agg"].items(), key=lambda kv: -kv[1][2])
    lines = [
        f"{'span':36s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'self/wall':>9s}",
    ]
    for name, (calls, total, self_ns) in rows:
        share = 100.0 * self_ns / 1e9 / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:36s} {calls:9d} {total / 1e9:10.4f} {self_ns / 1e9:10.4f} "
            f"{share:8.1f}%"
        )
    return "\n".join(lines)


def write_chrome_trace(merged: dict, path: Path, supervisor_pid: int) -> None:
    """Chrome Trace Event JSON (opens in Perfetto / chrome://tracing)."""
    spans = merged["spans"]
    origin = min((s[1] for s in spans), default=0)
    events = []
    for pid in sorted({s[4] for s in spans}):
        label = "benchmark child" if pid == supervisor_pid else f"pool worker {pid}"
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
             "args": {"name": label}}
        )
    for name, start, dur, self_ns, pid in spans:
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": dur / 1e3,
                "pid": pid,
                "tid": pid,
                "args": {"self_us": self_ns / 1e3},
            }
        )
    exported: dict[str, int] = {}
    for span in spans:
        exported[span[0]] = exported.get(span[0], 0) + 1
    dropped = {
        name: calls - exported.get(name, 0)
        for name, (calls, _t, _s) in merged["agg"].items()
        if calls > exported.get(name, 0)
    }
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans_not_exported": dropped, "span_cap_per_name": SPAN_CAP},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
