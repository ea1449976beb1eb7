"""One benchmark step in a fresh interpreter (started by ``run.py``).

Modes:

``seed``
    Run the workload's pre-seeded stages into a template store.
``setup``
    Import ``repro``, build the spec and the store (and the
    ``SweepService`` for sweeps), report the moment the timed call
    would start, and exit.
``cold``
    The same set-up, then one timed call -- ``run_experiment`` or
    ``SweepService.run`` -- on a fresh copy of the template store.
    With ``--trace-dir`` the layer wrappers from ``spans.py`` are
    installed first; workers write span shards there, and the merged
    Chrome trace and layer table go to ``--trace-out``.
``warm``
    The same set-up, then the same call once on the store a cold call
    filled: a fresh process has an empty store memory layer, so every
    stage is served from disk, as for a user who reruns an experiment.

The result is one JSON file (``--out``).  The process reaps its sweep
workers and leaves through ``os._exit``, so the parent's ``wait4``
resource usage covers this interpreter and every worker, and no
interpreter teardown runs after the numbers are taken.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wl

def cpu_self_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def pkl_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*.pkl"))


def reap_workers() -> None:
    """Wait until every pool worker this process started has exited."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=30)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class Call:
    """The workload's timed call, built the way a user would build it."""

    def __init__(self, workload: str, seed: int, store_root: str, jobs: int) -> None:
        from repro.exp import ArtifactStore, ExperimentSpec, SweepService

        self.w = wl.WORKLOADS[workload]
        self.spec = ExperimentSpec.from_dict(wl.spec_dict(workload, seed))
        self.store = ArtifactStore(store_root)
        self.service = None
        if self.w["axes"] is not None:
            self.service = SweepService(
                self.spec, self.w["axes"], store=self.store, jobs=jobs
            )

    def run(self):
        """(records JSON, per-point stage status, quarantined point indices)."""
        from repro.exp import run_experiment

        if self.service is None:
            run = run_experiment(self.spec, store=self.store)
            return run.records_json(), [run.stage_status], set()
        result = self.service.run()
        failed = {f.index for f in result.failures}
        return (
            result.records_json(),
            [p.stage_status for p in result.points],
            failed,
        )


def failed_points(statuses, quarantined, expected) -> set[int]:
    """Points that were quarantined or report an unexpected stage status."""
    bad = set(quarantined)
    for index, status in enumerate(statuses):
        if not status or any(status.get(k) != v for k, v in expected.items()):
            bad.add(index)
        elif any(v not in ("cached", "computed") for v in status.values()):
            bad.add(index)
    return bad


def service_counters(call: Call, statuses) -> dict:
    """Executor waste: redundant stage computes, waves, journal size."""
    from repro.exp import point_waves, stage_key

    computed = [
        (stage, stage_key(spec, stage))
        for (_assignment, spec), status in zip(call.service.points, statuses)
        for stage, outcome in status.items()
        if outcome == "computed"
    ]
    journal = call.service.queue.journal_path
    return {
        "redundant_computes": len(computed) - len(set(computed)),
        "waves": len(point_waves(call.service.points, call.store)),
        "journal_bytes": journal.stat().st_size if journal.exists() else 0,
    }


def do_cold(args, out: dict) -> None:
    call = Call(args.workload, args.seed, args.store, args.jobs)
    rec = None
    if args.trace_dir:
        import spans

        shard_dir = Path(args.trace_dir) / "shards"
        shard_dir.mkdir(parents=True, exist_ok=True)
        rec = spans.Recorder(shard_dir)
        spans.install(rec)
    bytes_before = pkl_bytes(Path(args.store))
    out["cpu_setup"] = cpu_self_s()
    out["ready"] = time.monotonic()
    start = time.perf_counter()
    records_json, statuses, quarantined = call.run()
    out["run_s"] = time.perf_counter() - start
    cpu_end = cpu_self_s()
    reap_workers()

    raw = records_json.encode("utf-8")
    Path(args.records_out).write_bytes(raw)
    out["digest"] = hashlib.sha256(raw).hexdigest()
    out["points"] = len(statuses)
    out["failed_points"] = sorted(
        failed_points(statuses, quarantined, call.w["cold_status"])
    )
    out["statuses"] = statuses
    out["store_bytes"] = pkl_bytes(Path(args.store)) - bytes_before
    if call.service is not None:
        out["service"] = service_counters(call, statuses)
    if rec is not None:
        write_trace(args, rec, out)
    out["cpu_post"] = cpu_self_s() - cpu_end


def write_trace(args, rec, out: dict) -> None:
    import spans

    merged = rec.merged()
    trace_out = Path(args.trace_out)
    trace_out.mkdir(parents=True, exist_ok=True)
    base = trace_out / f"{args.workload}-seed{args.seed}"
    spans.write_chrome_trace(merged, base.with_suffix(".trace.json"), os.getpid())
    table = spans.layer_table(merged, out["run_s"])
    base.with_suffix(".layers.txt").write_text(table + "\n", encoding="utf-8")
    layers = spans.per_layer_metrics(merged)
    point = merged["agg"].get("point", [0, 0, 0])
    layers["service.worker_busy_frac"] = (
        point[1] / 1e9 / (args.jobs * out["run_s"]) if point[0] else 0.0
    )
    out["layers"] = layers
    out["missing_wrappers"] = rec.missing
    out["spans"] = sum(calls for calls, _total, _self in merged["agg"].values())
    out["span_cost_s"] = spans.span_cost_s()
    out["layer_table"] = table
    out["trace_files"] = [
        str(base.with_suffix(".trace.json")),
        str(base.with_suffix(".layers.txt")),
    ]


def do_warm(args, out: dict) -> None:
    call = Call(args.workload, args.seed, args.store, args.jobs)
    cold = Path(args.records).read_bytes()
    start = time.perf_counter()
    records_json, statuses, quarantined = call.run()
    out["run_s"] = time.perf_counter() - start
    reap_workers()
    bad = failed_points(statuses, quarantined, {})
    for index, status in enumerate(statuses):
        if any(v != "cached" for v in status.values()):
            bad.add(index)
    if records_json.encode("utf-8") != cold:
        bad = set(range(len(statuses)))
    out.update(attempted=len(statuses), failed=len(bad))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("seed", "setup", "cold", "warm"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace-dir", help="scratch directory for span shards")
    parser.add_argument("--trace-out", help="where the trace files go")
    parser.add_argument("--records", help="cold records file (warm mode)")
    parser.add_argument("--records-out", help="where cold mode writes its records")
    args = parser.parse_args()

    import repro  # noqa: F401 - the import is part of measured set-up

    out: dict = {}
    if args.mode == "seed":
        from repro.exp import ArtifactStore, ExperimentSpec, run_experiment

        spec = ExperimentSpec.from_dict(wl.spec_dict(args.workload, args.seed))
        stages = wl.WORKLOADS[args.workload]["preseed"]
        run_experiment(spec, store=ArtifactStore(args.store), stages=stages)
    elif args.mode == "setup":
        Call(args.workload, args.seed, args.store, args.jobs)
        out["ready"] = time.monotonic()
    elif args.mode == "cold":
        do_cold(args, out)
    else:
        do_warm(args, out)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    code = 0
    try:
        main()
    except BaseException:  # report, reap, and leave with a failure code
        traceback.print_exc()
        code = 1
        try:
            reap_workers()
        except BaseException:  # pragma: no cover - already failing
            pass
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
