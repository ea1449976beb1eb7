#!/usr/bin/env python3
"""Flagship end-to-end benchmark of the cISP pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload flagship_cold --seed 0 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``flagship_cold``, ``design_sweep``
and ``eval_sweep``.  Each is a closed loop with one client -- this
process -- that starts a fresh interpreter per repetition, lets it
call ``run_experiment`` or ``SweepService.run`` once and waits for
the result before starting the next.  Repetitions run until their
timed calls add up to ``--seconds`` (at least one).

``--trace 0`` reports the end-to-end metrics, all measured untraced:

* ``setup_s``: fresh interpreter start, ``import repro``, spec build
  and a fresh copy of the pre-seeded store, up to the timed call
  (median over at least five set-ups);
* ``run_s`` / ``run_cpu_s``: wall and CPU time of the timed call; the
  CPU time comes from ``wait4`` on the child after it has reaped its
  sweep workers, less the child's own set-up and post-processing;
* ``warm_s``: the same call on the store the cold call filled, in a
  fresh interpreter so every stage is read from disk (median of five);
* ``peak_rss_mb``: peak RSS of the child and its workers;
* ``store_bytes``: artifact bytes the cold call wrote;
* ``ok_frac``: points that passed every check, over points attempted
  (``failed_frac`` = 1 - ``ok_frac``; the table printed above the
  result line shows both).

``--trace 1`` runs one untraced and one traced cold call (plus, for
the sweeps, one untraced ``jobs=1`` call) and reports the per-layer
metrics from the traced one, writing a Chrome trace and a layer
table under ``.perfbench/traces/``.

Output checks: every point must report the workload's stage-status
pattern and must not be quarantined; at seed 0 the records must hash
to the pinned digest; every repetition of a seed must give the same
records, and warm records must equal cold records byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

#: A run ends within this many seconds of its start.
TIME_BUDGET_S = 170.0
#: Seconds kept free for the warm child after the last cold repetition.
WARM_RESERVE_S = 20.0
#: Set-up samples per run (each cold repetition gives one).
SETUP_SAMPLES = 5
#: Warm calls per run, each in a fresh interpreter.
WARM_SAMPLES = 5
MAX_COLD_REPS = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "run_cpu_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
    "store_bytes": "B",
    "ok_frac": "ratio",
}

#: Per-layer metrics that only some workloads exercise, and why the
#: others read 0.
NOT_EXERCISED = {
    "flagship_cold": "service.* (no SweepService on a single run)",
    "design_sweep": "terrain/LoS, substrate assembly, netsim and weather "
    "layers (substrate pre-seeded, only econ evaluated)",
    "eval_sweep": "terrain/LoS, substrate assembly and design layers "
    "(substrate and design pre-seeded)",
}


def layer_unit(name: str) -> str:
    if name.endswith(".bytes") or name.endswith("_bytes"):
        return "B"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio") or ".unattributed_frac." in name:
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    pass


class Bench:
    """One benchmark invocation: a work directory and the children it runs."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.w = wl.WORKLOADS[workload]
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_BUDGET_S
        self.sweep = self.w["axes"] is not None
        self.jobs = (
            min(wl.SWEEP_JOBS, len(os.sched_getaffinity(0))) if self.sweep else 1
        )
        self.counter = 0
        self.template: Path | None = None
        self.child: subprocess.Popen | None = None
        tmp = workdir / "tmp"
        tmp.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        # Keep every file the children write inside the work directory.
        self.env["REPRO_ARTIFACT_DIR"] = str(workdir / "default-store")
        self.env["TMPDIR"] = str(tmp)

    # -- children ---------------------------------------------------------

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, mode: str, store: Path, *extra: str, jobs: int | None = None):
        """Run child.py to completion; (its JSON result, wait4 rusage)."""
        self.counter += 1
        out = self.workdir / f"{mode}-{self.counter}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), mode,
            "--workload", self.workload, "--seed", str(self.seed),
            "--store", str(store), "--out", str(out),
            "--jobs", str(self.jobs if jobs is None else jobs),
            *extra,
        ]
        self.child = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=sys.stderr, start_new_session=True,
        )
        pid = self.child.pid
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > self.deadline:
                self.stop_child()
                raise ChildFailed(f"{mode} child ran past the time budget")
            time.sleep(0.05)
        self.child.returncode = os.waitstatus_to_exitcode(status)
        self.child = None
        stop_group(pid)
        if status != 0:
            raise ChildFailed(f"{mode} child exited with status {status:#x}")
        return json.loads(out.read_text(encoding="utf-8")), usage

    def stop_child(self) -> None:
        """Kill the running child and its workers, and wait for them."""
        if self.child is None:
            return
        pid = self.child.pid
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        self.child = None
        stop_group(pid, kill=True)

    def fresh_store(self) -> Path:
        self.counter += 1
        store = self.workdir / f"store-{self.counter}"
        if self.template is not None:
            shutil.copytree(self.template, store)
        else:
            store.mkdir()
        return store

    # -- steps ------------------------------------------------------------

    def seed_template(self) -> None:
        if not self.w["preseed"]:
            return
        template = self.workdir / "template"
        template.mkdir()
        self.spawn("seed", template)
        self.template = template

    def setup_sample(self) -> dict:
        t0 = time.monotonic()
        store = self.fresh_store()
        out, _usage = self.spawn("setup", store)
        shutil.rmtree(store)
        return out["ready"] - t0

    def cold(self, trace: bool = False, jobs: int | None = None) -> dict:
        t0 = time.monotonic()
        store = self.fresh_store()
        records = self.workdir / f"records-{self.counter}.json"
        extra = ["--records-out", str(records)]
        if trace:
            extra += [
                "--trace-dir", str(self.workdir / "trace"),
                "--trace-out", str(WORK_ROOT / "traces"),
            ]
        out, usage = self.spawn("cold", store, *extra, jobs=jobs)
        out["wall_s"] = time.monotonic() - t0
        out["setup_s"] = out["ready"] - t0
        out["run_cpu_s"] = (
            usage.ru_utime + usage.ru_stime - out["cpu_setup"] - out["cpu_post"]
        )
        out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        out["store"] = store
        out["records"] = records
        return out

    def warm(self, cold: dict) -> dict:
        samples = []
        while len(samples) < WARM_SAMPLES and (not samples or self.time_left() > 10):
            out, _usage = self.spawn(
                "warm", cold["store"], "--records", str(cold["records"])
            )
            samples.append(out)
        return {
            "times": [s["run_s"] for s in samples],
            "attempted": sum(s["attempted"] for s in samples),
            "failed": sum(s["failed"] for s in samples),
        }

    # -- checks -----------------------------------------------------------

    def check_cold(self, reps: list[dict]) -> int:
        """Failed points over the cold repetitions (pinned digest, agreement)."""
        failed = 0
        reference = reps[0]["digest"]
        for rep in reps:
            bad = set(rep["failed_points"])
            wrong = rep["digest"] != reference or (
                self.seed == wl.DEFAULT_SEED and rep["digest"] != self.w["digest"]
            )
            if wrong:
                bad = set(range(rep["points"]))
            failed += len(bad)
        return failed

    # -- runs -------------------------------------------------------------

    def run(self, seconds: float) -> tuple[dict, dict]:
        self.seed_template()
        # Spread the set-up samples over the run so one burst of host
        # load cannot skew them all.
        setups = [self.setup_sample() for _ in range(2)]
        reps: list[dict] = []
        measured = 0.0
        while True:
            rep = self.cold()
            if reps:
                shutil.rmtree(reps[-1]["store"])
            reps.append(rep)
            measured += rep["run_s"]
            if measured >= seconds or len(reps) >= MAX_COLD_REPS:
                break
            if self.time_left() < 1.5 * rep["wall_s"] + WARM_RESERVE_S:
                break
        setups += [rep["setup_s"] for rep in reps]
        warm = self.warm(reps[-1])
        while len(setups) < SETUP_SAMPLES and self.time_left() > 10:
            setups.append(self.setup_sample())

        attempted = sum(rep["points"] for rep in reps) + warm["attempted"]
        failed = self.check_cold(reps) + warm["failed"]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in reps),
            "run_cpu_s": statistics.median(r["run_cpu_s"] for r in reps),
            "warm_s": statistics.median(warm["times"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "store_bytes": statistics.median(r["store_bytes"] for r in reps),
            "ok_frac": 1.0 - failed / attempted,
        }
        info = {
            "cold repetitions": len(reps),
            "set-up samples": len(setups),
            "warm samples": len(warm["times"]),
            "failed_frac": failed / attempted,
            "records sha256": reps[0]["digest"],
            "run_s per repetition": [r["run_s"] for r in reps],
        }
        if self.sweep:
            info["redundant stage computes"] = [r["service"]["redundant_computes"] for r in reps]
        return self.result(attempted, failed, metrics, END_TO_END_UNITS.get), info

    def run_traced(self) -> tuple[dict, dict]:
        self.seed_template()
        base = self.cold()
        traced = self.cold(trace=True)
        reps = [base, traced]
        if self.sweep:
            reps.append(self.cold(jobs=1))
        attempted = sum(rep["points"] for rep in reps)
        failed = self.check_cold(reps)
        layers = dict(traced["layers"])
        service = base.get("service")
        layers["service.redundant_computes"] = service["redundant_computes"] if service else 0
        layers["service.waves"] = service["waves"] if service else 0
        layers["service.journal_bytes"] = service["journal_bytes"] if service else 0
        layers["service.jobs1_run_s"] = reps[2]["run_s"] if self.sweep else 0.0
        layers["trace.overhead_frac"] = traced["run_s"] / base["run_s"] - 1.0
        # The wrappers' own cost, independent of run-to-run noise: spans
        # recorded times the calibrated per-span cost, over traced CPU.
        layers["trace.span_cost_frac"] = (
            traced["spans"] * traced["span_cost_s"] / traced["run_cpu_s"]
        )
        info = {
            "untraced run_s": base["run_s"],
            "traced run_s": traced["run_s"],
            "not exercised (read 0)": NOT_EXERCISED[self.workload],
            "functions not found, not traced (read 0)": traced["missing_wrappers"],
            "trace files": traced["trace_files"],
        }
        print(traced["layer_table"])
        return self.result(attempted, failed, layers, layer_unit), info

    @staticmethod
    def result(attempted: int, failed: int, values: dict, unit) -> dict:
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit(name)}
                for name, value in sorted(values.items())
            },
        }


def stop_group(pgid: int, kill: bool = False) -> None:
    """Kill what is left of a child's process group and wait for it to go."""
    deadline = time.monotonic() + 30
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL if kill else 0)
        except ProcessLookupError:
            return
        except PermissionError:  # pragma: no cover - pid reused elsewhere
            return
        kill = True
        if time.monotonic() > deadline:
            return
        time.sleep(0.05)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cISP flagship end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    bench = Bench(args.workload, args.seed, workdir)
    try:
        if args.trace:
            result, info = bench.run_traced()
        else:
            result, info = bench.run(args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.stop_child()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, jobs {bench.jobs}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
