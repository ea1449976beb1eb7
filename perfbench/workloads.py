"""The benchmark's three workloads: specs, sweep axes and pinned outputs.

Plain data only -- this module imports nothing from ``repro`` so the
benchmark entry point can read it without paying for the package import.

Every workload starts from the flagship spec: the 120-city ``us``
substrate, a 3,000-tower greedy design provisioned for 100 Gb/s, a
ten-million-user TCP load curve on array-native flow tables, a
120-interval weather year and the econ table.  The benchmark seed
``n`` offsets each seed the spec carries (tower synthesis, per-city
demand multipliers, weather day sampling), so ``--seed 0`` is the
flagship itself and every other seed is a different, equally sized
input.
"""

from __future__ import annotations

import copy

#: The seed whose records digests are pinned below.
DEFAULT_SEED = 0

#: Sweep worker processes (capped at the CPUs this process may use).
SWEEP_JOBS = 2

STAGE_NAMES = ("substrate", "design", "netsim", "weather", "econ")

FLAGSHIP = {
    "scenario": {"name": "us", "sites": 120, "seed": 42},
    "design": {
        "budget_towers": 3000.0,
        "solver": "heuristic",
        "aggregate_gbps": 100.0,
        "solver_opts": {"ilp_refinement": False},
    },
    "netsim": {
        "loads": [0.5, 0.8, 1.0, 1.2, 1.5],
        "engine": "fluid",
        "transport": "tcp",
        "demand_model": "users",
        "users_millions": 10.0,
        "workload": "table",
    },
    "weather": {"n_intervals": 120, "seed": 7},
    "econ": {},
}

WORKLOADS = {
    "flagship_cold": {
        "why": "one cold run_experiment of the flagship: the only workload "
        "where the LoS/terrain substrate runs",
        "sections": ("netsim", "weather", "econ"),
        "axes": None,
        "preseed": (),
        # stage -> status every point of a cold call must report.
        "cold_status": {name: "computed" for name in STAGE_NAMES},
        "digest": "d8ea52971cbfeefe1cbbb02bb478ac763c018e0b8f0e9b5739830dd454a119c2",
    },
    "design_sweep": {
        "why": "design.budget_towers swept over a pre-seeded substrate: "
        "greedy and graph kernel do the work, LoS none",
        "sections": ("econ",),
        "axes": {"design.budget_towers": [1500.0, 2250.0, 3000.0, 3750.0]},
        "preseed": ("substrate",),
        "cold_status": {"substrate": "cached", "design": "computed"},
        "digest": "f03f493a59e54808add1afef5ce02761e182ecb47a91e0a4eecdaa81f4b3944d",
    },
    "eval_sweep": {
        "why": "demand hour x fade margin over a pre-seeded design: TCP "
        "fixed point, fills and weather; points share eval stages",
        "sections": ("netsim", "weather", "econ"),
        "axes": {
            "netsim.demand_hour_utc": [2.0, 8.0, 14.0, 20.0],
            "weather.fade_margin_db": [25.0, 35.0],
        },
        "preseed": ("substrate", "design"),
        "cold_status": {"substrate": "cached", "design": "cached"},
        "digest": "065540d9155f249b81a95b16ddec03ecf8387535e960400ae1947f923b739494",
    },
}


def spec_dict(workload: str, seed: int) -> dict:
    """The workload's base spec (canonical dict form) at a benchmark seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative (got {seed})")
    w = WORKLOADS[workload]
    spec = {
        section: copy.deepcopy(body)
        for section, body in FLAGSHIP.items()
        if section in ("scenario", "design") or section in w["sections"]
    }
    spec["scenario"]["seed"] += seed
    if "netsim" in spec:
        spec["netsim"]["demand_seed"] = seed
    if "weather" in spec:
        spec["weather"]["seed"] += seed
    return spec
