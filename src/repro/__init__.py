"""repro: a full reproduction of "cISP: A Speed-of-Light Internet
Service Provider" (NSDI 2022).

The library designs hybrid microwave + fiber wide-area networks whose
mean latency approaches the speed-of-light lower bound, and reproduces
every experiment in the paper's evaluation on synthetic substrates
(terrain, towers, fiber conduits, precipitation, web pages) documented
in DESIGN.md.

Quickstart::

    from repro import us_scenario, design_network

    scenario = us_scenario(n_sites=30)
    result = design_network(
        scenario.design_input(),
        budget_towers=1000,
        aggregate_gbps=100,
        catalog=scenario.catalog,
        registry=scenario.registry,
    )
    print(result.mean_stretch, result.cost_per_gb_usd)
"""

from .core import (
    CostModel,
    DesignInput,
    DesignResult,
    HopPipeline,
    SolveOutcome,
    Solver,
    Topology,
    design_network,
    fiber_only_topology,
    get_solver,
    greedy_sequence,
    register_solver,
    solve,
    solve_heuristic,
    solve_ilp,
    solve_lp_rounding,
    solver_names,
)
from .datasets import (
    Site,
    eu_population_centers,
    google_us_datacenters,
    us_population_centers,
)
from .geo import GeoPoint, c_latency_ms, haversine_km
from .scenarios import (
    Scenario,
    build_scenario,
    city_dc_scenario,
    europe_scenario,
    interdc_scenario,
    us_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "DesignInput",
    "DesignResult",
    "Topology",
    "design_network",
    "fiber_only_topology",
    "greedy_sequence",
    "HopPipeline",
    "SolveOutcome",
    "Solver",
    "get_solver",
    "register_solver",
    "solve",
    "solve_heuristic",
    "solve_ilp",
    "solve_lp_rounding",
    "solver_names",
    "Site",
    "eu_population_centers",
    "google_us_datacenters",
    "us_population_centers",
    "GeoPoint",
    "c_latency_ms",
    "haversine_km",
    "Scenario",
    "build_scenario",
    "city_dc_scenario",
    "europe_scenario",
    "interdc_scenario",
    "us_scenario",
    "__version__",
]
