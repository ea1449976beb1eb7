"""The European scenario (paper §6.2): cities above 300k population.

The paper lacks European conduit data and assumes fiber latencies
inflated over geodesics as in the US (~1.9x); we adopt the same flat
inflation.  Tower data comes from the same synthetic generator (the
paper uses crowd-sourced OpenCelliD towers).
"""

from __future__ import annotations

from functools import lru_cache

from ..datasets.eu_cities import eu_population_centers
from ..geo.fresnel import RadioProfile
from ..geo.terrain import europe_terrain
from ..towers.los import LosConfig
from .base import Scenario, build_scenario

#: The paper's US-measured fiber latency inflation, reused for Europe.
EU_FIBER_STRETCH = 1.93


@lru_cache(maxsize=4)
def europe_scenario(
    max_range_km: float = 100.0,
    usable_height_fraction: float = 1.0,
    seed: int = 43,
) -> Scenario:
    """Build (and cache) the European scenario."""
    sites = eu_population_centers()
    terrain = europe_terrain()
    los = LosConfig(
        radio=RadioProfile(max_range_km=max_range_km),
        usable_height_fraction=usable_height_fraction,
    )
    from ..towers.synthesis import SynthesisConfig

    return build_scenario(
        name="europe",
        sites=sites,
        terrain=terrain,
        los_config=los,
        synthesis_config=SynthesisConfig(seed=seed),
        flat_fiber_stretch=EU_FIBER_STRETCH,
    )
