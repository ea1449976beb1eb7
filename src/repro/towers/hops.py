"""Feasible-hop graph construction (paper §4, Step 1 input).

Enumerates all tower pairs within radio range using a spatial grid,
checks line-of-sight feasibility in vectorized batches, and returns the
hop graph as edge arrays.  On the paper's US instantiation this step
found 261,019 feasible hops over 12,080 towers; our synthetic fields are
smaller but structurally equivalent.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .los import LosChecker
from .registry import TowerRegistry


@dataclass(frozen=True)
class HopGraph:
    """The feasible tower-to-tower hop graph.

    Attributes:
        n_towers: number of towers (node ids are 0..n_towers-1, matching
            registry order).
        edges_a / edges_b: aligned arrays of endpoint tower ids (a < b).
        lengths_km: great-circle length of each hop.
    """

    n_towers: int
    edges_a: np.ndarray
    edges_b: np.ndarray
    lengths_km: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges_a)

    def degree_histogram(self) -> dict[int, int]:
        """Map of node degree -> count, for diagnostics."""
        deg = np.zeros(self.n_towers, dtype=int)
        for a, b in zip(self.edges_a, self.edges_b):
            deg[a] += 1
            deg[b] += 1
        hist: dict[int, int] = defaultdict(int)
        for d in deg:
            hist[int(d)] += 1
        return dict(hist)


def candidate_pairs(
    registry: TowerRegistry, max_range_km: float
) -> tuple[np.ndarray, np.ndarray]:
    """All tower pairs within ``max_range_km``, via the grid spatial index.

    Returns aligned (a, b) index arrays with a < b.  Thin wrapper over
    :class:`~repro.geo.spatial.GridIndex` for callers that hold a
    registry rather than raw coordinate arrays.
    """
    from ..geo.spatial import GridIndex

    lats, lons = registry.coordinates()
    if len(registry) == 0 or max_range_km <= 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    return GridIndex(lats, lons, max_range_km).pairs_within(max_range_km)


def build_hop_graph(
    registry: TowerRegistry,
    checker: LosChecker,
    batch_size: int = 4096,
) -> HopGraph:
    """Check every in-range tower pair for LOS and assemble the hop graph.

    The one hop-enumeration front door.  Delegates to the candidate-hop
    pipeline (:mod:`repro.core.pipeline`): spatial pruning first, then
    chunked vectorized LoS.  Construct a
    :class:`~repro.core.pipeline.HopPipeline` directly to read its work
    accounting (``stats``) after the run.
    """
    from ..core.pipeline import HopPipeline

    return HopPipeline(checker, chunk_size=batch_size).enumerate_hops(registry)
