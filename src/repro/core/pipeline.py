"""The candidate-hop pipeline: spatial pruning -> chunked LoS.

Feasible-hop enumeration is the scale bottleneck of the whole system:
the paper's US instantiation checks hundreds of thousands of candidate
tower pairs against terrain profiles.  This module stages that work so
terrain is only sampled where it must be:

1. **Spatial pruning** — a :class:`~repro.geo.spatial.GridIndex` over
   the tower field discards every pair beyond
   ``RadioProfile.max_range_km`` before any terrain is sampled; only
   same-cell and neighbor-cell pairs are even distance-checked.
2. **Chunked LoS** — survivors flow through the vectorized batch
   checker in bounded chunks (memory stays flat no matter how many
   candidates), grouped by per-pair sample count so every hop gets its
   deterministic fidelity.

Repeated substrates are served by the artifact store
(:mod:`repro.exp`), not by an in-process terrain cache.
:func:`repro.towers.hops.build_hop_graph` is the front door;
:class:`HopPipeline` exposes the stages and their work accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo.coords import haversine_km
from ..geo.spatial import GridIndex
from ..towers.los import LosChecker
from ..towers.registry import TowerRegistry

#: Default LoS chunk size (pairs per vectorized batch).
DEFAULT_CHUNK_SIZE = 4096


@dataclass
class PipelineStats:
    """Work accounting for one (or more) enumeration runs.

    Attributes:
        n_towers: towers in the last enumerated registry.
        all_pairs: the O(n^2) pair count the index avoided scanning.
        candidate_pairs: pairs surviving spatial pruning.
        feasible_hops: pairs surviving the LoS check.
    """

    n_towers: int = 0
    all_pairs: int = 0
    candidate_pairs: int = 0
    feasible_hops: int = 0

    @property
    def pruned_fraction(self) -> float:
        """Fraction of all pairs discarded before any terrain work."""
        if self.all_pairs == 0:
            return 0.0
        return 1.0 - self.candidate_pairs / self.all_pairs


class HopPipeline:
    """Spatial-pruning + chunked-LoS hop enumerator.

    Args:
        checker: the LoS checker to drive.
        chunk_size: candidate pairs per vectorized LoS batch.
    """

    def __init__(self, checker: LosChecker, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        self.checker = checker
        self.chunk_size = chunk_size
        self.stats = PipelineStats()

    def candidate_pairs(self, registry: TowerRegistry) -> tuple[np.ndarray, np.ndarray]:
        """Spatially pruned tower pairs within radio range, (a, b) with a < b.

        Reuses the registry's own :class:`GridIndex` (queries at radii
        other than the build radius remain exact), falling back to a
        fresh index only when the registry has none.
        """
        max_range = self.checker.config.radio.max_range_km
        if len(registry) == 0:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        index = registry.spatial_index
        if index is None:
            lats, lons = registry.coordinates()
            index = GridIndex(lats, lons, max_range)
        return index.pairs_within(max_range)

    def feasible_mask(
        self,
        registry: TowerRegistry,
        cand_a: np.ndarray,
        cand_b: np.ndarray,
    ) -> np.ndarray:
        """LoS verdicts for candidate pair arrays, checked in chunks.

        Verdicts equal :meth:`LosChecker.hop_feasible` on each pair:
        pairs are grouped by their deterministic per-pair sample count,
        so batch composition never changes an answer.
        """
        if len(cand_a) != len(cand_b):
            raise ValueError("candidate arrays must be aligned")
        if len(cand_a) == 0:
            return np.zeros(0, dtype=bool)
        lats, lons = registry.coordinates()
        heights = np.array([t.height_m for t in registry])
        # One ground sample per tower, not one per pair endpoint.
        alts = self.checker.antenna_altitudes_m(lats, lons, heights)
        return self.checker.feasible_arrays(
            lats[cand_a], lons[cand_a], alts[cand_a],
            lats[cand_b], lons[cand_b], alts[cand_b],
            chunk_size=self.chunk_size,
        )

    def enumerate_hops(self, registry: TowerRegistry):
        """The feasible hop graph for a registry.

        Returns a :class:`~repro.towers.hops.HopGraph`; equivalent to
        checking every O(n^2) pair but only terrain-samples pairs the
        spatial index cannot rule out.
        """
        from ..towers.hops import HopGraph

        cand_a, cand_b = self.candidate_pairs(registry)
        ok = self.feasible_mask(registry, cand_a, cand_b)
        edges_a, edges_b = cand_a[ok], cand_b[ok]
        # Sort edges for a canonical, order-independent graph.
        if len(edges_a):
            order = np.lexsort((edges_b, edges_a))
            edges_a, edges_b = edges_a[order], edges_b[order]
        lats, lons = registry.coordinates()
        lengths = (
            haversine_km(lats[edges_a], lons[edges_a], lats[edges_b], lons[edges_b])
            if len(edges_a)
            else np.zeros(0)
        )
        n = len(registry)
        self.stats.n_towers = n
        self.stats.all_pairs = n * (n - 1) // 2
        self.stats.candidate_pairs = len(cand_a)
        self.stats.feasible_hops = len(edges_a)
        return HopGraph(
            n_towers=n,
            edges_a=edges_a,
            edges_b=edges_b,
            lengths_km=np.atleast_1d(lengths),
        )

