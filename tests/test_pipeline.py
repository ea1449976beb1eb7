"""The candidate-hop pipeline: spatial index, chunked LoS, solver registry."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    SolveOutcome,
    Solver,
    get_solver,
    solve,
    solve_heuristic,
    solve_exhaustive,
    solve_ilp,
    solve_lp_rounding,
    solver_names,
)
from repro.core.heuristic import greedy_sequence
from repro.core.pipeline import HopPipeline
from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.spatial import GridIndex, brute_force_pairs_within
from repro.geo.terrain import flat_terrain, us_terrain
from repro.scenarios import us_scenario
from repro.towers.hops import build_hop_graph, candidate_pairs
from repro.towers.los import LosChecker, LosConfig
from repro.towers.registry import Tower, TowerRegistry

from conftest import make_toy_design


def random_towers(n: int, seed: int = 0, spread: float = 1.0) -> list[Tower]:
    rng = np.random.default_rng(seed)
    return [
        Tower(
            tower_id=i,
            lat=float(rng.uniform(33.0, 33.0 + 12.0 * spread)),
            lon=float(rng.uniform(-110.0, -110.0 + 30.0 * spread)),
            height_m=float(rng.uniform(60.0, 180.0)),
        )
        for i in range(n)
    ]


def pair_set(a, b) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in zip(a, b)}


class TestGridIndex:
    def test_pairs_match_brute_force_200_towers(self):
        towers = random_towers(200, seed=11)
        lats = np.array([t.lat for t in towers])
        lons = np.array([t.lon for t in towers])
        for max_range in (40.0, 100.0, 250.0):
            index = GridIndex(lats, lons, max_range)
            got = pair_set(*index.pairs_within(max_range))
            want = pair_set(*brute_force_pairs_within(lats, lons, max_range))
            assert got == want, f"range {max_range}: {len(got)} vs {len(want)}"

    def test_pairs_dense_cluster(self):
        # Every pair of a tight cluster is in range: C(25, 2) pairs.
        towers = random_towers(25, seed=3, spread=0.02)
        lats = np.array([t.lat for t in towers])
        lons = np.array([t.lon for t in towers])
        a, b = GridIndex(lats, lons, 500.0).pairs_within(500.0)
        assert len(a) == 25 * 24 // 2
        assert np.all(a < b)

    def test_query_radius_matches_linear_scan(self):
        towers = random_towers(150, seed=5)
        lats = np.array([t.lat for t in towers])
        lons = np.array([t.lon for t in towers])
        index = GridIndex(lats, lons, 120.0)
        center = (39.0, -95.0)
        got = set(index.query_radius(*center, 120.0).tolist())
        dist = haversine_km(center[0], center[1], lats, lons)
        want = set(np.where(dist <= 120.0)[0].tolist())
        assert got == want

    def test_query_radius_beyond_build_radius(self):
        towers = random_towers(100, seed=9)
        lats = np.array([t.lat for t in towers])
        lons = np.array([t.lon for t in towers])
        index = GridIndex(lats, lons, 50.0)
        dist = haversine_km(40.0, -100.0, lats, lons)
        want = set(np.where(dist <= 400.0)[0].tolist())
        assert set(index.query_radius(40.0, -100.0, 400.0).tolist()) == want

    def test_empty_and_validation(self):
        index = GridIndex([], [], 100.0)
        a, b = index.pairs_within(100.0)
        assert len(a) == 0 and len(b) == 0
        with pytest.raises(ValueError):
            GridIndex([1.0], [1.0], 0.0)

    def test_registry_near_uses_index(self):
        towers = random_towers(120, seed=21)
        reg = TowerRegistry(towers)
        center = GeoPoint(38.0, -100.0)
        got = {t.tower_id for t in reg.near(center, 150.0)}
        want = {
            t.tower_id
            for t in towers
            if haversine_km(center.lat, center.lon, t.lat, t.lon) <= 150.0
        }
        assert got == want


class TestPipelineLos:
    def test_pipeline_matches_scalar_checks(self):
        """Batch verdicts through the pipeline == per-pair scalar checks."""
        towers = random_towers(60, seed=2, spread=0.25)
        reg = TowerRegistry(towers)
        checker = LosChecker(us_terrain(), LosConfig())
        pipeline = HopPipeline(checker, chunk_size=17)
        cand_a, cand_b = pipeline.candidate_pairs(reg)
        assert len(cand_a) > 0
        mask = pipeline.feasible_mask(reg, cand_a, cand_b)
        for i, j, got in zip(cand_a, cand_b, mask):
            assert bool(got) == checker.hop_feasible(towers[i], towers[j])

    def test_pipeline_equals_build_hop_graph(self):
        towers = random_towers(80, seed=4, spread=0.4)
        reg = TowerRegistry(towers)
        checker = LosChecker(us_terrain(), LosConfig())
        hg = build_hop_graph(reg, checker)
        graph = HopPipeline(LosChecker(us_terrain(), LosConfig())).enumerate_hops(reg)
        assert pair_set(graph.edges_a, graph.edges_b) == pair_set(hg.edges_a, hg.edges_b)

    def test_enumerate_hops_flat_terrain_full_clique(self):
        # A tight cluster (hops <= ~30 km) on flat terrain: every
        # in-range pair clears bulge + Fresnel + clutter, so the hop
        # graph equals the candidate set.
        towers = random_towers(30, seed=8, spread=0.01)
        reg = TowerRegistry(towers)
        graph = build_hop_graph(reg, LosChecker(flat_terrain(0.0)))
        a, b = candidate_pairs(reg, LosConfig().radio.max_range_km)
        assert graph.n_edges == len(a)

    def test_stats_account_for_pruning(self):
        towers = random_towers(100, seed=12)
        reg = TowerRegistry(towers)
        pipeline = HopPipeline(LosChecker(us_terrain(), LosConfig()))
        pipeline.enumerate_hops(reg)
        s = pipeline.stats
        assert s.all_pairs == 100 * 99 // 2
        assert 0 < s.candidate_pairs <= s.all_pairs
        assert s.feasible_hops <= s.candidate_pairs
        assert 0.0 <= s.pruned_fraction < 1.0


def _hop_graph_digest(graph) -> str:
    h = hashlib.sha256()
    for arr in (graph.edges_a, graph.edges_b, graph.lengths_km):
        h.update(arr.tobytes())
    return h.hexdigest()


class TestDefaultSubstratePin:
    """The default ``us`` substrate's hop graph, pinned byte for byte."""

    @pytest.mark.parametrize(
        "usable_height, n_edges, digest",
        [
            (
                1.0,
                41416,
                "98093faa9fe9c91ae2b691efd9fbd17c76dcdcd534d93f67d0508c0bed224b71",
            ),
            (
                0.85,
                37952,
                "f802d6417314f9ec9e3b8dcfddcf99a1d817a401d198a9104c3b7528c545a11f",
            ),
        ],
    )
    def test_us_20_hop_graph(self, usable_height, n_edges, digest):
        graph = us_scenario(n_sites=20, usable_height_fraction=usable_height).hop_graph
        assert graph.edges_a.dtype == graph.edges_b.dtype == np.int64
        assert graph.lengths_km.dtype == np.float64
        assert graph.n_edges == n_edges
        assert _hop_graph_digest(graph) == digest


class TestSolverRegistry:
    def test_all_five_backends_registered(self):
        assert solver_names() == [
            "evolution",
            "exhaustive",
            "heuristic",
            "ilp",
            "lp_rounding",
        ]
        for name in solver_names():
            assert isinstance(get_solver(name), Solver)

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="registered"):
            get_solver("simulated_annealing")

    def test_heuristic_matches_direct_call(self):
        design = make_toy_design(8, seed=8)
        direct = solve_heuristic(design, 60.0)
        via = solve(design, 60.0, backend="heuristic")
        assert isinstance(via, SolveOutcome)
        assert via.backend == "heuristic"
        assert via.topology.mw_links == direct.topology.mw_links
        assert via.objective == pytest.approx(direct.objective)

    def test_ilp_matches_direct_call(self):
        design = make_toy_design(7, seed=3)
        direct = solve_ilp(design, 50.0)
        via = solve(design, 50.0, backend="ilp")
        assert via.topology.mw_links == direct.topology.mw_links
        assert via.objective == pytest.approx(direct.objective)
        assert via.details.n_variables == direct.n_variables

    def test_lp_rounding_matches_direct_call(self):
        design = make_toy_design(7, seed=5)
        direct = solve_lp_rounding(design, 50.0)
        via = solve(design, 50.0, backend="lp_rounding")
        assert via.topology.mw_links == direct.topology.mw_links
        assert via.objective == pytest.approx(direct.objective)

    def test_exhaustive_matches_direct_call(self):
        design = make_toy_design(5, seed=1)
        direct = solve_exhaustive(design, 40.0)
        via = solve(design, 40.0, backend="exhaustive")
        assert via.topology.mw_links == direct.mw_links
        assert via.objective == pytest.approx(direct.mean_stretch())

    def test_evolution_matches_greedy_prefix(self):
        design = make_toy_design(8, seed=8)
        budget = 70.0
        via = solve(design, budget, backend="evolution")
        steps = greedy_sequence(design, budget)
        links, spent = set(), 0.0
        for step in steps:
            if spent + step.cost_towers <= budget:
                links.add(step.link)
                spent += step.cost_towers
        assert via.topology.mw_links == frozenset(links)
        assert via.details == tuple(steps)

    def test_runtime_recorded(self):
        design = make_toy_design(6, seed=2)
        for name in ("heuristic", "lp_rounding", "evolution"):
            outcome = solve(design, 40.0, backend=name)
            assert outcome.runtime_s >= 0.0
