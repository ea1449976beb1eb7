"""Integration tests: packet simulation over designed topologies."""

import numpy as np
import pytest

from repro.core import route_link_demands, solve_heuristic
from repro.netsim import (
    build_edge_specs,
    run_failure_reroute_experiment,
    run_udp_experiment,
)
from repro.traffic import mixed_matrix, perturbed_population_matrix


@pytest.fixture(scope="module")
def designed_20(small_us_scenario):
    sc = small_us_scenario
    topo = solve_heuristic(sc.design_input(), 800.0, ilp_refinement=False).topology
    return sc, topo


# Make the session fixture visible at module scope.
@pytest.fixture(scope="module")
def small_us_scenario():
    from repro.scenarios import us_scenario

    return us_scenario(n_sites=20)


class TestEdgeSpecs:
    def test_specs_cover_all_mw_links(self, designed_20):
        _, topo = designed_20
        specs = build_edge_specs(topo, 50.0)
        names = {(s.a, s.b) for s in specs}
        for a, b in topo.mw_links:
            assert (str(a), str(b)) in names

    def test_delays_match_distances(self, designed_20):
        _, topo = designed_20
        specs = build_edge_specs(topo, 50.0)
        by_name = {(s.a, s.b): s for s in specs}
        for a, b in topo.mw_links:
            spec = by_name[(str(a), str(b))]
            expected = topo.design.mw_km[a, b] / 299_792.458
            assert spec.delay_s == pytest.approx(expected)

    def test_rate_scale_validation(self, designed_20):
        _, topo = designed_20
        with pytest.raises(ValueError):
            build_edge_specs(topo, 50.0, rate_scale=0.0)


class TestUdpExperiments:
    def test_low_load_near_zero_loss(self, designed_20):
        _, topo = designed_20
        r = run_udp_experiment(topo, 50.0, 0.3, duration_s=0.5)
        assert r.loss_rate < 0.01
        assert r.mean_delay_ms > 0.0

    def test_matched_traffic_high_load_low_loss(self, designed_20):
        """§5: with matching traffic, 95% load runs with near-zero loss."""
        _, topo = designed_20
        r = run_udp_experiment(topo, 50.0, 0.95, duration_s=0.5)
        assert r.loss_rate < 0.02

    def test_delay_monotone_in_load(self, designed_20):
        _, topo = designed_20
        delays = [
            run_udp_experiment(topo, 50.0, f, duration_s=0.5).mean_delay_ms
            for f in (0.2, 0.9)
        ]
        assert delays[1] >= delays[0] - 0.5

    def test_perturbed_traffic_low_load_ok(self, designed_20):
        """Fig 5: perturbations cost little until high load."""
        sc, topo = designed_20
        pert = perturbed_population_matrix(list(sc.sites), gamma=0.5, seed=7)
        base = run_udp_experiment(topo, 50.0, 0.5, duration_s=0.5)
        shaken = run_udp_experiment(
            topo, 50.0, 0.5, offered_traffic=pert, duration_s=0.5
        )
        assert shaken.loss_rate < 0.02
        assert abs(shaken.mean_delay_ms - base.mean_delay_ms) < 5.0

    def test_mixed_traffic_runs(self, designed_20):
        sc, topo = designed_20
        h = topo.design.traffic
        rng_m = np.zeros_like(h)
        rng_m[0, 1] = rng_m[1, 0] = 1.0
        mix = mixed_matrix([(h, 4.0), (rng_m, 1.0)])
        r = run_udp_experiment(topo, 50.0, 0.4, offered_traffic=mix, duration_s=0.3)
        assert r.loss_rate < 0.05

    def test_bad_fraction_raises(self, designed_20):
        _, topo = designed_20
        with pytest.raises(ValueError):
            run_udp_experiment(topo, 50.0, 0.0)


class TestDeterminism:
    def test_same_seed_identical_results(self, designed_20):
        """Two runs with one seed reproduce delivery/loss exactly."""
        _, topo = designed_20
        first = run_udp_experiment(topo, 50.0, 0.6, duration_s=0.5, seed=3)
        second = run_udp_experiment(topo, 50.0, 0.6, duration_s=0.5, seed=3)
        assert first.mean_delay_ms == second.mean_delay_ms
        assert first.loss_rate == second.loss_rate
        assert first.max_link_utilization == second.max_link_utilization
        assert first.input_rate_fraction == second.input_rate_fraction

    def test_seed_changes_arrivals(self, designed_20):
        """Different seeds draw different Poisson arrival processes."""
        _, topo = designed_20
        a = run_udp_experiment(topo, 50.0, 0.6, duration_s=0.5, seed=3)
        b = run_udp_experiment(topo, 50.0, 0.6, duration_s=0.5, seed=4)
        # Same load, same topology — only the arrival randomness moves.
        assert (a.mean_delay_ms, a.loss_rate) != (b.mean_delay_ms, b.loss_rate)


class TestPinnedPacketFrontEnd:
    """The packet engine's flow set, ids and seeds, pinned exactly.

    Both experiments build their UDP flows from the kept-flow rows of
    the route pool; any change to which flows start, their order, their
    rates or their arrival seeds moves these values.
    """

    def test_udp_experiment_pinned(self, designed_20):
        _, topo = designed_20
        r = run_udp_experiment(topo, 50.0, 0.5, duration_s=0.5, engine="packet")
        assert (r.mean_delay_ms, r.loss_rate, r.max_link_utilization) == (
            30.006763689501884,
            0.0,
            0.48,
        )

    def test_failure_reroute_pinned(self, designed_20):
        _, topo = designed_20
        demands = route_link_demands(topo, 50.0)
        busiest = max(demands, key=demands.get)
        assert busiest == (1, 6)
        r = run_failure_reroute_experiment(topo, 50.0, busiest, seed=3)
        assert (
            r.loss_before,
            r.loss_during_outage,
            r.loss_after_reroute,
            r.flows_rerouted,
        ) == (0.0, 0.22837552742616032, 0.07085987261146497, 14)
