"""Fluid-engine suite: allocation-bug regressions, properties of the
vectorized commodity-aggregate solver and its parity with the scalar
oracle, the Mathis TCP macro-model, and the million-user demand layer."""

import numpy as np
import pytest
from fluid_oracle import max_min_rates

from repro.datasets.sites import Site
from repro.exp.spec import (
    DEMAND_MODELS,
    ENGINES,
    TRANSPORTS,
    ExperimentSpec,
    NetsimSpec,
)
from repro.exp.stages import STAGES, _netsim_payload
from repro.netsim import (
    EdgeSpec,
    FlowTable,
    FluidFlow,
    aggregate_capacities,
    mathis_rate_bps,
    max_min_rates_table,
    solve_fluid,
    solve_fluid_tcp,
)
from repro.netsim.fluid import _assert_capacity_invariant
from repro.netsim.tcpmodel import DEFAULT_LOSS_FLOOR
from repro.traffic import (
    PEAK_LOCAL_HOUR,
    active_users,
    diurnal_factor,
    heavy_tail_multipliers,
    user_demand_gbps,
    user_demand_matrix,
)


def random_workload(rng, n_nodes=12, n_links=40, n_flows=60):
    """A random strongly-usable directed workload for property tests."""
    nodes = [f"n{i}" for i in range(n_nodes)]
    capacities = {}
    # A ring guarantees every node pair is connected.
    for i in range(n_nodes):
        u, v = nodes[i], nodes[(i + 1) % n_nodes]
        capacities[(u, v)] = float(rng.uniform(1.0, 20.0))
        capacities[(v, u)] = float(rng.uniform(1.0, 20.0))
    while len(capacities) < n_links:
        u, v = rng.choice(nodes, size=2, replace=False)
        capacities.setdefault((str(u), str(v)), float(rng.uniform(1.0, 20.0)))

    adjacency = {}
    for u, v in capacities:
        adjacency.setdefault(u, []).append(v)
    flows = []
    for fid in range(n_flows):
        # Random edge-simple walk of 1-4 hops.
        path = [str(rng.choice(nodes))]
        used = set()
        for _ in range(int(rng.integers(1, 5))):
            choices = [
                w for w in adjacency.get(path[-1], [])
                if (path[-1], w) not in used
            ]
            if not choices:
                break
            nxt = str(rng.choice(choices))
            used.add((path[-1], nxt))
            path.append(nxt)
        if len(path) < 2:
            continue
        flows.append(FluidFlow(fid, tuple(path), float(rng.uniform(0.1, 15.0))))
    return capacities, flows


def vectorized_rates(capacities, flows):
    """The engine's allocation as a per-flow dict (for the oracle's shape)."""
    table = FlowTable.from_flows(flows)
    rates = max_min_rates_table(capacities, table)
    return dict(zip(table.flow_ids.tolist(), rates.tolist()))


#: The two allocations every property must hold for; the ids keep the
#: historical test names.
SOLVERS = [
    pytest.param(max_min_rates, id="max_min_rates"),
    pytest.param(vectorized_rates, id="max_min_rates_vectorized"),
]


def link_loads(capacities, flows, rates):
    loads = {link: 0.0 for link in capacities}
    for flow in flows:
        for edge in zip(flow.path[:-1], flow.path[1:]):
            loads[edge] += rates[flow.flow_id]
    return loads


class TestMaxMinProperties:
    """Property tests over random workloads: the engine and the oracle."""

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("seed", range(8))
    def test_capacity_never_exceeded(self, solver, seed):
        rng = np.random.default_rng(seed)
        capacities, flows = random_workload(rng)
        rates = solver(capacities, flows)
        loads = link_loads(capacities, flows, rates)
        for link, load in loads.items():
            assert load <= capacities[link] * (1 + 1e-9) + 1e-9

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("seed", range(8))
    def test_max_min_certificate(self, solver, seed):
        """Every flow below its demand has a saturated bottleneck link on
        which no other flow gets more — so no flow can be raised without
        lowering an equal-or-smaller one (Bertsekas & Gallager §6.5.2)."""
        rng = np.random.default_rng(100 + seed)
        capacities, flows = random_workload(rng)
        rates = solver(capacities, flows)
        loads = link_loads(capacities, flows, rates)
        on_link = {}
        for flow in flows:
            for edge in zip(flow.path[:-1], flow.path[1:]):
                on_link.setdefault(edge, []).append(flow.flow_id)
        eps = 1e-6
        for flow in flows:
            rate = rates[flow.flow_id]
            assert rate <= flow.offered_bps + eps
            if rate >= flow.offered_bps - eps:
                continue  # demand-limited, not constrained by the network
            bottleneck = False
            for edge in zip(flow.path[:-1], flow.path[1:]):
                saturated = loads[edge] >= capacities[edge] * (1 - 1e-6) - eps
                largest = all(
                    rate >= rates[other] - eps for other in on_link[edge]
                )
                if saturated and largest:
                    bottleneck = True
                    break
            assert bottleneck, f"flow {flow.flow_id} has no max-min bottleneck"

    @pytest.mark.parametrize("seed", range(8))
    def test_scalar_vectorized_parity(self, seed):
        rng = np.random.default_rng(200 + seed)
        capacities, flows = random_workload(rng)
        scalar = max_min_rates(capacities, flows)
        vector = vectorized_rates(capacities, flows)
        assert set(scalar) == set(vector)
        for fid, rate in scalar.items():
            assert vector[fid] == pytest.approx(rate, rel=1e-6, abs=1e-9)

    def test_commodity_collapse_keeps_per_flow_demands(self):
        """Flows sharing one path but with different demands must freeze
        individually, exactly as the scalar per-flow oracle does."""
        capacities = {("A", "B"): 10.0}
        flows = [
            FluidFlow(1, ("A", "B"), 1.0),
            FluidFlow(2, ("A", "B"), 3.0),
            FluidFlow(3, ("A", "B"), 100.0),
        ]
        scalar = max_min_rates(capacities, flows)
        vector = vectorized_rates(capacities, flows)
        assert scalar == pytest.approx({1: 1.0, 2: 3.0, 3: 6.0})
        for fid in scalar:
            assert vector[fid] == pytest.approx(scalar[fid], rel=1e-9)

    def test_empty_workload(self):
        assert vectorized_rates({("A", "B"): 1.0}, []) == {}
        empty = solve_fluid([EdgeSpec("A", "B", 1.0, 0.001)], [])
        assert empty.n_flows == 0
        assert empty.loss_rate == 0.0

    def test_vectorized_unknown_link_raises(self):
        with pytest.raises(KeyError, match="flow 1 uses unknown link A->X"):
            vectorized_rates(
                {("A", "B"): 1.0}, [FluidFlow(1, ("A", "X"), 1.0)]
            )


class TestAllocationBugRegressions:
    def test_duplicate_edge_specs_aggregate(self):
        """Two specs on one directed link add bandwidth (packet-path
        parallel-link semantics) instead of the last one winning."""
        specs = [
            EdgeSpec("A", "B", 1e6, 0.002),
            EdgeSpec("A", "B", 3e6, 0.001),
        ]
        capacities, delays = aggregate_capacities(specs)
        assert capacities[("A", "B")] == pytest.approx(4e6)
        assert capacities[("B", "A")] == pytest.approx(4e6)
        assert delays[("A", "B")] == pytest.approx(0.001)
        result = solve_fluid(specs, [FluidFlow(1, ("A", "B"), 10e6)])
        # The regression: with overwrite semantics this is 3e6.
        assert result.rates_by_flow()[1] == pytest.approx(4e6)

    def test_repeated_edge_path_rejected(self):
        with pytest.raises(ValueError, match="edge-simple"):
            FluidFlow(1, ("A", "B", "A", "B"), 1.0)

    def test_node_revisit_without_edge_repeat_allowed(self):
        # A -> B -> A is two *different* directed links; only repeating
        # the same directed link is ill-defined.
        flow = FluidFlow(1, ("A", "B", "A"), 1.0)
        capacities = {("A", "B"): 4.0, ("B", "A"): 2.0}
        for solver in (max_min_rates, vectorized_rates):
            assert solver(capacities, [flow])[1] == pytest.approx(1.0)

    def test_epsilon_asymmetric_bottleneck_regression(self):
        """A demand step epsilon-above the link share must not over-fill
        the link (the historical one-pass detection drove the residual
        negative and leaned on the freeze-everything valve)."""
        capacities = {("A", "B"): 10.0}
        demand = 5.0 + 0.5e-9  # within _EPS_BPS of the 5.0 fair share
        flows = [
            FluidFlow(1, ("A", "B"), demand),
            FluidFlow(2, ("A", "B"), demand),
        ]
        for solver in (max_min_rates, vectorized_rates):
            rates = solver(capacities, flows)
            total = rates[1] + rates[2]
            assert total <= 10.0 * (1 + 1e-9) + 1e-9
            assert rates[1] == pytest.approx(5.0, abs=1e-8)
            assert rates[2] == pytest.approx(5.0, abs=1e-8)

    def test_utilization_is_true_ratio_not_clamped(self):
        specs = [EdgeSpec("A", "B", 1e6, 0.001)]
        under = solve_fluid(specs, [FluidFlow(1, ("A", "B"), 4e5)])
        assert under.max_link_utilization == pytest.approx(0.4)
        over = solve_fluid(specs, [FluidFlow(1, ("A", "B"), 9e6)])
        assert over.max_link_utilization == pytest.approx(1.0)
        assert over.loss_rate == pytest.approx(1 - 1e6 / 9e6)

    def test_capacity_invariant_assertion_fires(self):
        with pytest.raises(AssertionError, match="over-allocated"):
            _assert_capacity_invariant(
                np.array([2.0]), np.array([1.0])
            )


class TestTcpMacroModel:
    def test_mathis_monotone_in_loss_and_rtt(self):
        base = mathis_rate_bps(0.05, 1e-3)
        assert mathis_rate_bps(0.05, 4e-3) == pytest.approx(base / 2)
        assert mathis_rate_bps(0.10, 1e-3) == pytest.approx(base / 2)

    def test_mathis_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mathis_rate_bps(0.0, 1e-3)
        with pytest.raises(ValueError):
            mathis_rate_bps(0.05, 0.0)

    def test_underloaded_unbounded_flow_runs_at_ambient_mathis_rate(self):
        # Huge capacity, huge app demand: the only cap is the Mathis
        # rate at the ambient loss floor.
        specs = [EdgeSpec("A", "B", 1e12, 0.01)]
        result = solve_fluid_tcp(specs, [FluidFlow(1, ("A", "B"), 1e11)])
        rtt = 2 * float(result.latencies_s[0])
        expected = mathis_rate_bps(rtt, DEFAULT_LOSS_FLOOR)
        assert result.rates_by_flow()[1] == pytest.approx(expected, rel=1e-6)

    def test_application_limited_flow_keeps_its_demand(self):
        specs = [EdgeSpec("A", "B", 1e9, 0.01)]
        result = solve_fluid_tcp(specs, [FluidFlow(1, ("A", "B"), 2e6)])
        assert result.rates_by_flow()[1] == pytest.approx(2e6, rel=1e-9)

    def test_congested_flows_fill_bottleneck_and_converge(self):
        specs = [EdgeSpec("A", "B", 10e6, 0.02)]
        flows = [FluidFlow(i, ("A", "B"), 1e9) for i in range(4)]
        result = solve_fluid_tcp(specs, flows)
        assert result.max_link_utilization == pytest.approx(1.0, abs=1e-6)
        # Fair split of the bottleneck across identical flows.
        rates = result.rates_by_flow()
        for fid in range(4):
            assert rates[fid] == pytest.approx(2.5e6, rel=1e-3)
        # The converged offers sit near the carried rates (loss has
        # relaxed to its fixed point), far below the application demand.
        assert result.loss_rate < 0.5


SITES = [
    Site("east", 40.0, -75.0, 8_000_000),
    Site("central", 41.0, -90.0, 2_500_000),
    Site("west", 37.0, -122.0, 4_000_000),
]


class TestUserDemandLayer:
    def test_diurnal_peak_and_trough(self):
        # Local 20:00 at longitude 0 is 20:00 UTC.
        assert diurnal_factor(0.0, PEAK_LOCAL_HOUR) == pytest.approx(1.0)
        assert diurnal_factor(0.0, PEAK_LOCAL_HOUR - 12.0) == pytest.approx(0.25)
        assert diurnal_factor(0.0, 3.0, trough_fraction=0.4) >= 0.4

    def test_diurnal_follows_longitude(self):
        # 20:00 UTC is evening on the US east coast, afternoon on the
        # west coast: east must be more active.
        east = diurnal_factor(-75.0, 1.0)  # ~20:00 local
        west = diurnal_factor(-122.0, 1.0)  # ~16:52 local
        assert east > west

    def test_heavy_tail_multipliers_mean_one_and_deterministic(self):
        a = heavy_tail_multipliers(500, seed=3)
        b = heavy_tail_multipliers(500, seed=3)
        c = heavy_tail_multipliers(500, seed=4)
        assert a == pytest.approx(b)
        assert not np.allclose(a, c)
        assert a.mean() == pytest.approx(1.0)
        assert a.min() > 0

    def test_users_millions_rescales_total(self):
        users = active_users(SITES, users_millions=3.5)
        assert users.sum() == pytest.approx(3.5e6)

    def test_zero_population_rejected(self):
        dead = [Site("a", 0.0, 0.0, 0), Site("b", 1.0, 1.0, 0)]
        with pytest.raises(ValueError):
            active_users(dead)

    def test_demand_matrix_normalized_symmetric(self):
        matrix, aggregate = user_demand_matrix(SITES, users_millions=2.0)
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        assert np.triu(matrix, k=1).sum() == pytest.approx(1.0)
        # 2M users x 600 kbps mean x mean-1 tail = 1.2 Tbps aggregate.
        per_site = user_demand_gbps(SITES, users_millions=2.0)
        assert aggregate == pytest.approx(per_site.sum())
        assert aggregate == pytest.approx(1200.0, rel=0.5)


class TestSpecAndStage:
    def test_netsim_spec_new_fields_round_trip(self):
        spec = ExperimentSpec(
            netsim=NetsimSpec(
                loads=(0.5,),
                engine="fluid",
                transport="tcp",
                demand_model="users",
                demand_hour_utc=3.5,
                demand_seed=9,
                users_millions=12.0,
            )
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_tcp_requires_fluid_engine(self):
        with pytest.raises(ValueError, match="fluid"):
            NetsimSpec(engine="packet", transport="tcp")

    def test_unknown_demand_model_rejected(self):
        with pytest.raises(ValueError, match="demand model"):
            NetsimSpec(demand_model="gravity")
        with pytest.raises(ValueError):
            NetsimSpec(demand_hour_utc=24.0)
        with pytest.raises(ValueError):
            NetsimSpec(users_millions=-1.0)

    def test_constant_tuples(self):
        assert "fluid" in ENGINES
        assert DEMAND_MODELS == ("design", "users")
        assert TRANSPORTS == ("udp", "tcp")

    def test_netsim_stage_payload_and_version(self):
        spec = ExperimentSpec(
            netsim=NetsimSpec(engine="fluid", demand_model="users",
                              users_millions=2.0, transport="tcp")
        )
        payload = _netsim_payload(spec)
        assert payload["demand_model"] == "users"
        assert payload["transport"] == "tcp"
        assert payload["users_millions"] == 2.0
        assert payload["demand_hour_utc"] == 20.0
        assert payload["demand_seed"] == 0
        assert payload["profile"] is False
        # The spec's workload key selects nothing, so it stays out of
        # the cache key.
        assert "workload" not in payload
        assert _netsim_payload(
            ExperimentSpec(netsim=NetsimSpec(engine="fluid", workload="table"))
        ) == _netsim_payload(ExperimentSpec(netsim=NetsimSpec(engine="fluid")))
        # Cache keys must move with the payload change.
        assert STAGES["netsim"].version == "5"
