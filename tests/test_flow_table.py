"""Array-native flow tables: struct-of-arrays validation, the
``FluidFlow``-list adapter's bit-identity with direct tables, parity with
the scalar oracle (UDP and TCP), and the load-curve front-end pinned to
its recorded values."""

import dataclasses
import math

import numpy as np
import pytest
from fluid_oracle import flows_from_table, mathis_fixed_point, max_min_rates

from repro.exp.spec import WORKLOADS, NetsimSpec
from repro.netsim import (
    CommodityTable,
    EdgeSpec,
    FlowTable,
    FluidFlow,
    PathPool,
    aggregate_capacities,
    max_min_rates_table,
    run_load_curve,
    run_udp_experiment,
    solve_fluid,
    solve_fluid_tcp,
)
from repro.netsim.experiments import kept_flow_table
from repro.netsim.fluid import _CommodityProblem
from repro.traffic import demand_pairs, user_demand_matrix, user_demand_pairs


def ring_capacities(n_nodes, rng):
    nodes = [f"n{i}" for i in range(n_nodes)]
    capacities = {}
    for i in range(n_nodes):
        u, v = nodes[i], nodes[(i + 1) % n_nodes]
        capacities[(u, v)] = float(rng.uniform(1.0, 20.0))
        capacities[(v, u)] = float(rng.uniform(1.0, 20.0))
    return nodes, capacities


def random_table_workload(seed, n_nodes=10, n_paths=18, n_flows=70):
    """A random ring workload as (capacities, FlowTable, FluidFlow list).

    The list is derived from the table via ``flows_from_table``, so the
    two forms describe the same workload by construction and every
    comparison isolates the front-end or the solver, not the generator.
    """
    rng = np.random.default_rng(seed)
    nodes, capacities = ring_capacities(n_nodes, rng)
    paths = []
    for _ in range(n_paths):
        start = int(rng.integers(0, n_nodes))
        hops = int(rng.integers(1, min(4, n_nodes - 1) + 1))
        paths.append(tuple(nodes[(start + j) % n_nodes] for j in range(hops + 1)))
    pool = PathPool.from_paths(paths, node_names=tuple(nodes))
    table = FlowTable(
        pool=pool,
        path_id=rng.integers(0, n_paths, size=n_flows),
        demand_bps=rng.uniform(0.05, 12.0, size=n_flows),
        flow_ids=np.arange(n_flows),
    )
    return capacities, table, flows_from_table(table)


def specs_from_capacities(capacities, delay_s=1e-3):
    # One spec per undirected pair; aggregate_capacities re-derives the
    # directed map.  Use symmetric capacities to keep them equivalent.
    specs = []
    seen = set()
    for (u, v), cap in capacities.items():
        if (v, u) in seen:
            continue
        seen.add((u, v))
        specs.append(
            EdgeSpec(a=u, b=v, rate_bps=cap, delay_s=delay_s, queue_capacity=10)
        )
    return specs


def symmetric_ring(seed, n_nodes=10):
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(n_nodes)]
    capacities = {}
    for i in range(n_nodes):
        u, v = nodes[i], nodes[(i + 1) % n_nodes]
        cap = float(rng.uniform(1.0, 20.0))
        capacities[(u, v)] = cap
        capacities[(v, u)] = cap
    return nodes, capacities


def assert_rates_match_oracle(capacities, flows, rates):
    """Per-flow rates within 1e-6 relative of the scalar oracle."""
    expected = max_min_rates(capacities, flows)
    assert set(rates) == set(expected)
    for fid, rate in expected.items():
        assert rates[fid] == pytest.approx(rate, rel=1e-6, abs=1e-9)


class TestPathPool:
    def test_from_paths_round_trip(self):
        paths = [("a", "b", "c"), ("c", "a"), ("b", "c")]
        pool = PathPool.from_paths(paths)
        assert pool.n_paths == 3
        assert pool.lengths().tolist() == [3, 2, 2]
        assert [pool.path_names(i) for i in range(3)] == paths

    def test_from_paths_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="not in node_names"):
            PathPool.from_paths([("a", "x")], node_names=("a", "b"))

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            PathPool(node_names=("a",), nodes=np.array([0]), indptr=np.array([1, 1]))
        with pytest.raises(ValueError):
            PathPool(node_names=("a",), nodes=np.array([0]), indptr=np.array([0, 2]))

    def test_node_id_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="name table"):
            PathPool(node_names=("a",), nodes=np.array([1]), indptr=np.array([0, 1]))

    def test_gather_edges_traversal_order(self):
        pool = PathPool.from_paths([("a", "b", "c"), ("b", "a")])
        edge_u, edge_v, indptr = pool.gather_edges(np.array([1, 0]))
        assert indptr.tolist() == [0, 1, 3]
        names = pool.node_names
        got = [(names[u], names[v]) for u, v in zip(edge_u, edge_v)]
        assert got == [("b", "a"), ("a", "b"), ("b", "c")]

    def test_edge_simple_mask(self):
        pool = PathPool.from_paths(
            [("a", "b", "a", "b"), ("a", "b", "a"), ("a", "b")]
        )
        mask = pool.edge_simple_mask(np.arange(3))
        assert mask.tolist() == [False, True, True]

    def test_within_mask(self):
        pool = PathPool.from_paths([("a", "b"), ("b", "c"), ("a", "c")])
        ok = np.array([name != "c" for name in pool.node_names])
        assert pool.within_mask(ok).tolist() == [True, False, False]


class TestFlowTableValidation:
    def make_pool(self):
        return PathPool.from_paths([("a", "b"), ("a", "b", "a", "b")])

    def test_non_positive_demand_rejected(self):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="offered rate must be positive"):
            FlowTable(pool, np.array([0]), np.array([0.0]), np.array([0]))

    def test_short_path_rejected(self):
        pool = PathPool.from_paths([("a",)])
        with pytest.raises(ValueError, match="at least two nodes"):
            FlowTable(pool, np.array([0]), np.array([1.0]), np.array([0]))

    def test_repeated_edge_path_rejected_with_flow_id(self):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="flow 7 path.*edge-simple"):
            FlowTable(
                pool,
                np.array([0, 1]),
                np.array([1.0, 1.0]),
                np.array([3, 7]),
            )

    def test_path_id_out_of_pool_rejected(self):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="outside the pool"):
            FlowTable(pool, np.array([5]), np.array([1.0]), np.array([0]))

    def test_mismatched_columns_rejected(self):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="equal length"):
            FlowTable(pool, np.array([0]), np.array([1.0, 2.0]), np.array([0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_demand_rejected(self, bad):
        pool = self.make_pool()
        with pytest.raises(ValueError, match="flow 9 offered rate must be finite"):
            FlowTable(pool, np.array([0, 0]), np.array([1.0, bad]), np.array([4, 9]))
        with pytest.raises(ValueError, match="flow 9 offered rate must be finite"):
            CommodityTable(
                pool, np.array([0]), np.array([0, 0]), np.array([1.0, bad]),
                np.array([4, 9]),
            )
        with pytest.raises(ValueError, match="flow 3 offered rate must be finite"):
            FluidFlow(3, ("a", "b"), bad)

    def test_nan_flow_cannot_reach_the_solver(self):
        # A NaN demand used to pass validation and come back as a NaN
        # rate with an empty utilization map and a 0.0 loss rate.
        specs = [EdgeSpec("a", "b", 10.0, 0.001)]
        pool = PathPool.from_paths([("a", "b")])
        with pytest.raises(ValueError, match="flow 0 offered rate must be finite"):
            solve_fluid(
                specs,
                FlowTable(pool, np.array([0, 0]), np.array([math.nan, 4.0]),
                          np.array([0, 1])),
            )


class TestToCommodities:
    def test_first_seen_order_and_collapse(self):
        pool = PathPool.from_paths([("a", "b"), ("b", "c"), ("a", "b", "c")])
        table = FlowTable(
            pool,
            path_id=np.array([2, 0, 2, 1, 0]),
            demand_bps=np.ones(5),
            flow_ids=np.arange(5),
        )
        ct = table.to_commodities()
        # Commodities in first-seen flow order: path 2, then 0, then 1.
        assert ct.commodity_path.tolist() == [2, 0, 1]
        assert ct.flow_commodity.tolist() == [0, 1, 0, 2, 1]

    def test_value_dedupe_matches_object_semantics(self):
        # Two pool rows with identical node sequences collapse into ONE
        # commodity: commodities are keyed by path value, not pool row.
        pool = PathPool.from_paths([("a", "b", "c"), ("a", "b", "c"), ("a", "b")])
        table = FlowTable(
            pool,
            path_id=np.array([0, 1, 2]),
            demand_bps=np.ones(3),
            flow_ids=np.arange(3),
        )
        ct = table.to_commodities()
        assert ct.n_commodities == 2
        assert ct.flow_commodity.tolist() == [0, 0, 1]

    def test_problem_matches_object_problem_exactly(self):
        """The array build equals a per-flow walk of the path names:
        one incidence row per distinct path in first-seen order, link
        columns in traversal order — from a table and from a list."""
        capacities, table, flows = random_table_workload(3)
        link_index = {key: i for i, key in enumerate(capacities)}
        commodity_of: dict = {}
        indices, indptr = [], [0]
        for flow in flows:
            if flow.path not in commodity_of:
                commodity_of[flow.path] = len(commodity_of)
                indices += [link_index[e] for e in zip(flow.path[:-1], flow.path[1:])]
                indptr.append(len(indices))
        for source in (table, FlowTable.from_flows(flows)):
            tab = _CommodityProblem.from_table(capacities, source.to_commodities())
            assert tab.n_commodities == len(commodity_of)
            assert tab.incidence.indices.tolist() == indices
            assert tab.incidence.indptr.tolist() == indptr
            assert tab.incidence.data.tolist() == [1.0] * len(indices)
            assert tab.demands.tolist() == [f.offered_bps for f in flows]
            assert tab.flow_commodity.tolist() == [
                commodity_of[f.path] for f in flows
            ]
            assert tab.flow_ids.tolist() == [f.flow_id for f in flows]

    def test_unknown_link_message_matches_object_path(self):
        pool = PathPool.from_paths([("a", "b"), ("a", "z", "b")])
        table = FlowTable(
            pool,
            path_id=np.array([0, 1]),
            demand_bps=np.array([1.0, 1.0]),
            flow_ids=np.array([10, 11]),
        ).to_commodities()
        capacities = {("a", "b"): 1.0, ("b", "a"): 1.0}
        flows = [
            FluidFlow(10, ("a", "b"), 1.0),
            FluidFlow(11, ("a", "z", "b"), 1.0),
        ]
        with pytest.raises(KeyError) as table_err:
            _CommodityProblem.from_table(capacities, table)
        with pytest.raises(KeyError) as list_err:
            max_min_rates_table(capacities, FlowTable.from_flows(flows))
        with pytest.raises(KeyError) as oracle_err:
            max_min_rates(capacities, flows)
        assert str(table_err.value) == str(oracle_err.value)
        assert str(list_err.value) == str(oracle_err.value)
        assert "flow 11" in str(table_err.value)


class TestBitIdenticalRates:
    @pytest.mark.parametrize("seed", range(10))
    def test_vectorized_rates_bit_identical(self, seed):
        """A ``FluidFlow`` list through ``FlowTable.from_flows`` (its own
        pool layout) gets exactly the rates of the direct table."""
        capacities, table, flows = random_table_workload(seed)
        listed = FlowTable.from_flows(flows)
        expected = dict(
            zip(listed.flow_ids.tolist(),
                max_min_rates_table(capacities, listed).tolist())
        )
        rates = max_min_rates_table(capacities, table)
        got = dict(zip(table.flow_ids.tolist(), rates.tolist()))
        assert got == expected  # exact float equality, not approx
        assert_rates_match_oracle(capacities, flows, got)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("solver", ["vectorized", "scalar"])
    def test_solve_fluid_bit_identical(self, seed, solver):
        """``vectorized``: the list form of the workload gives a result
        equal to the table form in every field.  ``scalar``: the table
        result's rates and link loads agree with the scalar oracle."""
        capacities, table, flows = random_table_workload(100 + seed)
        specs = specs_from_capacities(capacities)
        tab = solve_fluid(specs, table)
        if solver == "vectorized":
            ref = solve_fluid(specs, flows)
            assert tab.flow_ids.tolist() == ref.flow_ids.tolist()
            assert tab.rates_bps.tolist() == ref.rates_bps.tolist()
            assert tab.offered_bps.tolist() == ref.offered_bps.tolist()
            assert tab.latencies_s.tolist() == ref.latencies_s.tolist()
            assert tab.link_utilization == ref.link_utilization
            assert tab.loss_rate == ref.loss_rate
            assert tab.mean_latency_s() == ref.mean_latency_s()
            assert tab.max_link_utilization == ref.max_link_utilization
            return
        directed, _delays = aggregate_capacities(specs)
        rates = max_min_rates(directed, flows)
        assert_rates_match_oracle(directed, flows, tab.rates_by_flow())
        loads: dict = {}
        for flow in flows:
            for edge in zip(flow.path[:-1], flow.path[1:]):
                loads[edge] = loads.get(edge, 0.0) + rates[flow.flow_id]
        assert set(tab.link_utilization) == {e for e, x in loads.items() if x > 0}
        for edge, util in tab.link_utilization.items():
            assert util == pytest.approx(loads[edge] / directed[edge], rel=1e-6)
        offered = sum(f.offered_bps for f in flows)
        assert tab.loss_rate == pytest.approx(
            max(0.0, 1.0 - sum(rates.values()) / offered), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_fluid_tcp_bit_identical(self, seed):
        # Symmetric capacities: spec expansion must reproduce the map.
        _nodes, capacities = symmetric_ring(seed)
        _cap2, table, flows = random_table_workload(seed)
        specs = specs_from_capacities(capacities)
        listed = solve_fluid_tcp(specs, flows)
        tab = solve_fluid_tcp(specs, table)
        assert tab.rates_bps.tolist() == listed.rates_bps.tolist()
        assert tab.offered_bps.tolist() == listed.offered_bps.tolist()
        assert tab.link_utilization == listed.link_utilization
        assert tab.loss_rate == listed.loss_rate
        # The per-flow Mathis loop over the scalar oracle lands on the
        # same fixed point.
        rates, offers = mathis_fixed_point(specs, flows)
        got_rates = tab.rates_by_flow()
        got_offers = dict(zip(tab.flow_ids.tolist(), tab.offered_bps.tolist()))
        for fid in rates:
            assert got_rates[fid] == pytest.approx(rates[fid], rel=1e-6)
            assert got_offers[fid] == pytest.approx(offers[fid], rel=1e-6)

    def test_duplicate_pairs_shared_vs_unshared_paths(self):
        """Adversarial: many flows on the same (src, dst) pair.

        Shared path rows, duplicated-value path rows, and a distinct
        route for the same pair must all match the list form exactly
        and the oracle to 1e-6 — value-duplicates collapse, distinct
        routes don't.
        """
        nodes, capacities = symmetric_ring(42, n_nodes=6)
        specs = specs_from_capacities(capacities)
        direct = ("n0", "n1")
        around = tuple(["n0"] + [f"n{i}" for i in range(5, 0, -1)])
        pool = PathPool.from_paths(
            [direct, direct, around], node_names=tuple(nodes)
        )
        # 12 flows, all n0 -> n1: four on pool row 0, four on the
        # value-identical row 1, four on the long way around.
        path_id = np.array([0, 1, 2] * 4)
        demand = np.linspace(0.5, 6.0, 12)
        table = FlowTable(pool, path_id, demand, np.arange(12))
        ct = table.to_commodities()
        assert ct.n_commodities == 2  # rows 0 and 1 collapse by value
        flows = flows_from_table(table)
        listed = solve_fluid(specs, flows)
        tab = solve_fluid(specs, table)
        assert tab.rates_by_flow() == listed.rates_by_flow()
        assert tab.link_utilization == listed.link_utilization
        assert_rates_match_oracle(capacities, flows, tab.rates_by_flow())

    def test_empty_table_solves(self):
        pool = PathPool.from_paths([("a", "b")])
        empty = np.empty(0, dtype=np.int64)
        table = FlowTable(pool, empty, np.empty(0), empty)
        specs = [EdgeSpec(a="a", b="b", rate_bps=1.0, delay_s=1e-3,
                          queue_capacity=10)]
        res = solve_fluid(specs, table)
        assert res.n_flows == 0
        assert res.loss_rate == 0.0
        tcp = solve_fluid_tcp(specs, table)
        assert tcp.n_flows == 0


class TestWithDemands:
    def test_with_demands_replaces_only_demands(self):
        _cap, table, _flows = random_table_workload(5)
        ct = table.to_commodities()
        new = ct.with_demands(np.full(ct.n_flows, 2.5))
        assert new.demand_bps.tolist() == [2.5] * ct.n_flows
        assert new.flow_commodity.tolist() == ct.flow_commodity.tolist()
        with pytest.raises(ValueError, match="positive"):
            ct.with_demands(np.zeros(ct.n_flows))


class TestKeptFlowTable:
    def make_routes(self):
        routes = {
            (0, 1): [0, 1],
            (0, 2): [0, 1, 2],
            (1, 2): [1, 2],
            (0, 3): [0, 3],
        }
        traffic = np.zeros((4, 4))
        for (s, t), w in [((0, 1), 4.0), ((0, 2), 3.0), ((1, 2), 2.0),
                          ((0, 3), 1.0)]:
            traffic[s, t] = traffic[t, s] = w
        return routes, traffic

    def test_matches_kept_flow_shares(self):
        """Equal, bit for bit, to the per-pair scalar filter."""
        routes, traffic = self.make_routes()
        names = {"0", "1", "2"}  # node 3 outside the simulated set
        total_h = np.triu(traffic, k=1).sum()
        kept, mass = [], 0.0
        for (s, t), path in routes.items():
            h = traffic[s, t] / total_h
            node_path = tuple(str(v) for v in path)
            if h < 0.25 or any(n not in names for n in node_path):
                continue
            kept.append((node_path, h))
            mass += h
        pool, path_ids, shares, table_mass = kept_flow_table(
            routes, traffic, names, 0.25
        )
        assert table_mass == mass  # bit-identical accumulation
        assert len(path_ids) == len(kept) == 2
        for i, (node_path, h) in enumerate(kept):
            assert pool.path_names(int(path_ids[i])) == node_path
            assert shares[i] == h

    def test_cutoff_and_node_filter(self):
        routes, traffic = self.make_routes()
        all_names = {"0", "1", "2", "3"}
        _pool, path_ids, _shares, _mass = kept_flow_table(
            routes, traffic, all_names, 0.35
        )
        # Only the (0, 1) share (0.4) survives a 0.35 cutoff.
        assert len(path_ids) == 1


class TestExperimentIntegration:
    @pytest.fixture(scope="class")
    def designed(self, small_us_scenario):
        from repro.core import solve_heuristic

        topo = solve_heuristic(
            small_us_scenario.design_input(), 800.0, ilp_refinement=False
        ).topology
        return topo

    # Pinned (mean_delay_ms, loss_rate, max_link_utilization) records.
    # The per-flow object front-end and the flow-table front-end both
    # produced exactly these values before the object one was retired.
    PINNED_UDP_TCP = (29.018650412181426, 0.0, 0.8232322246066641)
    PINNED_USERS = (26.90133073058335, 0.8148689762140203, 1.0000000000000004)

    @pytest.mark.parametrize("transport", ["udp", "tcp"])
    def test_table_workload_bit_identical_records(self, designed, transport):
        res = run_udp_experiment(
            designed, 50.0, 0.9, engine="fluid", transport=transport
        )
        got = (res.mean_delay_ms, res.loss_rate, res.max_link_utilization)
        assert got == self.PINNED_UDP_TCP

    def test_table_workload_users_model(self, designed):
        res = run_udp_experiment(
            designed, 50.0, 0.8, engine="fluid", demand_model="users",
            users_millions=2.0,
        )
        got = (res.mean_delay_ms, res.loss_rate, res.max_link_utilization)
        assert got == self.PINNED_USERS

    def test_load_curve_hoisting_keeps_records_unchanged(self, designed):
        """The hoisted invariants must not change a single record value
        vs running each load point standalone (fresh setup per call)."""
        loads = (0.4, 0.8, 1.1)
        curve = run_load_curve(designed, 50.0, loads, engine="fluid")
        for row, load in zip(curve, loads):
            res = run_udp_experiment(designed, 50.0, load, engine="fluid")
            assert row["load"] == load
            assert row["mean_delay_ms"] == res.mean_delay_ms
            assert row["loss_rate"] == res.loss_rate
            assert row["max_link_utilization"] == res.max_link_utilization

    def test_load_curve_workloads_bit_identical(self, designed):
        rows = run_load_curve(designed, 50.0, (0.5, 1.0), engine="fluid")
        common = {
            "stage": "netsim",
            "engine": "fluid",
            "transport": "udp",
            "demand_model": "design",
            "mean_delay_ms": 29.018650412181476,
            "loss_rate": 0.0,
        }
        assert rows == [  # same keys, same values, bit for bit
            {**common, "load": 0.5, "max_link_utilization": 0.4573512358925912},
            {**common, "load": 1.0, "max_link_utilization": 0.9147024717851824},
        ]

    def test_profile_rows_carry_timings(self, designed):
        rows = run_load_curve(
            designed, 50.0, (0.5,), engine="fluid", profile=True,
        )
        assert {"setup_s", "fill_s", "freeze_s"} <= set(rows[0])
        default_rows = run_load_curve(designed, 50.0, (0.5,), engine="fluid")
        assert "setup_s" not in default_rows[0]

    def test_fluid_result_timings_surface(self, designed):
        res = run_udp_experiment(designed, 50.0, 0.5, engine="fluid")
        assert set(res.timings_s) == {"setup_s", "fill_s", "freeze_s"}
        assert all(v >= 0.0 for v in res.timings_s.values())


class TestSpecKnobs:
    def test_workloads_tuple(self):
        assert WORKLOADS == ("object", "table")

    def test_defaults(self):
        spec = NetsimSpec()
        assert spec.workload == "object"
        assert spec.profile is False

    def test_table_requires_fluid(self):
        with pytest.raises(ValueError, match="fluid"):
            NetsimSpec(engine="packet", workload="table")
        NetsimSpec(engine="fluid", workload="table")  # valid

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            NetsimSpec(workload="soa")

    def test_profile_must_be_bool(self):
        with pytest.raises(ValueError, match="boolean"):
            NetsimSpec(profile="yes")

    def test_round_trips_canonical_form(self):
        from repro.exp.spec import ExperimentSpec

        spec = ExperimentSpec(
            netsim=NetsimSpec(engine="fluid", workload="table", profile=True)
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec


class TestDemandPairs:
    def test_pairs_match_matrix(self):
        m = np.array(
            [[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        )
        pairs, shares = demand_pairs(m)
        assert pairs.tolist() == [[0, 1], [1, 2]]
        assert shares.tolist() == [2.0 / 3.0, 1.0 / 3.0]

    def test_no_demand_rejected(self):
        with pytest.raises(ValueError, match="no demand"):
            demand_pairs(np.zeros((3, 3)))

    def test_user_demand_pairs_consistent(self, small_us_scenario):
        sites = list(small_us_scenario.sites)
        matrix, aggregate = user_demand_matrix(sites, users_millions=1.0)
        pairs, demands, agg2 = user_demand_pairs(sites, users_millions=1.0)
        assert agg2 == aggregate
        i, j = pairs[0]
        assert demands[0] == matrix[i, j] * aggregate


class TestValidationDedup:
    def test_shared_path_objects_validate_once(self):
        # A FluidFlow list with many flows sharing one path tuple
        # becomes a single pool row (and one commodity).
        path = ("a", "b", "c")
        flows = [FluidFlow(i, path, 1.0 + i) for i in range(200)]
        specs = [
            EdgeSpec(a="a", b="b", rate_bps=50.0, delay_s=1e-3,
                     queue_capacity=10),
            EdgeSpec(a="b", b="c", rate_bps=50.0, delay_s=1e-3,
                     queue_capacity=10),
        ]
        assert FlowTable.from_flows(flows).pool.n_paths == 1
        res = solve_fluid(specs, flows)
        assert len(res.rates_bps) == 200

    def test_unknown_link_still_detected(self):
        path = ("a", "x")
        specs = [EdgeSpec(a="a", b="b", rate_bps=1.0, delay_s=1e-3)]
        with pytest.raises(KeyError, match="unknown link"):
            solve_fluid(specs, [FluidFlow(0, path, 1.0)])

    def test_table_is_frozen(self):
        _cap, table, _flows = random_table_workload(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.path_id = None
