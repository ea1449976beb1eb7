"""Scalar reference for the fluid engine's max-min allocation.

``max_min_rates`` is progressive filling written as explicit per-round
Python loops over a residual-capacity dict: exact and readable, but
O(rounds x (flows + links)) interpreter work.  It is the reference the
allocation tests compare :func:`repro.netsim.solve_fluid` against.
``flows_from_table`` is its bridge from the array-native workload, and
``mathis_fixed_point`` is the per-flow Mathis TCP loop over it.
"""

from __future__ import annotations

from repro.netsim import (
    CommodityTable,
    EdgeSpec,
    FlowTable,
    FluidFlow,
    aggregate_capacities,
    mathis_rate_bps,
)
from repro.netsim.fluid import _EPS_BPS
from repro.netsim.tcpmodel import DEFAULT_LOSS_FLOOR


def flows_from_table(table: FlowTable | CommodityTable) -> list[FluidFlow]:
    """Expand a table workload into a ``FluidFlow`` list.

    Flows come out in table order with their table flow ids and one
    shared path tuple per commodity.
    """
    if isinstance(table, FlowTable):
        table = table.to_commodities()
    paths = [table.pool.path_names(int(p)) for p in table.commodity_path]
    return [
        FluidFlow(flow_id=int(fid), path=paths[int(c)], offered_bps=float(d))
        for fid, c, d in zip(
            table.flow_ids, table.flow_commodity, table.demand_bps
        )
    ]


def max_min_rates(
    capacities_bps: dict[tuple[str, str], float],
    flows: list[FluidFlow],
) -> dict[int, float]:
    """Max-min fair rates via progressive filling (scalar reference).

    Args:
        capacities_bps: directed link capacities keyed by (u, v).
        flows: the demands; a flow freezes early when its allocation
            reaches ``offered_bps`` (demand-limited flows don't hog
            their bottleneck share).

    Each round freezes at least one flow (bottlenecked or satisfied),
    so the loop runs at most ``len(flows)`` times over the link set.
    Bottleneck detection is two-pass: the first pass finds the minimum
    fair share over all loaded links, the realized step is the minimum
    of that and the demand step, and only then are links within epsilon
    of the realized step collected as bottlenecks — a link whose share
    falls just *below* the demand step can never be filled past its
    residual.
    """
    for flow in flows:
        for u, v in zip(flow.path[:-1], flow.path[1:]):
            if (u, v) not in capacities_bps:
                raise KeyError(f"flow {flow.flow_id} uses unknown link {u}->{v}")

    alloc = {flow.flow_id: 0.0 for flow in flows}
    remaining = {flow.flow_id: flow.offered_bps for flow in flows}
    residual = dict(capacities_bps)
    on_link: dict[tuple[str, str], set[int]] = {}
    for flow in flows:
        for u, v in zip(flow.path[:-1], flow.path[1:]):
            on_link.setdefault((u, v), set()).add(flow.flow_id)
    active = set(alloc)

    while active:
        # The largest uniform increment every active flow can take.
        demand_step = min(remaining[fid] for fid in active)
        # Pass 1: the minimum fair share over all loaded links.
        min_share = float("inf")
        for link, users in on_link.items():
            if not users:
                continue
            share = residual[link] / len(users)
            if share < min_share:
                min_share = share
        step = max(min(demand_step, min_share), 0.0)
        # Pass 2: every link within epsilon of the realized step is a
        # bottleneck (epsilon-symmetric: the step itself never exceeds
        # any link's share, so no residual is driven below zero).
        bottlenecks = [
            link
            for link, users in on_link.items()
            if users and residual[link] / len(users) <= step + _EPS_BPS
        ]
        for fid in active:
            alloc[fid] += step
            remaining[fid] -= step
        for link, users in on_link.items():
            if users:
                residual[link] -= step * len(users)

        frozen = {fid for fid in active if remaining[fid] <= _EPS_BPS}
        for link in bottlenecks:
            frozen |= on_link[link]
        if not frozen:  # numerical safety: freeze everything and stop
            frozen = set(active)
        for fid in frozen:
            for link, users in on_link.items():
                users.discard(fid)
        active -= frozen
    return alloc


def mathis_fixed_point(
    specs: list[EdgeSpec],
    flows: list[FluidFlow],
    loss_floor: float = DEFAULT_LOSS_FLOOR,
    iterations: int = 25,
    damping: float = 0.5,
    tolerance: float = 1e-6,
    packet_bytes: int = 500,
) -> tuple[dict[int, float], dict[int, float]]:
    """The Mathis TCP fixed point, one flow at a time.

    Returns ``(rates, offers)`` per flow id: the allocation and the TCP
    offers of the last iterate, as :func:`repro.netsim.solve_fluid_tcp`
    defines them.
    """
    capacities, delays = aggregate_capacities(specs)
    rtt = {
        f.flow_id: 2.0
        * sum(
            delays[link] + packet_bytes * 8 / capacities[link]
            for link in zip(f.path[:-1], f.path[1:])
        )
        for f in flows
    }
    p = {f.flow_id: loss_floor for f in flows}
    rates: dict[int, float] = {}
    offers: dict[int, float] = {}
    for _ in range(iterations):
        tcp_flows = [
            FluidFlow(
                f.flow_id,
                f.path,
                min(f.offered_bps, mathis_rate_bps(rtt[f.flow_id], p[f.flow_id])),
            )
            for f in flows
        ]
        offers = {f.flow_id: f.offered_bps for f in tcp_flows}
        rates = max_min_rates(capacities, tcp_flows)
        worst_move = 0.0
        for fid, offered in offers.items():
            target = max(loss_floor, 1.0 - rates[fid] / offered)
            move = damping * (target - p[fid])
            p[fid] += move
            worst_move = max(worst_move, abs(move))
        if worst_move < tolerance:
            break
    return rates, offers
