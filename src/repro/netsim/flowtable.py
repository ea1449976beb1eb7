"""Array-native flow workloads: struct-of-arrays tables for the fluid engine.

A million :class:`~repro.netsim.fluid.FluidFlow` instances cost more to
build and validate than the progressive fill costs to solve.  This
module keeps the workload in numpy arrays from demand generation to the
solver:

* :class:`PathPool` — a pool of node paths as one flat node-index array
  plus an ``indptr`` (CSR-style), with the node-id -> name mapping.
  Paths come straight from ``Topology.routed_paths`` or any array
  source; validation (edge-simple) and path->link edge extraction are
  whole-array operations.
* :class:`FlowTable` — per-flow ``path_id`` / ``demand_bps`` /
  ``flow_ids`` columns over a pool.  Construction validates the whole
  table vectorized (finite positive demand, used paths >= 2 nodes and
  edge-simple) with the same error messages as ``FluidFlow``.
* :class:`CommodityTable` — flows collapsed by path *value* into
  commodities in first-seen flow order: the solver's input.

``solve_fluid`` / ``solve_fluid_tcp`` (see :mod:`repro.netsim.fluid`)
solve these tables; a ``FluidFlow`` list reaches them through
:meth:`FlowTable.from_flows`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np


def _as_int64(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _as_float(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
class PathPool:
    """A pool of node paths in struct-of-arrays (CSR) form.

    Attributes:
        node_names: name of node index ``i`` — paths store integer node
            ids; link capacities and results speak node names.
        nodes: every path's node ids, concatenated.
        indptr: path ``p`` occupies ``nodes[indptr[p]:indptr[p + 1]]``.
    """

    node_names: tuple[str, ...]
    nodes: np.ndarray
    indptr: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_names", tuple(self.node_names))
        object.__setattr__(self, "nodes", _as_int64(self.nodes, "nodes"))
        object.__setattr__(self, "indptr", _as_int64(self.indptr, "indptr"))
        if len(self.indptr) == 0 or self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != len(self.nodes) or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing and end at len(nodes)")
        if len(self.nodes) and (
            self.nodes.min() < 0 or self.nodes.max() >= len(self.node_names)
        ):
            raise ValueError("path node id outside the pool's name table")

    @property
    def n_paths(self) -> int:
        return len(self.indptr) - 1

    def lengths(self) -> np.ndarray:
        """Node count per path."""
        return self.indptr[1:] - self.indptr[:-1]

    @classmethod
    def from_paths(
        cls,
        paths,
        node_names: tuple[str, ...] | None = None,
    ) -> "PathPool":
        """A pool from an iterable of node-name paths.

        ``node_names`` fixes the id table; when omitted it is built from
        the paths in first-appearance order.
        """
        paths = [tuple(p) for p in paths]
        flat = list(itertools.chain.from_iterable(paths))
        if node_names is None:
            node_names = tuple(dict.fromkeys(flat))
        index = {name: i for i, name in enumerate(node_names)}
        try:
            nodes = np.fromiter(
                map(index.__getitem__, flat), dtype=np.int64, count=len(flat)
            )
        except KeyError as exc:
            raise ValueError(f"path node {exc.args[0]!r} not in node_names") from None
        counts = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return cls(node_names=node_names, nodes=nodes, indptr=indptr)

    @classmethod
    def from_routes(
        cls, routes: dict[tuple[int, int], list[int]], n_sites: int
    ) -> "PathPool":
        """A pool from ``Topology.routed_paths()`` (site-index paths).

        Node names follow the experiments' convention ``str(site_index)``
        so the pool plugs straight into edge-spec capacity maps.  Path
        ``p`` is the route of the ``p``-th pair in dict order.
        """
        values = list(routes.values())
        counts = np.fromiter(
            (len(p) for p in values), dtype=np.int64, count=len(values)
        )
        nodes = np.fromiter(
            (v for path in values for v in path),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        indptr = np.concatenate(([0], np.cumsum(counts)))
        names = tuple(str(i) for i in range(n_sites))
        return cls(node_names=names, nodes=nodes, indptr=indptr)

    def path_nodes(self, path_id: int) -> np.ndarray:
        return self.nodes[self.indptr[path_id] : self.indptr[path_id + 1]]

    def path_names(self, path_id: int) -> tuple[str, ...]:
        return tuple(self.node_names[i] for i in self.path_nodes(path_id))

    def gather_edges(
        self, path_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edges of the selected paths, in traversal order.

        Returns ``(edge_u, edge_v, edge_indptr)``: row ``r`` of
        ``path_ids`` owns edges ``edge_indptr[r]:edge_indptr[r + 1]``,
        each ``(edge_u[j], edge_v[j])`` a node-id pair.  Paths with
        fewer than two nodes contribute no edges.
        """
        path_ids = _as_int64(path_ids, "path_ids")
        starts = self.indptr[path_ids]
        lengths = self.indptr[path_ids + 1] - starts
        counts = np.maximum(lengths - 1, 0)
        edge_indptr = np.concatenate(([0], np.cumsum(counts)))
        total = int(edge_indptr[-1])
        rep = np.repeat(np.arange(len(path_ids), dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - edge_indptr[:-1][rep]
        pos = starts[rep] + offsets
        return self.nodes[pos], self.nodes[pos + 1], edge_indptr

    def edge_simple_mask(self, path_ids: np.ndarray) -> np.ndarray:
        """True per selected path iff no directed edge repeats."""
        path_ids = _as_int64(path_ids, "path_ids")
        edge_u, edge_v, edge_indptr = self.gather_edges(path_ids)
        ok = np.ones(len(path_ids), dtype=bool)
        if len(edge_u) == 0:
            return ok
        counts = edge_indptr[1:] - edge_indptr[:-1]
        rows = np.repeat(np.arange(len(path_ids), dtype=np.int64), counts)
        n_codes = len(self.node_names) ** 2
        codes = edge_u * len(self.node_names) + edge_v
        if len(path_ids) * n_codes < 2**63:
            # One (row, code) key: already sorted by row, so the stable
            # sort only reorders within each path's short run — several
            # times faster than lexsort.
            order = np.argsort(rows * n_codes + codes, kind="stable")
        else:
            order = np.lexsort((codes, rows))
        dup = (rows[order][1:] == rows[order][:-1]) & (
            codes[order][1:] == codes[order][:-1]
        )
        ok[rows[order][1:][dup]] = False
        return ok

    def within_mask(self, node_ok: np.ndarray) -> np.ndarray:
        """True per pool path iff every node satisfies ``node_ok``.

        ``node_ok`` is a boolean array indexed by node id (e.g. "this
        node exists in the simulated link set").
        """
        node_ok = np.ascontiguousarray(node_ok, dtype=bool)
        if node_ok.shape != (len(self.node_names),):
            raise ValueError("node_ok must have one entry per pool node")
        good = np.concatenate(
            ([0], np.cumsum(node_ok[self.nodes].astype(np.int64)))
        )
        per_path = good[self.indptr[1:]] - good[self.indptr[:-1]]
        return per_path == self.lengths()

    def padded_rows(self, path_ids: np.ndarray) -> np.ndarray:
        """Selected paths as a dense (k, max_len) matrix, -1 padded.

        The fixed-width form lets callers compare paths by *value*
        (``np.unique(..., axis=0)``) without per-row Python objects.
        """
        path_ids = _as_int64(path_ids, "path_ids")
        starts = self.indptr[path_ids]
        lengths = self.indptr[path_ids + 1] - starts
        max_len = int(lengths.max(initial=0))
        out = np.full((len(path_ids), max_len), -1, dtype=np.int64)
        if max_len == 0:
            return out
        mask = np.arange(max_len, dtype=np.int64) < lengths[:, None]
        rep = np.repeat(np.arange(len(path_ids), dtype=np.int64), lengths)
        row_start = np.concatenate(([0], np.cumsum(lengths)))
        offsets = np.arange(int(row_start[-1]), dtype=np.int64) - row_start[:-1][rep]
        out[mask] = self.nodes[starts[rep] + offsets]
        return out


def _used_rows(
    path_id: np.ndarray, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(path_id, return_inverse=True)`` without the sort.

    Pool rows form a bounded integer domain, so a presence mask plus a
    cumulative-sum rank reproduces the sorted-unique contract in O(n)
    instead of O(n log n) — at 10^6 flows the sort is the single
    largest front-end cost.
    """
    mask = np.zeros(n_paths, dtype=bool)
    mask[path_id] = True
    rank = np.cumsum(mask) - 1
    return np.flatnonzero(mask), rank[path_id]


def _check_demands(demand_bps: np.ndarray, flow_ids: np.ndarray) -> None:
    """Every demand finite and positive; a bad one names its flow."""
    if len(demand_bps) == 0:
        return
    finite = np.isfinite(demand_bps)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(
            f"flow {int(flow_ids[first])} offered rate must be finite "
            f"(got {demand_bps[first]})"
        )
    if demand_bps.min() <= 0:
        raise ValueError("offered rate must be positive")


def _check_used_paths(
    pool: PathPool, path_id: np.ndarray, flow_ids: np.ndarray
) -> None:
    """Vectorized mirror of ``FluidFlow.__post_init__`` path checks."""
    if len(path_id) == 0:
        return
    if path_id.min() < 0 or path_id.max() >= pool.n_paths:
        raise ValueError("path_id outside the pool")
    used = _used_rows(path_id, pool.n_paths)[0]
    lengths = pool.indptr[used + 1] - pool.indptr[used]
    short = lengths < 2
    if short.any():
        raise ValueError("path needs at least two nodes")
    bad_used = ~pool.edge_simple_mask(used)
    if bad_used.any():
        bad = np.zeros(pool.n_paths, dtype=bool)
        bad[used[bad_used]] = True
        first = int(np.argmax(bad[path_id]))
        raise ValueError(
            f"flow {int(flow_ids[first])} path repeats a directed link; "
            "fluid paths must be edge-simple"
        )


@dataclass(frozen=True)
class FlowTable:
    """Per-flow columns over a :class:`PathPool` — zero per-flow objects.

    Attributes:
        pool: the shared path pool.
        path_id: pool row per flow.
        demand_bps: offered (maximum) rate per flow; finite and positive.
        flow_ids: caller-visible flow ids (results key off these).
    """

    pool: PathPool
    path_id: np.ndarray
    demand_bps: np.ndarray
    flow_ids: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "path_id", _as_int64(self.path_id, "path_id"))
        object.__setattr__(
            self, "demand_bps", _as_float(self.demand_bps, "demand_bps")
        )
        object.__setattr__(self, "flow_ids", _as_int64(self.flow_ids, "flow_ids"))
        n = len(self.path_id)
        if len(self.demand_bps) != n or len(self.flow_ids) != n:
            raise ValueError("flow columns must have equal length")
        _check_demands(self.demand_bps, self.flow_ids)
        _check_used_paths(self.pool, self.path_id, self.flow_ids)

    @classmethod
    def from_flows(cls, flows) -> "FlowTable":
        """A table from ``FluidFlow``-like objects, in list order.

        Each distinct path (by value) becomes one pool row; node ids
        follow first appearance.
        """
        row_of: dict[tuple[str, ...], int] = {}
        path_id = [row_of.setdefault(f.path, len(row_of)) for f in flows]
        return cls(
            pool=PathPool.from_paths(row_of),
            path_id=np.array(path_id, dtype=np.int64),
            demand_bps=np.array([f.offered_bps for f in flows], dtype=float),
            flow_ids=np.array([f.flow_id for f in flows], dtype=np.int64),
        )

    @property
    def n_flows(self) -> int:
        return len(self.path_id)

    @property
    def src(self) -> np.ndarray:
        """Source node id per flow."""
        return self.pool.nodes[self.pool.indptr[self.path_id]]

    @property
    def dst(self) -> np.ndarray:
        """Destination node id per flow."""
        return self.pool.nodes[self.pool.indptr[self.path_id + 1] - 1]

    def to_commodities(self) -> "CommodityTable":
        """Collapse flows sharing a path *value* into commodities.

        Commodity rows appear in first-seen flow order and two pool rows
        with identical node sequences collapse into one commodity.
        """
        n = self.n_flows
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return CommodityTable(
                pool=self.pool,
                commodity_path=empty,
                flow_commodity=empty,
                demand_bps=self.demand_bps,
                flow_ids=self.flow_ids,
            )
        used, inverse = _used_rows(self.path_id, self.pool.n_paths)
        # Group equal node sequences: sort the padded rows
        # lexicographically and start a group wherever a row differs
        # from its predecessor.
        rows = self.pool.padded_rows(used)
        sort = np.lexsort(rows.T[::-1])
        starts = np.ones(len(sort), dtype=bool)
        starts[1:] = (rows[sort[1:]] != rows[sort[:-1]]).any(axis=1)
        group_of_used = np.empty(len(sort), dtype=np.int64)
        group_of_used[sort] = np.cumsum(starts) - 1
        group = group_of_used[inverse]
        n_groups = int(group.max()) + 1
        first = np.full(n_groups, n, dtype=np.int64)
        np.minimum.at(first, group, np.arange(n, dtype=np.int64))
        order = np.argsort(first, kind="stable")
        rank = np.empty(n_groups, dtype=np.int64)
        rank[order] = np.arange(n_groups, dtype=np.int64)
        return CommodityTable(
            pool=self.pool,
            commodity_path=self.path_id[first[order]],
            flow_commodity=rank[group],
            demand_bps=self.demand_bps,
            flow_ids=self.flow_ids,
        )


@dataclass(frozen=True)
class CommodityTable:
    """Flows collapsed into path commodities, still in array form.

    The direct input to ``_CommodityProblem.from_table``: ``commodity_path``
    holds one pool row per commodity in first-seen flow order, and each
    flow points at its commodity.  Build one via
    :meth:`FlowTable.to_commodities` (which also dedupes by path value).

    Attributes:
        pool: the shared path pool.
        commodity_path: pool row per commodity.
        flow_commodity: commodity index per flow.
        demand_bps: offered rate per flow; finite and positive.
        flow_ids: caller-visible flow ids.
    """

    pool: PathPool
    commodity_path: np.ndarray
    flow_commodity: np.ndarray
    demand_bps: np.ndarray
    flow_ids: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "commodity_path", _as_int64(self.commodity_path, "commodity_path")
        )
        object.__setattr__(
            self, "flow_commodity", _as_int64(self.flow_commodity, "flow_commodity")
        )
        object.__setattr__(
            self, "demand_bps", _as_float(self.demand_bps, "demand_bps")
        )
        object.__setattr__(self, "flow_ids", _as_int64(self.flow_ids, "flow_ids"))
        n = len(self.flow_commodity)
        if len(self.demand_bps) != n or len(self.flow_ids) != n:
            raise ValueError("flow columns must have equal length")
        _check_demands(self.demand_bps, self.flow_ids)
        if n and (
            self.flow_commodity.min() < 0
            or self.flow_commodity.max() >= len(self.commodity_path)
        ):
            raise ValueError("flow_commodity outside the commodity table")
        _check_used_paths(
            self.pool, self.commodity_path, self.first_flow_ids()
        )

    @property
    def n_flows(self) -> int:
        return len(self.flow_commodity)

    @property
    def n_commodities(self) -> int:
        return len(self.commodity_path)

    def first_flow_ids(self) -> np.ndarray:
        """The id of the first flow of each commodity (for error text)."""
        if self.n_flows == 0:
            return np.empty(0, dtype=np.int64)
        first = np.full(self.n_commodities, self.n_flows, dtype=np.int64)
        np.minimum.at(
            first, self.flow_commodity, np.arange(self.n_flows, dtype=np.int64)
        )
        first = np.minimum(first, self.n_flows - 1)  # unreferenced commodities
        return self.flow_ids[first]

    def with_demands(self, demand_bps: np.ndarray) -> "CommodityTable":
        """The same commodity structure with new per-flow demands.

        The TCP macro-model iterates offers against a fixed path set;
        this re-demand avoids rebuilding (and re-validating) paths.
        """
        return dataclasses.replace(
            self, demand_bps=_as_float(demand_bps, "demand_bps")
        )


__all__ = ["PathPool", "FlowTable", "CommodityTable"]
