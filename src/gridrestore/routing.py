"""Per-scenario, per-crew exact routing over the reduced complete graph.

Each crew with outstanding demand gets one depot-to-depot path visiting its
required nodes exactly once. ``brute_force_routing`` enumerates every
permutation and depot pair. ``solve_routing`` runs a Held-Karp dynamic
program over node subsets in numpy: a backward pass fills the cost-to-go
``g[mask, last]`` (finish every node outside ``mask`` from ``last``, then go
home to the best depot) one popcount layer at a time, and a forward pass
rebuilds the route greedily, taking at each step the smallest node that
still attains the optimum. Both solvers share one tie-break rule, so their
output is bit-identical: minimum cost, then lexicographically smallest visit
order, then smallest (depot_start, depot_end).

Both solvers optimize integer millimeters x the crew's rate, so equal costs
are exact ties, and the optimal order and depots depend only on the required
set and on whether the rate is positive. ``solve_routing`` therefore solves
each distinct (required set, rate > 0) once per call and shares the result
between crews. Reported leg costs and totals are each crew's own float arc
costs summed left to right.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import NodeUnreachableError, TooManyNodesError, UnreachableArcError
from .network import CompleteGraph, NodeId, is_int, is_number, node_key
from .scenario import N_CREWS, Scenario

SOLVE_NODE_CAP = 15
BRUTE_NODE_CAP = 8


@dataclass(frozen=True)
class RoutingInstance:
    """One scenario's routing data over the reduced graph."""

    complete: CompleteGraph
    required: Mapping[int, frozenset[NodeId]]
    depots: frozenset[NodeId]
    cost_rate_per_m: Mapping[int, float] = field(default_factory=dict)
    damaged: frozenset[NodeId] | None = None

    def __post_init__(self):
        object.__setattr__(self, "required",
                           {k: frozenset(v) for k, v in self.required.items()})
        object.__setattr__(self, "depots", frozenset(self.depots))
        object.__setattr__(self, "cost_rate_per_m", dict(self.cost_rate_per_m))
        damaged = self.damaged
        if damaged is None:
            damaged = frozenset().union(*self.required.values()) if self.required else frozenset()
        object.__setattr__(self, "damaged", frozenset(damaged))

        terms = set(self.complete.terminals)
        if not self.depots:
            raise ValueError("at least one depot is required")
        if not self.depots <= terms:
            raise ValueError("every depot must be a terminal of the complete graph")
        if not self.damaged <= terms:
            raise ValueError("every damaged node must be a terminal of the complete graph")
        for k, nodes in self.required.items():
            if not 0 <= k < N_CREWS:
                raise ValueError(f"crew index {k} out of range")
            if not nodes <= self.damaged:
                raise ValueError(f"required nodes for crew {k} must lie in the damaged set")
        if self.depots & self.damaged:
            raise ValueError("depots cannot be damaged nodes")
        if not all(map(is_number, self.cost_rate_per_m.values())):
            raise ValueError("cost rates must be numbers")
        if not all(math.isfinite(r) for r in self.cost_rate_per_m.values()):
            raise ValueError("cost rates must be finite")
        if any(r < 0 for r in self.cost_rate_per_m.values()):
            raise ValueError("cost rates must be >= 0")

    @classmethod
    def from_scenario(
        cls,
        complete: CompleteGraph,
        scenario: Scenario,
        depots: Iterable[NodeId],
        cost_rate_per_m: Mapping[int, float] | None = None,
    ) -> "RoutingInstance":
        """Required sets are the nodes with positive demand per crew."""
        damaged = frozenset(i for (i, _k) in scenario.repair_demand)
        return cls(
            complete=complete,
            required=scenario.required(),
            depots=frozenset(depots),
            cost_rate_per_m=dict(cost_rate_per_m or {}),
            damaged=damaged,
        )

    def rate(self, crew: int) -> float:
        return self.cost_rate_per_m.get(crew, 1.0)

    def arc_cost(self, u: NodeId, v: NodeId, crew: int) -> float:
        """Travel cost of one leg; inf when the pair is unreachable."""
        if u == v:
            return 0.0
        return self.complete.dist_m(u, v) * self.rate(crew)


@dataclass(frozen=True)
class Route:
    """A depot-to-depot path for one crew with its subtour-free certificate."""

    crew: int
    depot_start: NodeId
    depot_end: NodeId
    visit_order: tuple[NodeId, ...]
    leg_costs: tuple[float, ...]
    leg_m: tuple[float, ...]  # meters of each leg of stops()
    total_cost: float
    mtz_labels: Mapping[NodeId, int]

    def __post_init__(self):
        object.__setattr__(self, "visit_order", tuple(self.visit_order))
        object.__setattr__(self, "leg_costs", tuple(self.leg_costs))
        object.__setattr__(self, "leg_m", tuple(self.leg_m))
        object.__setattr__(self, "mtz_labels", dict(self.mtz_labels))
        if not is_int(self.crew):
            raise ValueError(f"crew must be an integer, got {self.crew!r}")
        for i, cost in enumerate(self.leg_costs):
            if not is_number(cost):
                raise ValueError(f"crew {self.crew}: leg_costs[{i}] must be a number, "
                                 f"got {cost!r}")
        if not is_number(self.total_cost):
            raise ValueError(f"crew {self.crew}: total_cost must be a number, "
                             f"got {self.total_cost!r}")
        for node, label in self.mtz_labels.items():
            if not is_int(label):
                raise ValueError(f"crew {self.crew}: mtz_labels[{node!r}] must be an integer, "
                                 f"got {label!r}")

    def stops(self) -> tuple[NodeId, ...]:
        return (self.depot_start, *self.visit_order, self.depot_end)

    def arcs(self) -> tuple[tuple[NodeId, NodeId], ...]:
        stops = self.stops()
        return tuple(zip(stops, stops[1:]))


@dataclass(frozen=True)
class RoutePlan:
    """Routes for one scenario, keyed by crew (crews with no demand absent)."""

    scenario_id: int
    routes: Mapping[int, Route]

    def __post_init__(self):
        if not is_int(self.scenario_id):
            raise ValueError(f"scenario_id must be an integer, got {self.scenario_id!r}")
        object.__setattr__(self, "routes", dict(self.routes))

    @property
    def total_cost(self) -> float:
        return sum(self.routes[k].total_cost for k in sorted(self.routes))


def expected_cost(plans: Sequence[RoutePlan]) -> float:
    """Mean total travel cost across scenario plans."""
    if not plans:
        return 0.0
    return sum(p.total_cost for p in plans) / len(plans)


def route_cost(route: Route, inst: RoutingInstance) -> float:
    """Left-to-right sum of arc costs; raises UnreachableArcError on inf legs."""
    total = 0.0
    for u, v in route.arcs():
        c = inst.arc_cost(u, v, route.crew)
        if math.isinf(c):
            raise UnreachableArcError(
                f"crew {route.crew}: leg {u!r} -> {v!r} crosses an unreachable pair"
            )
        total += c
    return total


def _check_reachability(inst: RoutingInstance, crew: int, nodes: Sequence[NodeId]) -> None:
    """Required nodes must share a component that contains a depot."""
    depots = sorted(inst.depots, key=node_key)
    for i in nodes:
        if not any(inst.complete.is_reachable(d, i) for d in depots):
            raise NodeUnreachableError(i, crew, "no depot can reach it")
    rep = nodes[0]
    for i in nodes[1:]:
        if not inst.complete.is_reachable(rep, i):
            raise NodeUnreachableError(
                i, crew, f"disconnected from required node {rep!r}; no single route exists"
            )


def _mtz_labels(order: Sequence[NodeId]) -> dict[NodeId, int]:
    return {node: pos for pos, node in enumerate(order, start=1)}


def _route_from_order(
    inst: RoutingInstance,
    crew: int,
    d0: NodeId,
    d1: NodeId,
    order: tuple[NodeId, ...],
) -> Route:
    stops = (d0, *order, d1)
    arcs = tuple(zip(stops, stops[1:]))
    legs = tuple(inst.arc_cost(u, v, crew) for u, v in arcs)
    leg_m = tuple(inst.complete.dist_m(u, v) for u, v in arcs)
    total = 0.0
    for c in legs:
        total += c
    return Route(crew, d0, d1, order, legs, leg_m, total, _mtz_labels(order))


def _arc_mm(inst: RoutingInstance, crew: int, stops: Sequence[NodeId]) -> np.ndarray:
    """Integer millimeters between ``stops`` by index; -1 where unreachable.

    A route costs rate x its millimeters, so for a positive rate the
    millimeters order routes exactly; at rate 0 every reachable arc costs 0.
    """
    ix = [inst.complete.index(s) for s in stops]
    mm = inst.complete.dist_mm[np.ix_(ix, ix)]
    return mm if inst.rate(crew) > 0 else np.minimum(mm, 0)


def _arc_table(inst: RoutingInstance, crew: int,
               stops: Sequence[NodeId]) -> list[list[int | None]]:
    """``_arc_mm`` as Python ints, None where unreachable."""
    return [[None if mm < 0 else mm for mm in row]
            for row in _arc_mm(inst, crew, stops).tolist()]


@functools.lru_cache(maxsize=None)
def _mask_layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per popcount 1..n-1: the masks, each mask with node j's bit set, and
    whether the mask already holds node j (the last two shaped (masks, n))."""
    masks = np.arange(1 << n)
    bits = 1 << np.arange(n)
    popcount = ((masks[:, None] & bits) != 0).sum(axis=1)
    layers = []
    for k in range(1, n):
        layer = masks[popcount == k]
        arrays = (layer, layer[:, None] | bits, (layer[:, None] & bits) != 0)
        for a in arrays:
            a.setflags(write=False)
        layers.append(arrays)
    return tuple(layers)


def _solve_crew_dp(inst: RoutingInstance, crew: int) -> tuple[NodeId, NodeId, tuple[NodeId, ...]]:
    """The optimal (depot_start, depot_end, visit order) under the shared tie-break."""
    nodes = sorted(inst.required[crew], key=node_key)
    n = len(nodes)
    if n > SOLVE_NODE_CAP:
        raise TooManyNodesError(crew, n, SOLVE_NODE_CAP)
    _check_reachability(inst, crew, nodes)
    depots = sorted(inst.depots, key=node_key)
    m = len(depots)
    # float64 sums of millimeters are exact while a route stays below 2**53
    # mm (9e9 km, far beyond any road), so equal sums are exact ties
    mm = _arc_mm(inst, crew, depots + nodes)  # node i is stop m + i
    arcs = np.where(mm < 0, np.inf, mm)
    first, step, home = arcs[:m, m:], arcs[m:, m:], arcs[m:, :m]
    idx = np.arange(n)
    bits = 1 << idx

    # g[mask, last]: the cheapest way on from `last`, having visited `mask`,
    # through every other node and home to the best depot
    g = np.empty((1 << n, n))
    g[-1] = home.min(axis=1)
    for masks, grown, held in reversed(_mask_layers(n)):
        ahead = g[grown, idx]
        ahead[held] = np.inf
        g[masks] = (step[None, :, :] + ahead[:, None, :]).min(axis=2)

    # Forward, take the smallest node that still attains the optimum (argmin
    # returns the first minimum): the lexicographically smallest optimal order.
    start = first.min(axis=0) + g[bits, idx]
    if not np.isfinite(start.min()):
        raise NodeUnreachableError(nodes[0], crew, "no feasible depot-to-depot route")
    path = [int(start.argmin())]
    mask = 1 << path[0]
    for _ in range(n - 1):
        ahead = step[path[-1]] + g[mask | bits, idx]
        ahead[(mask & bits) != 0] = np.inf
        path.append(int(ahead.argmin()))
        mask |= 1 << path[-1]
    d0_rank = int(first[:, path[0]].argmin())
    d1_rank = int(home[path[-1]].argmin())
    return depots[d0_rank], depots[d1_rank], tuple(nodes[i] for i in path)


def _solve_crew_brute(inst: RoutingInstance, crew: int) -> Route:
    nodes = sorted(inst.required[crew], key=node_key)
    n = len(nodes)
    if n > BRUTE_NODE_CAP:
        raise TooManyNodesError(crew, n, BRUTE_NODE_CAP)
    _check_reachability(inst, crew, nodes)
    depots = sorted(inst.depots, key=node_key)
    m = len(depots)
    arcs = _arc_table(inst, crew, depots + nodes)  # node i is stop m + i

    best: tuple[int, tuple[int, ...], int, int] | None = None
    for perm in itertools.permutations(range(n)):
        for d0_rank in range(m):
            cost = arcs[d0_rank][m + perm[0]]
            if cost is None:
                continue
            for a, b in zip(perm, perm[1:]):
                step = arcs[m + a][m + b]
                if step is None:
                    cost = None
                    break
                cost += step
            if cost is None:
                continue
            for d1_rank in range(m):
                home = arcs[m + perm[-1]][d1_rank]
                if home is None:
                    continue
                cand = (cost + home, perm, d0_rank, d1_rank)
                if best is None or cand < best:
                    best = cand
    if best is None:
        raise NodeUnreachableError(nodes[0], crew, "no feasible depot-to-depot route")
    _, perm, d0_rank, d1_rank = best
    order = tuple(nodes[i] for i in perm)
    return _route_from_order(inst, crew, depots[d0_rank], depots[d1_rank], order)


def solve_routing(inst: RoutingInstance, scenario_id: int) -> RoutePlan:
    """Exact optimal route per crew via Held-Karp over subsets (cap 15)."""
    # the arc table, and so the optimal order and depots, depends only on
    # the required set and on whether the rate is positive
    solved: dict[tuple[frozenset[NodeId], bool], tuple[NodeId, NodeId, tuple[NodeId, ...]]] = {}
    routes = {}
    for k in sorted(inst.required):
        if not inst.required[k]:
            continue
        key = (inst.required[k], inst.rate(k) > 0)
        if key not in solved:
            solved[key] = _solve_crew_dp(inst, k)
        routes[k] = _route_from_order(inst, k, *solved[key])
    return RoutePlan(scenario_id, routes)


def brute_force_routing(inst: RoutingInstance, scenario_id: int) -> RoutePlan:
    """Exhaustive oracle over permutations and depot pairs (cap 8)."""
    routes = {
        k: _solve_crew_brute(inst, k)
        for k in sorted(inst.required)
        if inst.required[k]
    }
    return RoutePlan(scenario_id, routes)


# --- validation ----------------------------------------------------------

FAMILIES = ("visit_once", "depot_endpoints", "flow_conservation", "mtz")


@dataclass(frozen=True)
class ValidationReport:
    """Per-family violations; empty everywhere means the plan is valid."""

    violations: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        v = {fam: tuple(self.violations.get(fam, ())) for fam in FAMILIES}
        object.__setattr__(self, "violations", v)

    @property
    def passed(self) -> bool:
        return all(not v for v in self.violations.values())

    def summary(self) -> str:
        lines = []
        for fam in FAMILIES:
            probs = self.violations[fam]
            status = "pass" if not probs else f"FAIL ({len(probs)})"
            lines.append(f"{fam}: {status}")
            lines.extend(f"  - {p}" for p in probs)
        return "\n".join(lines)


def validate_crew_arcs(
    arcs: Sequence[tuple[NodeId, NodeId]],
    crew: int,
    inst: RoutingInstance,
    mtz_labels: Mapping[NodeId, int] | None = None,
) -> dict[str, list[str]]:
    """Check one crew's raw arc set against all four constraint families.

    Accepts arbitrary arc sets (not only paths) so that constructed
    violations such as detached subtours are detectable.
    """
    out: dict[str, list[str]] = {fam: [] for fam in FAMILIES}
    required = inst.required.get(crew, frozenset())
    damaged = inst.damaged
    tag = f"crew {crew}"

    out_deg: dict[NodeId, int] = {}
    in_deg: dict[NodeId, int] = {}
    for u, v in arcs:
        out_deg[u] = out_deg.get(u, 0) + 1
        in_deg[v] = in_deg.get(v, 0) + 1

    # visit once: every required node entered exactly once, nothing extra
    for i in sorted(required, key=node_key):
        if in_deg.get(i, 0) != 1 or out_deg.get(i, 0) != 1:
            out["visit_once"].append(
                f"{tag}: node {i!r} visited {in_deg.get(i, 0)} time(s), expected exactly 1"
            )
    for i in sorted(set(in_deg) | set(out_deg), key=node_key):
        if i in damaged and i not in required:
            out["visit_once"].append(f"{tag}: node {i!r} visited but not required")

    # depot endpoints: net flow leaves one depot and enters one depot
    depot_out = sum(out_deg.get(d, 0) for d in inst.depots)
    depot_in = sum(in_deg.get(d, 0) for d in inst.depots)
    if arcs and (depot_out != 1 or depot_in != 1):
        out["depot_endpoints"].append(
            f"{tag}: expected exactly one departure from and one arrival at a depot, "
            f"got {depot_out} departure(s), {depot_in} arrival(s)"
        )

    # flow conservation at damaged nodes
    for i in sorted(damaged, key=node_key):
        if in_deg.get(i, 0) != out_deg.get(i, 0):
            out["flow_conservation"].append(
                f"{tag}: node {i!r} has in-degree {in_deg.get(i, 0)} != out-degree {out_deg.get(i, 0)}"
            )

    # MTZ: labels must certify u_i - u_j + |N| <= |N| - 1 on damaged arcs
    n_damaged = len(damaged)
    damaged_arcs = [(u, v) for u, v in arcs if u in damaged and v in damaged]
    if mtz_labels is not None:
        for u, v in damaged_arcs:
            lu, lv = mtz_labels.get(u), mtz_labels.get(v)
            if lu is None or lv is None:
                out["mtz"].append(f"{tag}: arc {u!r} -> {v!r} lacks ordering labels")
            elif lu - lv + n_damaged > n_damaged - 1:
                out["mtz"].append(
                    f"{tag}: arc {u!r} -> {v!r} violates ordering: u[{u!r}]={lu}, u[{v!r}]={lv}"
                )
        for i, lab in mtz_labels.items():
            if lab < 0:
                out["mtz"].append(f"{tag}: label u[{i!r}]={lab} is negative")
    else:
        # no labels supplied: valid labels exist iff the damaged-arc graph is acyclic
        succ: dict[NodeId, list[NodeId]] = {}
        for u, v in damaged_arcs:
            succ.setdefault(u, []).append(v)
        state: dict[NodeId, int] = {}

        def has_cycle(start: NodeId) -> bool:
            stack = [(start, iter(succ.get(start, ())))]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                found = False
                for nxt in it:
                    if state.get(nxt, 0) == 1:
                        return True
                    if state.get(nxt, 0) == 0:
                        state[nxt] = 1
                        stack.append((nxt, iter(succ.get(nxt, ()))))
                        found = True
                        break
                if not found:
                    state[node] = 2
                    stack.pop()
            return False

        for start in sorted(succ, key=node_key):
            if state.get(start, 0) == 0 and has_cycle(start):
                out["mtz"].append(f"{tag}: damaged-node arcs contain a cycle; no valid ordering labels exist")
                break
    return out


def validate_routes(plan: RoutePlan, inst: RoutingInstance) -> ValidationReport:
    """Check a plan against the four routing constraint families.

    Never raises; every problem lands in the report.
    """
    merged: dict[str, list[str]] = {fam: [] for fam in FAMILIES}
    for k in sorted(inst.required):
        required = inst.required[k]
        route = plan.routes.get(k)
        if route is None:
            if required:
                merged["visit_once"].append(
                    f"crew {k}: no route although {len(required)} node(s) require it"
                )
            continue
        if not required:
            merged["visit_once"].append(f"crew {k}: route present but nothing requires it")
        if route.depot_start not in inst.depots:
            merged["depot_endpoints"].append(
                f"crew {k}: start {route.depot_start!r} is not a depot"
            )
        if route.depot_end not in inst.depots:
            merged["depot_endpoints"].append(
                f"crew {k}: end {route.depot_end!r} is not a depot"
            )
        crew_report = validate_crew_arcs(route.arcs(), k, inst, route.mtz_labels)
        # labels must also strictly increase along the visit order
        order = route.visit_order
        for a, b in zip(order, order[1:]):
            la, lb = route.mtz_labels.get(a), route.mtz_labels.get(b)
            if la is None or lb is None or not la < lb:
                crew_report["mtz"].append(
                    f"crew {k}: labels not strictly increasing at {a!r} -> {b!r}"
                )
        for fam in FAMILIES:
            merged[fam].extend(crew_report[fam])
    for k in sorted(plan.routes):
        if k not in inst.required:
            merged["visit_once"].append(f"crew {k}: route present for unknown crew")
    return ValidationReport({fam: tuple(v) for fam, v in merged.items()})
