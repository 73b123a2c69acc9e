"""Per-scenario, per-crew exact routing over the reduced complete graph.

Each crew with outstanding demand gets one depot-to-depot path visiting its
required nodes exactly once. ``brute_force_routing`` enumerates every
permutation and depot pair. ``solve_routing`` runs a Held-Karp dynamic
program over node subsets: a numpy backward pass fills the cost-to-go
``g[mask, last]`` (finish every node outside ``mask`` from ``last``, then go
home to the best depot) one popcount layer at a time, and a forward pass in
plain Python rebuilds the route greedily, taking at each step the smallest
node that still attains the optimum. Both solvers share one tie-break rule,
so their output is bit-identical: minimum cost, then lexicographically
smallest visit order, then smallest (depot_start, depot_end).

Both solvers optimize integer millimeters x the crew's rate, so equal costs
are exact ties, and the optimal order and depots depend only on the required
set and on whether the rate is positive: the crew's problem. ``solve_routing``
therefore solves each distinct problem once, and keeps its result and each
crew's Route on the closure it was solved over, for every later call over it;
the first call can solve the later calls' problems (``ahead``) too. One table
over the union of several required sets answers each of them (``_HeldKarp``),
so a closure's problems cost one table per rate flag wherever that table is no
larger than theirs together.
Reported leg costs and totals are each crew's own float arc costs summed left
to right, and a cost that leaves the float64 range raises
``NumericOverflowError``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

from .errors import (
    NodeUnreachableError,
    NumericOverflowError,
    TooManyNodesError,
    UnreachableArcError,
)
from .network import (
    CompleteGraph,
    NodeId,
    is_finite_number,
    is_int,
    is_number,
    node_key,
    require_node_ids,
)
from .scenario import N_CREWS, Scenario

SOLVE_NODE_CAP = 16
BRUTE_NODE_CAP = 8

# what a stage-2 NumericOverflowError asks the user to scale down
_OVERFLOW_INPUTS = "cost_rate_per_m"

# A crew's routing problem: its required set and whether its rate is positive
Problem = tuple[frozenset[NodeId], bool]
# problem -> the optimal (depot_start, depot_end, visit order)
Solved = dict[Problem, tuple[NodeId, NodeId, tuple[NodeId, ...]]]


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
        if not all(map(is_finite_number, self.cost_rate_per_m.values())):
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
        required: Mapping[int, frozenset[NodeId]] | None = None,
    ) -> "RoutingInstance":
        """Required sets are the nodes with positive demand per crew: pass
        ``required`` when ``scenario.required()`` is already at hand."""
        damaged = frozenset(i for (i, _k) in scenario.repair_demand)
        return cls(
            complete=complete,
            required=scenario.required() if required is None else required,
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


def _finite(value) -> str:
    """``"finite "`` for a number, so a message asks for what ``value`` lacks."""
    return "finite " if is_number(value) else ""


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
        require_node_ids(self.stops(), "crew {}: stop", self.crew)
        require_node_ids(self.mtz_labels, "crew {}: mtz_labels node", self.crew)
        for i, cost in enumerate(self.leg_costs):
            if not is_finite_number(cost):
                raise ValueError(f"crew {self.crew}: leg_costs[{i}] must be a "
                                 f"{_finite(cost)}number, got {cost!r}")
        if not is_finite_number(self.total_cost):
            raise ValueError(f"crew {self.crew}: total_cost must be a "
                             f"{_finite(self.total_cost)}number, got {self.total_cost!r}")
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
    """Mean total travel cost across scenario plans; a NumericOverflowError when the
    finite totals sum past float64."""
    if not plans:
        return 0.0
    mean = sum(p.total_cost for p in plans) / len(plans)
    if not math.isfinite(mean):
        raise NumericOverflowError("stage 2: expected route cost", _OVERFLOW_INPUTS)
    return mean


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


def _unreachable(inst: RoutingInstance, nodes: Sequence[NodeId]) -> tuple[NodeId, str] | None:
    """The first of ``nodes`` that no single route from a depot can visit, and
    why; None when they share a component that contains a depot."""
    depots = sorted(inst.depots, key=node_key)
    for i in nodes:
        if not any(inst.complete.is_reachable(d, i) for d in depots):
            return i, "no depot can reach it"
    rep = nodes[0]
    for i in nodes[1:]:
        if not inst.complete.is_reachable(rep, i):
            return i, f"disconnected from required node {rep!r}; no single route exists"
    return None


def _check_reachability(inst: RoutingInstance, crew: int, nodes: Sequence[NodeId]) -> None:
    """Required nodes must share a component that contains a depot."""
    refused = _unreachable(inst, nodes)
    if refused is not None:
        node, reason = refused
        raise NodeUnreachableError(node, crew, reason)


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
    # each leg costs its meters x the rate, as arc_cost has it: consecutive stops
    # never coincide, since the order holds no depot and no node twice
    leg_m = tuple(map(inst.complete.dist_m, stops, stops[1:]))
    rate = inst.rate(crew)
    legs = tuple(meters * rate for meters in leg_m)
    total = 0.0
    for c in legs:
        total += c
    # legs are >= 0, so the total is finite only if every leg is
    if not math.isfinite(total):
        raise NumericOverflowError(f"stage 2: crew {crew}: route cost", _OVERFLOW_INPUTS)
    return Route(crew, d0, d1, order, legs, leg_m, total, _mtz_labels(order))


def _arc_mm(inst: RoutingInstance, positive: bool, stops: Sequence[NodeId]) -> np.ndarray:
    """Integer millimeters between ``stops`` by index; -1 where unreachable.

    A route costs rate x its millimeters, so for a ``positive`` rate the
    millimeters order routes exactly; at rate 0 every reachable arc costs 0.
    """
    ix = [inst.complete.index(s) for s in stops]
    mm = inst.complete.dist_mm[np.ix_(ix, ix)]
    return mm if positive else np.minimum(mm, 0)


def _arc_table(inst: RoutingInstance, crew: int,
               stops: Sequence[NodeId]) -> list[list[int | None]]:
    """``_arc_mm`` of the crew's rate as Python ints, None where unreachable."""
    return [[None if mm < 0 else mm for mm in row]
            for row in _arc_mm(inst, inst.rate(crew) > 0, stops).tolist()]


class _HeldKarp:
    """The Held-Karp cost-to-go over a node set, which answers any subset of it.

    ``g[mask, last]`` is the cheapest way on from ``last``, having visited
    ``mask``, through every other node and home to the best depot. A subset S
    is answered by starting with ``mask`` holding the nodes outside S: the
    entries it reads are the ones a table over S alone would hold, bit for bit.
    """

    def __init__(self, inst: RoutingInstance, positive: bool, nodes: Sequence[NodeId]):
        self.depots = sorted(inst.depots, key=node_key)
        self.nodes = nodes = sorted(nodes, key=node_key)
        m, n = len(self.depots), len(nodes)
        # float64 sums of millimeters are exact while a route stays below 2**53
        # mm (9e9 km, far beyond any road), so equal sums are exact ties
        mm = _arc_mm(inst, positive, self.depots + nodes)  # node i is stop m + i
        arcs = np.where(mm < 0, np.inf, mm)
        first, step, home = arcs[:m, m:], arcs[m:, m:], arcs[m:, :m]
        # g starts as inf, and each layer is written only once it is complete: a
        # next node j already in mask reads g[mask, j], a row of the layer being
        # built, so a held node is never taken again
        g = np.full((1 << n, n), np.inf)
        g[-1] = home.min(axis=1)
        popcount = np.zeros(1, np.uint8)  # by mask: masks 2**i..2**(i+1)-1 add bit i
        for _ in range(n):
            popcount = np.concatenate((popcount, popcount + 1))
        for k in range(n - 1, 0, -1):
            masks = np.flatnonzero(popcount == k)
            # g[mask, last] is the minimum over j of step[last, j] + g[mask | 1 << j, j],
            # kept as a running minimum over j: no (masks, last, next) block
            best = step[:, :1] + g[masks | 1, 0]
            for j in range(1, n):
                np.minimum(best, step[:, j, None] + g[masks | 1 << j, j], out=best)
            g[masks] = best.T
        self.g = g
        self.position = {node: i for i, node in enumerate(nodes)}
        # by node: the arcs out of each depot, the arcs to each node, the arcs home
        self.first, self.step, self.home = first.T.tolist(), step.tolist(), home.tolist()
        self.first_min = first.min(axis=0).tolist()

    def order(self, required: frozenset[NodeId]
              ) -> tuple[NodeId, NodeId, tuple[NodeId, ...]] | None:
        """The optimal (depot_start, depot_end, visit order) through ``required``
        under the shared tie-break. None when ``_check_reachability`` refuses
        ``required`` (read from the same arcs: inf where unreachable), or when
        no depot-to-depot route exists.

        Forward, take the smallest node that still attains the optimum (a
        strict ``<`` keeps the first minimum, as numpy's argmin does): the
        lexicographically smallest optimal order.
        """
        g, step, first_min = self.g, self.step, self.first_min
        todo = sorted(self.position[i] for i in required)
        rep = step[todo[0]]
        if not all(first_min[j] < math.inf and rep[j] < math.inf for j in todo):
            return None
        mask = len(g) - 1
        for j in todo:
            mask ^= 1 << j
        path = []
        costs = first_min  # from the best depot
        for _ in todo:
            best, pick = math.inf, -1
            for j in todo:
                if not mask >> j & 1:
                    cost = costs[j] + g.item(mask | 1 << j, j)
                    if cost < best:
                        best, pick = cost, j
            if pick < 0:  # only the first step can find no finite cost
                return None
            path.append(pick)
            mask |= 1 << pick
            costs = step[pick]
        first, home = self.first[path[0]], self.home[path[-1]]
        d0 = min(range(len(first)), key=first.__getitem__)
        d1 = min(range(len(home)), key=home.__getitem__)
        return self.depots[d0], self.depots[d1], tuple(self.nodes[i] for i in path)


def _states(n: int) -> int:
    """The size of a Held-Karp table over n nodes: 2**n masks x n last nodes."""
    return n << n


def _solve_problems(inst: RoutingInstance, problems: Iterable[Problem]) -> Solved:
    """The Held-Karp answers to ``problems``, from as few tables as pays.

    Per rate flag, one table over the union D of the problems' sets answers
    them all when D is within ``SOLVE_NODE_CAP`` and its table is no larger
    than their own tables together; otherwise each set gets its own table. A
    set over the cap, or one that ``_check_reachability`` refuses, is left
    out of the union and gets no table: solving it for its own crew raises.
    Each table is dropped on return.
    """
    solved: Solved = {}
    connected = inst.complete.reachable.all()  # then no set is refused
    for positive in (True, False):
        sets = [nodes for nodes, pos in problems
                if pos == positive and len(nodes) <= SOLVE_NODE_CAP
                and (connected or _unreachable(inst, sorted(nodes, key=node_key)) is None)]
        if not sets:
            continue
        union = frozenset().union(*sets)
        if (len(union) <= SOLVE_NODE_CAP
                and _states(len(union)) <= sum(_states(len(s)) for s in sets)):
            groups = [(union, sets)]
        else:
            groups = [(nodes, [nodes]) for nodes in sets]
        for domain, members in groups:
            table = _HeldKarp(inst, positive, domain)
            for nodes in members:
                answer = table.order(nodes)
                if answer is not None:
                    solved[nodes, positive] = answer
    return solved


def _refuse(inst: RoutingInstance, crew: int) -> NoReturn:
    """Raise for a crew whose problem ``_solve_problems`` left unanswered: its set
    is over the cap, ``_check_reachability`` refuses it, or, as its own table
    would find, no depot-to-depot route exists."""
    nodes = sorted(inst.required[crew], key=node_key)
    n = len(nodes)
    if n > SOLVE_NODE_CAP:
        raise TooManyNodesError(crew, n, SOLVE_NODE_CAP)
    _check_reachability(inst, crew, nodes)
    raise NodeUnreachableError(nodes[0], crew, "no feasible depot-to-depot route")


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


def crew_problems(required: Mapping[int, frozenset[NodeId]],
                  rates: Mapping[int, float]) -> dict[int, Problem]:
    """Each crew's problem, in crew order, for the crews with a non-empty required
    set; a crew missing from ``rates`` has rate 1 (``RoutingInstance.rate``)."""
    return {k: (required[k], rates.get(k, 1.0) > 0) for k in sorted(required) if required[k]}


def solve_routing(inst: RoutingInstance, scenario_id: int, *,
                  ahead: Iterable[Problem] = ()) -> RoutePlan:
    """Exact optimal route per crew via Held-Karp over subsets (at most
    ``SOLVE_NODE_CAP`` required nodes per crew).

    Each problem's optimal order and depots are kept on ``inst.complete`` by
    (depots, problem), for every later call over that closure: a caller that
    keeps a closure solves each distinct problem once. ``ahead`` names problems
    that later calls over it with these depots will pose: they are solved now,
    from the same tables as this scenario's own.
    """
    orders, depots = inst.complete._orders, inst.depots
    problems = crew_problems(inst.required, inst.cost_rate_per_m)
    pending = [p for p in dict.fromkeys([*problems.values(), *ahead]) if (depots, p) not in orders]
    if pending:
        orders.update(((depots, p), answer) for p, answer in _solve_problems(inst, pending).items())
    plan_routes = {}
    for k, problem in problems.items():
        if (depots, problem) not in orders:  # over the cap or unreachable
            _refuse(inst, k)
        plan_routes[k] = _route_from_order(inst, k, *orders[depots, problem])
    plan = RoutePlan(scenario_id, plan_routes)
    if not math.isfinite(plan.total_cost):
        raise NumericOverflowError(f"stage 2: scenario {scenario_id}: route cost",
                                   _OVERFLOW_INPUTS)
    return plan


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


# what validate_routes found on one route: (family, line) pairs in the order found
Findings = tuple[tuple[str, str], ...]


def validate_routes(plan: RoutePlan, inst: RoutingInstance, *,
                    checked: dict[tuple, Findings] | None = None) -> ValidationReport:
    """Check a plan against the four routing constraint families.

    One pass over each crew's stops: a stop's arrivals are counted over
    ``stops[1:]`` and its departures over ``stops[:-1]``. A stop that is
    neither a required node nor a depot is a ``visit_once`` violation.
    Never raises; every problem lands in the report.

    ``checked`` keeps what was found on each route by all it depends on: the
    crew, its required set, the depots, and the route's stops and labels. It
    keeps only routes whose every stop is required or a depot. Such a route
    meets no other damaged node, so the rest of the damaged set cannot change
    what is found, and one map may serve any calls.
    """
    if checked is None:
        checked = {}
    out: dict[str, list[str]] = {fam: [] for fam in FAMILIES}
    depots, damaged = inst.depots, inst.damaged
    for k in sorted(inst.required):
        required = inst.required[k]
        route = plan.routes.get(k)
        if route is None:
            if required:
                out["visit_once"].append(
                    f"crew {k}: no route although {len(required)} node(s) require it")
            continue
        stops = route.stops()
        key = (k, required, depots, stops, tuple(route.mtz_labels.items()))
        found = checked.get(key)
        if found is None:
            found = _route_findings(k, required, depots, damaged, route, stops)
            if depots.union(required).issuperset(stops):
                checked[key] = found
        for fam, line in found:
            out[fam].append(line)
    for k in sorted(plan.routes):
        if k not in inst.required:
            out["visit_once"].append(f"crew {k}: route present for unknown crew")
    return ValidationReport({fam: tuple(v) for fam, v in out.items()})


def _route_findings(k: int, required: frozenset[NodeId], depots: frozenset[NodeId],
                    damaged: frozenset[NodeId], route: Route,
                    stops: tuple[NodeId, ...]) -> Findings:
    """The violations of crew ``k``'s ``route``, whose stops are ``stops``."""
    found: list[tuple[str, str]] = []
    tag = f"crew {k}"
    if not required:
        found.append(("visit_once", f"{tag}: route present but nothing requires it"))
    arrivals, departures = Counter(stops[1:]), Counter(stops[:-1])

    for i in sorted(required, key=node_key):
        if arrivals[i] != 1 or departures[i] != 1:
            found.append(("visit_once", f"{tag}: node {i!r} visited {arrivals[i]} time(s), "
                                        "expected exactly 1"))
    for i in sorted(set(stops) - required - depots, key=node_key):
        found.append(("visit_once", f"{tag}: node {i!r} visited but not required"))

    for end, node in (("start", stops[0]), ("end", stops[-1])):
        if node not in depots:
            found.append(("depot_endpoints", f"{tag}: {end} {node!r} is not a depot"))
    depot_out = sum(n for i, n in departures.items() if i in depots)
    depot_in = sum(n for i, n in arrivals.items() if i in depots)
    if depot_out != 1 or depot_in != 1:
        found.append(("depot_endpoints",
                      f"{tag}: expected exactly one departure from and one arrival at a "
                      f"depot, got {depot_out} departure(s), {depot_in} arrival(s)"))

    # on a path only the two endpoints can enter and leave unequally often
    for i in sorted({stops[0], stops[-1]} & damaged, key=node_key):
        if arrivals[i] != departures[i]:
            found.append(("flow_conservation", f"{tag}: node {i!r} has in-degree "
                                               f"{arrivals[i]} != out-degree {departures[i]}"))

    # MTZ, u_i - u_j + |N| <= |N| - 1 on each arc between damaged nodes: with integer
    # labels, u_i < u_j
    labels = route.mtz_labels
    for u, v in zip(stops, stops[1:]):
        if u in damaged and v in damaged:
            lu, lv = labels.get(u), labels.get(v)
            if lu is None or lv is None:
                found.append(("mtz", f"{tag}: arc {u!r} -> {v!r} lacks ordering labels"))
            elif lu >= lv:
                found.append(("mtz", f"{tag}: arc {u!r} -> {v!r} violates ordering: "
                                     f"u[{u!r}]={lu}, u[{v!r}]={lv}"))
    found.extend(("mtz", f"{tag}: label u[{i!r}]={lab} is negative")
                 for i, lab in labels.items() if lab < 0)
    order = route.visit_order
    for a, b in zip(order, order[1:]):
        la, lb = labels.get(a), labels.get(b)
        if la is None or lb is None or not la < lb:
            found.append(("mtz", f"{tag}: labels not strictly increasing at {a!r} -> {b!r}"))
    return tuple(found)
