"""First-stage crew capacity and assignment optimization.

The program picks integer capacities x_k per crew type and per-scenario
assignments y[s, i, k] minimizing

    scale_c * sum_k cost_k * x_k
        - (1/|S|) * (pw * sum P_i * y[s,i,k] - tw * sum T[s,i,k] * y[s,i,k])

subject to coverage (sum_i y[s,i,k] <= x_k) and demand (y >= D). The model
is bounded only when every extra unit of capacity costs more than the best
slack it could buy; ``marginal_gain`` quantifies that and ``solve_stage1``
refuses unbounded instances up front instead of silently capping y.

In the bounded regime the exact optimum has a closed form: x_k is the
worst-case demand column sum, y equals demand plus any leftover capacity
placed on the node with the best (pw*P - tw*T) margin when that margin is
positive. ``Stage1Instance`` derives that margin once, as one
``(scenario, node, crew)`` array over the scenario set's dense view, and
``marginal_gain`` and ``solve_stage1`` are a few array operations on it.
``enumerate_stage1`` is the independent oracle: it sweeps each capacity
over a box around the feasibility bound and evaluates the inner assignment
greedily from the scenarios' dicts, with no reliance on the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyScenarioSetError,
    NumericOverflowError,
    UnboundedObjectiveError,
)
from .network import NodeId, is_int, node_key, require_finite
from .scenario import N_CREWS, ScenarioSet


@dataclass(frozen=True)
class Stage1Instance:
    """Scenario data, restoration loads, crew costs, and the scale factor.

    ``margin[s, n, k]`` is pw*P - tw*T for crew k at the scenario set's node
    ``nodes[n]`` in scenario s: what one unit of slack placed there gains.
    """

    scenarios: ScenarioSet
    loads_kw: Mapping[NodeId, float]
    crew_costs: tuple[float, ...]
    scale_c: float
    power_weight: float = 1.0
    time_weight: float = 1.0
    margin: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "loads_kw", dict(self.loads_kw))
        object.__setattr__(self, "crew_costs",
                           tuple(require_finite(c, "crew cost") for c in self.crew_costs))
        for name in ("power_weight", "time_weight"):
            require_finite(getattr(self, name), name)
        if require_finite(self.scale_c, "scale_c") <= 0:
            raise ValueError("scale_c must be > 0")
        if len(self.crew_costs) != N_CREWS:
            raise DimensionMismatchError(
                f"expected {N_CREWS} crew costs, got {len(self.crew_costs)}"
            )
        if any(c <= 0 for c in self.crew_costs):
            raise ValueError("crew costs must be > 0")
        nodes = self.scenarios.nodes
        missing = [i for i in nodes if i not in self.loads_kw]
        if missing:
            raise DimensionMismatchError(f"loads_kw missing damaged node(s): {missing!r}")
        loads = np.array([require_finite(self.loads_kw[i], f"loads_kw[{i!r}]") for i in nodes])
        margin = (self.power_weight * loads[None, :, None]
                  - self.time_weight * self.scenarios.repair_times)
        margin.setflags(write=False)
        object.__setattr__(self, "margin", margin)

    @classmethod
    def from_scenarios(
        cls,
        scenarios: ScenarioSet,
        loads_kw: Mapping[NodeId, float] | None = None,
        crew_costs: Sequence[float] | None = None,
        scale_c: float | None = None,
        power_weight: float = 1.0,
        time_weight: float = 1.0,
    ) -> "Stage1Instance":
        """Assemble an instance, defaulting loads/costs from the scenario set
        and scale_c from the boundedness rule."""
        if loads_kw is None:
            loads_kw = scenarios.loads_kw or {}
        if crew_costs is None:
            crew_costs = tuple(c.hourly_cost_per_person for c in scenarios.crews)
        inst = cls(scenarios, loads_kw, crew_costs, 1.0 if scale_c is None else scale_c,
                   power_weight, time_weight)
        if scale_c is None:
            inst = replace(inst, scale_c=default_scale_c(marginal_gain(inst), inst.crew_costs))
        return inst


@dataclass(frozen=True)
class CrewAllocation:
    """Stage-1 decision: integer capacity per crew plus the assignment table."""

    capacity: tuple[int, ...]
    assignment: Mapping[tuple[int, NodeId, int], float]
    objective_value: float

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))


def _iter_keys(scenarios: ScenarioSet):
    for s in range(scenarios.n_scenarios):
        for i in scenarios.nodes:
            for k in range(N_CREWS):
                yield s, i, k


def stage1_objective(alloc: CrewAllocation, inst: Stage1Instance) -> float:
    """Evaluate the first-stage objective for an arbitrary allocation."""
    scen = inst.scenarios
    if len(alloc.capacity) != N_CREWS:
        raise DimensionMismatchError(
            f"capacity has {len(alloc.capacity)} entries, expected {N_CREWS}"
        )
    valid = set(_iter_keys(scen))
    extra = set(alloc.assignment) - valid
    if extra:
        shown = sorted(extra, key=lambda t: (t[0], node_key(t[1]), t[2]))[:5]
        raise DimensionMismatchError(f"assignment keys outside the instance: {shown!r}")

    cost_term = inst.scale_c * sum(
        inst.crew_costs[k] * alloc.capacity[k] for k in range(N_CREWS)
    )
    if scen.n_scenarios == 0:
        return cost_term
    restored = 0.0
    repair_time = 0.0
    for s, i, k in _iter_keys(scen):
        y = alloc.assignment.get((s, i, k), 0.0)
        if y:
            restored += inst.loads_kw[i] * y
            repair_time += scen.scenarios[s].repair_time_h[(i, k)] * y
    return cost_term - (inst.power_weight * restored - inst.time_weight * repair_time) / scen.n_scenarios


def marginal_gain(inst: Stage1Instance) -> dict[int, float]:
    """Objective improvement per extra unit of capacity, by crew.

    g_k = (1/|S|) * sum_s max(0, max_i (pw*P_i - tw*T[s,i,k])): one more
    crew member buys one more unit of slack y in every scenario, optimally
    placed on the most profitable node. Scenarios are added left to right.
    """
    n = inst.scenarios.n_scenarios
    if n == 0:
        return {k: 0.0 for k in range(N_CREWS)}
    best = np.where(inst.margin > 0.0, inst.margin, 0.0).max(axis=1, initial=0.0)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        # cumsum adds in order; a 1-D sum would pair terms and round differently
        gains = (np.cumsum(best, axis=0)[-1] / n).tolist()
    _require_finite("marginal gain", gains)
    return dict(enumerate(gains))


def default_scale_c(gains: Mapping[int, float], crew_costs: Sequence[float]) -> float:
    """Smallest power of 10 strictly exceeding max_k g_k / min_k cost_k.

    Returns 1.0 when every gain is zero (any positive scale is bounded).
    """
    ratio = max(gains.values()) / min(crew_costs)
    if ratio <= 0.0:
        return 1.0
    try:
        c = 10.0 ** (math.floor(math.log10(ratio)) + 1)
    except OverflowError:  # the ratio, or its power of 10, is past float64
        raise NumericOverflowError("default scale_c") from None
    while c <= ratio:  # guard against log10 rounding at exact powers
        c *= 10.0
    return c


def _require_finite(what: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise NumericOverflowError(what)


def _check_bounded(inst: Stage1Instance, gains: Mapping[int, float]) -> None:
    min_c = max(gains[k] / inst.crew_costs[k] for k in range(N_CREWS))
    for k in range(N_CREWS):
        weighted = inst.scale_c * inst.crew_costs[k]
        if weighted <= gains[k]:
            raise UnboundedObjectiveError(k, gains[k], weighted, min_c)


def solve_stage1(inst: Stage1Instance) -> CrewAllocation:
    """Exact optimum of the bounded first-stage program.

    Raises UnboundedObjectiveError when some crew's slack pays for itself
    (reporting the minimum admissible scale_c), EmptyScenarioSetError when
    there are no scenarios.
    """
    scen = inst.scenarios
    if scen.n_scenarios == 0:
        raise EmptyScenarioSetError("cannot allocate crews over zero scenarios")
    if not scen.damaged:
        return CrewAllocation((0,) * N_CREWS, {}, 0.0)

    gains = marginal_gain(inst)
    _require_finite("scale_c * crew cost", [inst.scale_c * c for c in inst.crew_costs])
    _check_bounded(inst, gains)

    sums = scen.repair_demands.sum(axis=1)  # (scenario, crew)
    capacity = sums.max(axis=0)
    # leftover capacity goes to the first node of best margin, if that margin pays
    s_idx, k_idx = np.nonzero((sums < capacity) & (inst.margin.max(axis=1) > 0.0))
    y = scen.repair_demands.astype(np.float64)
    y[s_idx, inst.margin.argmax(axis=1)[s_idx, k_idx], k_idx] += (capacity - sums)[s_idx, k_idx]

    capacity = tuple(capacity.tolist())
    assignment = dict(zip(_iter_keys(scen), y.ravel().tolist()))
    alloc = CrewAllocation(capacity, assignment, 0.0)
    obj = stage1_objective(alloc, inst)
    _require_finite("objective", [obj])
    alloc = CrewAllocation(capacity, assignment, obj)
    violations = verify_allocation(alloc, inst)
    if violations:  # pragma: no cover - solver postcondition
        raise AssertionError(f"solver produced infeasible allocation: {violations[:3]}")
    return alloc


def enumerate_stage1(inst: Stage1Instance, extra_capacity: int = 10) -> CrewAllocation:
    """Oracle: sweep each crew capacity over [0, worst-case demand + extra].

    Infeasible capacities are skipped rather than assumed away; the inner
    assignment is built greedily per candidate and the objective evaluated
    from scratch. Ties break toward the smaller capacity, which makes the
    overall x vector lexicographically smallest among optima.
    """
    scen = inst.scenarios
    if scen.n_scenarios == 0:
        raise EmptyScenarioSetError("cannot allocate crews over zero scenarios")
    if not scen.damaged:
        return CrewAllocation((0,) * N_CREWS, {}, 0.0)

    gains = marginal_gain(inst)
    _check_bounded(inst, gains)

    nodes = scen.nodes
    sums = [[sum(sc.repair_demand[(i, k)] for i in nodes) for k in range(N_CREWS)]
            for sc in scen.scenarios]
    n_s = scen.n_scenarios

    capacity: list[int] = []
    assignment: dict[tuple[int, NodeId, int], float] = {}
    for k in range(N_CREWS):
        lb = max(sums[s][k] for s in range(n_s))
        best_xk = None
        best_value = math.inf
        best_y: dict[tuple[int, NodeId, int], float] = {}
        for xk in range(0, lb + extra_capacity + 1):
            if any(sums[s][k] > xk for s in range(n_s)):
                continue
            y: dict[tuple[int, NodeId, int], float] = {}
            value = inst.scale_c * inst.crew_costs[k] * xk
            for s in range(n_s):
                sc = scen.scenarios[s]
                margins = {
                    i: inst.power_weight * inst.loads_kw[i]
                    - inst.time_weight * sc.repair_time_h[(i, k)]
                    for i in nodes
                }
                for i in nodes:
                    y[(s, i, k)] = float(sc.repair_demand[(i, k)])
                slack = xk - sums[s][k]
                if slack > 0:
                    top = max(margins.values())
                    if top > 0:
                        pick = min((i for i in nodes if margins[i] == top), key=node_key)
                        y[(s, pick, k)] += float(slack)
                for i in nodes:
                    value -= margins[i] * y[(s, i, k)] / n_s
            if value < best_value:
                best_value = value
                best_xk = xk
                best_y = y
        assert best_xk is not None
        capacity.append(best_xk)
        assignment.update(best_y)

    alloc = CrewAllocation(tuple(capacity), assignment, 0.0)
    return CrewAllocation(tuple(capacity), assignment, stage1_objective(alloc, inst))


def verify_allocation(alloc: CrewAllocation, inst: Stage1Instance) -> tuple[str, ...]:
    """Mechanical feasibility check; returns human-readable violations."""
    scen = inst.scenarios
    problems: list[str] = []
    for k, xk in enumerate(alloc.capacity):
        if not (is_int(xk) and xk >= 0):
            problems.append(f"capacity[{k}] = {xk!r} is not a non-negative integer")
    for s in range(scen.n_scenarios):
        sc = scen.scenarios[s]
        for k in range(N_CREWS):
            total = 0.0
            for i in scen.nodes:
                y = alloc.assignment.get((s, i, k), 0.0)
                total += y
                if y < sc.repair_demand[(i, k)]:
                    problems.append(
                        f"demand violated at (s={s}, i={i!r}, k={k}): "
                        f"y={y} < D={sc.repair_demand[(i, k)]}"
                    )
                if y < 0:
                    problems.append(f"negative assignment at (s={s}, i={i!r}, k={k})")
            if total > alloc.capacity[k] + 1e-9:
                problems.append(
                    f"coverage violated at (s={s}, k={k}): sum y = {total} > x = {alloc.capacity[k]}"
                )
    return tuple(problems)
