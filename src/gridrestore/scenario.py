"""Scenario generation: repair times, repair demands, and road failures.

Every random quantity flows through a per-scenario substream derived from
(seed, scenario_id), so a scenario set regenerates bit-exactly from its
seed and scenarios can be produced in any order, or concurrently, without
changing the result.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidRangeError, NoDamagedNodesError
from .geo import point_segment_distance_m
from .network import (
    CoupledNetwork,
    NodeId,
    edge_key,
    is_int,
    is_number,
    node_key,
    require_finite,
)

# Lognormal repair-time parameters and the sampling clamp window (hours).
REPAIR_TIME_MU = -0.3072
REPAIR_TIME_SIGMA = 1.8404
REPAIR_TIME_MIN_H = 0.5
REPAIR_TIME_MAX_H = 12.0

# Demand sampling window (persons), sized to span realistic crew calls.
DEMAND_LO = 5
DEMAND_HI = 19
# Largest demand a scenario accepts, so that demand sums stay exact in int64.
MAX_REPAIR_DEMAND = 2**31 - 1

CREW_NAMES = ("initial_inspection", "tree", "line", "final_inspection")
# Hourly cost per person: inspections are specialized technicians, tree and
# line crews are field labor (midpoints of typical regional rate ranges).
DEFAULT_HOURLY_COSTS = (200.0, 65.0, 75.0, 200.0)
N_CREWS = 4


@dataclass(frozen=True)
class CrewType:
    """One of the four sequential crew specializations."""

    index: int
    name: str
    hourly_cost_per_person: float

    def __post_init__(self):
        if not (is_int(self.index) and 0 <= self.index < N_CREWS):
            raise ValueError(f"crew index must be in 0..{N_CREWS - 1}, got {self.index}")
        if self.name != CREW_NAMES[self.index]:
            raise ValueError(
                f"crew {self.index} must be named {CREW_NAMES[self.index]!r}, got {self.name!r}"
            )
        cost = require_finite(self.hourly_cost_per_person, "hourly_cost_per_person")
        if cost <= 0:
            raise ValueError("hourly_cost_per_person must be > 0")
        object.__setattr__(self, "hourly_cost_per_person", cost)


def default_crews(hourly_costs: Sequence[float] | None = None) -> tuple[CrewType, ...]:
    """The fixed 4-crew taxonomy, optionally with custom hourly costs."""
    costs = tuple(hourly_costs) if hourly_costs is not None else DEFAULT_HOURLY_COSTS
    if len(costs) != N_CREWS:
        raise ValueError(f"expected {N_CREWS} crew costs, got {len(costs)}")
    return tuple(CrewType(k, CREW_NAMES[k], costs[k]) for k in range(N_CREWS))


@dataclass(frozen=True)
class TornadoEvent:
    """A tornado track: EF rating, path endpoints in degrees, corridor width."""

    ef_rating: int
    path_start: tuple[float, float]
    path_end: tuple[float, float]
    corridor_width_m: float

    def __post_init__(self):
        if not (is_int(self.ef_rating) and 0 <= self.ef_rating <= 5):
            raise ValueError(f"ef_rating must be in 0..5, got {self.ef_rating}")
        for name in ("path_start", "path_end"):
            for x in getattr(self, name):
                require_finite(x, name)
        if require_finite(self.corridor_width_m, "corridor_width_m") <= 0:
            raise ValueError("corridor_width_m must be > 0")


@dataclass(frozen=True)
class Scenario:
    """One realization: per-(node, crew) hours and persons, failed road edges."""

    scenario_id: int
    repair_time_h: Mapping[tuple[NodeId, int], float]
    repair_demand: Mapping[tuple[NodeId, int], int]
    failed_edges: frozenset[tuple[NodeId, NodeId]]

    def __post_init__(self):
        if not is_int(self.scenario_id):
            raise ValueError(f"scenario_id must be an integer, got {self.scenario_id!r}")
        object.__setattr__(self, "repair_time_h", dict(self.repair_time_h))
        object.__setattr__(self, "repair_demand", dict(self.repair_demand))
        object.__setattr__(
            self, "failed_edges", frozenset(edge_key(u, v) for u, v in self.failed_edges)
        )
        for key, t in self.repair_time_h.items():
            if not (is_number(t) and math.isfinite(t) and t > 0):
                raise ValueError(f"repair_time_h{key!r} must be finite and > 0, got {t!r}")
        for key, d in self.repair_demand.items():
            if not (is_int(d) and 0 <= d <= MAX_REPAIR_DEMAND):
                raise ValueError(f"repair_demand{key!r} must be an integer in "
                                 f"[0, {MAX_REPAIR_DEMAND}], got {d!r}")

    def required(self) -> dict[int, frozenset[NodeId]]:
        """Nodes with positive repair demand, per crew index."""
        return {
            k: frozenset(i for (i, kk), d in self.repair_demand.items() if kk == k and d > 0)
            for k in range(N_CREWS)
        }


@dataclass(frozen=True)
class ScenarioSet:
    """Ordered scenarios sharing one damaged-node set and crew taxonomy.

    ``loads_kw`` optionally embeds restoration value per damaged node so a
    hand-authored file is a self-contained solver input; ``config`` echoes
    the generation parameters when the set was sampled.

    Construction derives a read-only dense view of the scenarios' dicts:
    ``nodes`` is the damaged set sorted by ``node_key``, and
    ``repair_times[s, n, k]`` (float64) and ``repair_demands[s, n, k]``
    (int64) hold scenario ``s``'s values for ``(nodes[n], k)``. The view is
    left out of ``==`` and ``repr``.
    """

    scenarios: tuple[Scenario, ...]
    seed: int | None
    damaged: frozenset[NodeId]
    crews: tuple[CrewType, ...] = field(default_factory=default_crews)
    config: Mapping[str, object] | None = None
    loads_kw: Mapping[NodeId, float] | None = None
    nodes: tuple[NodeId, ...] = field(init=False, repr=False, compare=False)
    repair_times: np.ndarray = field(init=False, repr=False, compare=False)
    repair_demands: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "damaged", frozenset(self.damaged))
        object.__setattr__(self, "crews", tuple(self.crews))
        if self.config is not None:
            object.__setattr__(self, "config", dict(self.config))
        if self.loads_kw is not None:
            object.__setattr__(self, "loads_kw", dict(self.loads_kw))
            for node in sorted(self.loads_kw, key=node_key):
                if node not in self.damaged:
                    raise ValueError(f"loads_kw node {node!r} is not a damaged node")
        if tuple(c.index for c in self.crews) != tuple(range(N_CREWS)):
            raise ValueError("crews must be the four canonical types in order 0..3")
        nodes = tuple(sorted(self.damaged, key=node_key))
        keys = [(i, k) for i in nodes for k in range(N_CREWS)]
        times, demands = [], []
        for s, sc in enumerate(self.scenarios):
            if sc.scenario_id != s:
                raise ValueError(f"scenario ids must be 0..{len(self.scenarios) - 1}")
            times.append(_values_at(sc.repair_time_h, keys, s))
            demands.append(_values_at(sc.repair_demand, keys, s))
        shape = (len(self.scenarios), len(nodes), N_CREWS)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "repair_times", _read_only(times, np.float64, shape))
        object.__setattr__(self, "repair_demands", _read_only(demands, np.int64, shape))

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)


def _values_at(table: Mapping, keys: list, s: int) -> list:
    """``table``'s values in ``keys`` order; ValueError unless its keys are exactly ``keys``."""
    if len(table) == len(keys):
        try:
            return [table[key] for key in keys]
        except KeyError:
            pass
    raise ValueError(f"scenario {s} must define repair time and demand for every "
                     "(damaged node, crew) pair and nothing else")


def _read_only(rows: list, dtype, shape: tuple[int, ...]) -> np.ndarray:
    array = np.array(rows, dtype=dtype).reshape(shape)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for scenario sampling; defaults mirror the module constants."""

    n_scenarios: int
    demand_lo: int = DEMAND_LO
    demand_hi: int = DEMAND_HI
    repair_time_min_h: float = REPAIR_TIME_MIN_H
    repair_time_max_h: float = REPAIR_TIME_MAX_H
    repair_time_mu: float = REPAIR_TIME_MU
    repair_time_sigma: float = REPAIR_TIME_SIGMA
    edge_fail_prob: float = 0.5

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be >= 1")
        if not 0.0 <= self.edge_fail_prob <= 1.0:
            raise ValueError("edge_fail_prob must be in [0, 1]")
        for lo, hi in (("demand_lo", "demand_hi"), ("repair_time_min_h", "repair_time_max_h")):
            if getattr(self, lo) > getattr(self, hi):
                raise ValueError(f"{lo} must be <= {hi}, got {getattr(self, lo)!r} > "
                                 f"{getattr(self, hi)!r}")


def scenario_stream(seed: int, scenario_id: int) -> np.random.Generator:
    """Deterministic substream for one scenario id."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(scenario_id,))
    )


def sample_repair_time(
    rng: np.random.Generator,
    mu: float = REPAIR_TIME_MU,
    sigma: float = REPAIR_TIME_SIGMA,
    min_h: float = REPAIR_TIME_MIN_H,
    max_h: float = REPAIR_TIME_MAX_H,
    size: int | None = None,
):
    """Lognormal repair hours, exp(mu + sigma * Z), clamped to [min_h, max_h].

    With ``size`` set, returns a vector drawn from the same stream.
    """
    z = rng.standard_normal(size)
    raw = np.exp(mu + sigma * z)
    clamped = np.clip(raw, min_h, max_h)
    return float(clamped) if size is None else clamped


def sample_repair_demand(
    rng: np.random.Generator, lo: int, hi: int, size: int | None = None
):
    """Uniform integer persons in [lo, hi] inclusive."""
    for bound in (lo, hi):
        if not is_int(bound):
            raise InvalidRangeError(f"demand bounds must be integers, got {bound!r}")
    if not 0 <= lo <= hi:
        raise InvalidRangeError(f"demand bounds must satisfy 0 <= lo <= hi, got [{lo}, {hi}]")
    draw = rng.integers(lo, hi + 1, size=size)
    return int(draw) if size is None else draw


def select_damage(
    event: TornadoEvent, net: CoupledNetwork
) -> tuple[frozenset[NodeId], frozenset[tuple[NodeId, NodeId]]]:
    """Nodes and road edges inside the tornado corridor.

    A projected power node is damaged when its great-circle distance to the
    path segment is at most half the corridor width; a road edge fails when
    both endpoints are inside the corridor.
    """
    half = event.corridor_width_m / 2.0
    (lat_a, lon_a), (lat_b, lon_b) = event.path_start, event.path_end

    def inside(node: NodeId) -> bool:
        lat, lon = net.road.coord(node)
        return point_segment_distance_m(lat, lon, lat_a, lon_a, lat_b, lon_b) <= half

    projected = sorted(set(net.power_to_road.values()), key=node_key)
    damaged = frozenset(n for n in projected if inside(n))
    failed = frozenset(
        edge_key(u, v) for u, v, _ in net.road.edges if u != v and inside(u) and inside(v)
    )
    return damaged, failed


def generate_scenarios(
    config: ScenarioConfig,
    net: CoupledNetwork,
    events: Iterable[TornadoEvent],
    seed: int,
) -> ScenarioSet:
    """Sample a scenario set over the damage footprint of the events.

    The damaged set is shared by all scenarios (the union of corridor hits
    plus any damage already marked on the network); repair times, demands,
    and edge failures vary per scenario. Edge failures are independent
    Bernoulli draws over corridor edges.
    """
    damaged: set[NodeId] = set(net.damaged)
    corridor_edges: set[tuple[NodeId, NodeId]] = set()
    for ev in events:
        d, f = select_damage(ev, net)
        damaged |= d
        corridor_edges |= f
    if not damaged:
        raise NoDamagedNodesError("no damaged nodes: corridor hits nothing and none marked")

    nodes = sorted(damaged, key=node_key)
    edge_pool = sorted(corridor_edges, key=lambda e: (node_key(e[0]), node_key(e[1])))

    scenarios = []
    for s in range(config.n_scenarios):
        rng = scenario_stream(seed, s)
        times: dict[tuple[NodeId, int], float] = {}
        demands: dict[tuple[NodeId, int], int] = {}
        for i in nodes:
            for k in range(N_CREWS):
                times[(i, k)] = sample_repair_time(
                    rng,
                    mu=config.repair_time_mu,
                    sigma=config.repair_time_sigma,
                    min_h=config.repair_time_min_h,
                    max_h=config.repair_time_max_h,
                )
                demands[(i, k)] = sample_repair_demand(rng, config.demand_lo, config.demand_hi)
        failed = frozenset(e for e in edge_pool if rng.random() < config.edge_fail_prob)
        scenarios.append(Scenario(s, times, demands, failed))

    loads = None
    if net.loads_kw:
        loads = {i: net.loads_kw[i] for i in nodes if i in net.loads_kw}
    return ScenarioSet(
        scenarios=tuple(scenarios),
        seed=seed,
        damaged=frozenset(damaged),
        crews=default_crews(),
        config=asdict(config),
        loads_kw=loads,
    )
