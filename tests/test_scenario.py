"""Sampling distributions, corridor damage selection, and determinism."""

import math

import numpy as np
import pytest
from scipy import stats

from gridrestore import (
    CrewType,
    PowerNode,
    Scenario,
    ScenarioConfig,
    ScenarioSet,
    TornadoEvent,
    build_coupled_network,
    default_crews,
    generate_scenarios,
    load_road_network,
    sample_repair_demand,
    sample_repair_time,
    scenario_stream,
    select_damage,
)
from gridrestore.errors import InvalidRangeError, NoDamagedNodesError
from gridrestore.geo import haversine_m
from gridrestore.scenario import REPAIR_TIME_MU, REPAIR_TIME_SIGMA

import refcase


class TestConstructorChecks:
    def test_tornado_event_non_finite_named(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="path_start must be finite"):
                TornadoEvent(2, (bad, -97.0), (32.0, -96.9), 500.0)
            with pytest.raises(ValueError, match="path_end must be finite"):
                TornadoEvent(2, (32.0, -97.0), (32.0, bad), 500.0)
            with pytest.raises(ValueError, match="corridor_width_m must be finite"):
                TornadoEvent(2, (32.0, -97.0), (32.0, -96.9), bad)

    def test_tornado_event_rating_is_an_integer(self):
        for bad in (True, 2.5, "2", 6):
            with pytest.raises(ValueError, match="ef_rating must be in 0..5"):
                TornadoEvent(bad, (32.0, -97.0), (32.0, -96.9), 500.0)

    def test_scenario_config_demand_window_ordered(self):
        with pytest.raises(ValueError, match="demand_lo must be <= demand_hi"):
            ScenarioConfig(n_scenarios=1, demand_lo=7, demand_hi=6)
        ScenarioConfig(n_scenarios=1, demand_lo=6, demand_hi=6)

    def test_scenario_config_repair_window_ordered(self):
        with pytest.raises(ValueError, match="repair_time_min_h must be <= repair_time_max_h"):
            ScenarioConfig(n_scenarios=1, repair_time_min_h=6.0, repair_time_max_h=2.0)
        ScenarioConfig(n_scenarios=1, repair_time_min_h=2.0, repair_time_max_h=2.0)


class TestCrewTypes:
    def test_default_taxonomy(self):
        crews = default_crews()
        assert [c.name for c in crews] == [
            "initial_inspection", "tree", "line", "final_inspection"
        ]
        assert [c.hourly_cost_per_person for c in crews] == [200.0, 65.0, 75.0, 200.0]

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            CrewType(0, "tree", 65.0)

    def test_index_must_be_an_integer(self):
        for bad in (True, 1.0, "1"):
            with pytest.raises(ValueError, match="crew index must be in 0..3, got"):
                CrewType(bad, "tree", 65.0)

    def test_non_positive_cost_rejected(self):
        with pytest.raises(ValueError):
            CrewType(1, "tree", 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="hourly_cost_per_person must be finite"):
                CrewType(1, "tree", bad)


class TestRepairTimeSampling:
    def test_median_closed_form(self):
        # at Z = 0 the draw is exp(mu), inside the default clamp window
        class _Zero:
            def standard_normal(self, size=None):
                return 0.0

        t = sample_repair_time(_Zero())
        assert t == pytest.approx(math.exp(REPAIR_TIME_MU))
        assert t == pytest.approx(0.7355, abs=5e-5)

    def test_clamp_upper(self):
        class _Big:
            def standard_normal(self, size=None):
                return 3.0

        assert sample_repair_time(_Big()) == 12.0  # exp(mu + 3 sigma) >> 12

    def test_clamp_lower(self):
        class _Small:
            def standard_normal(self, size=None):
                return -3.0

        assert sample_repair_time(_Small()) == 0.5

    def test_empirical_median_of_unclamped_draws(self):
        rng = np.random.default_rng(915)
        draws = sample_repair_time(rng, min_h=0.0, max_h=math.inf, size=10**6)
        assert float(np.median(draws)) == pytest.approx(math.exp(REPAIR_TIME_MU), abs=0.01)

    def test_sigma_matches_lognormal_spread(self):
        rng = np.random.default_rng(916)
        draws = sample_repair_time(rng, min_h=0.0, max_h=math.inf, size=10**6)
        assert float(np.std(np.log(draws))) == pytest.approx(REPAIR_TIME_SIGMA, rel=5e-3)

    def test_draws_respect_clamp_window(self):
        rng = np.random.default_rng(917)
        draws = sample_repair_time(rng, size=20000)
        assert float(draws.min()) >= 0.5
        assert float(draws.max()) <= 12.0


class TestRepairDemandSampling:
    def test_degenerate_range(self):
        rng = np.random.default_rng(0)
        assert sample_repair_demand(rng, 7, 7) == 7

    def test_default_window_spans_reference_demands(self):
        lo, hi = 5, 19
        observed = [
            d for per_node in refcase.REPAIR_DEMAND.values()
            for per_crew in per_node for d in per_crew
        ]
        assert min(observed) >= lo
        assert max(observed) <= hi

    def test_invalid_ranges(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidRangeError):
            sample_repair_demand(rng, 5, 4)
        with pytest.raises(InvalidRangeError):
            sample_repair_demand(rng, -1, 4)
        with pytest.raises(InvalidRangeError):
            sample_repair_demand(rng, 0.5, 4)

    def test_chi_square_uniformity(self):
        rng = np.random.default_rng(918)
        draws = sample_repair_demand(rng, 0, 9, size=10**5)
        counts = np.bincount(draws, minlength=10)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_bounds_inclusive(self):
        rng = np.random.default_rng(919)
        draws = sample_repair_demand(rng, 2, 4, size=5000)
        assert set(np.unique(draws)) == {2, 3, 4}


def _corridor_network():
    """Road nodes along and off a west-east line at lat 32.0."""
    nodes = [
        ("on_path", 32.0, -97.0),
        ("near", 32.002, -96.99),     # ~222 m north of the path
        ("far", 32.05, -96.95),       # ~5.5 km north
        ("west_end", 32.0, -97.05),
        ("east_end", 32.0, -96.90),
    ]
    edges = [
        ("on_path", "near", 300.0),
        ("near", "far", 6000.0),
        ("west_end", "on_path", 4000.0),
        ("on_path", "east_end", 9000.0),
    ]
    road = load_road_network(nodes, edges)
    power = [
        PowerNode(f"bus_{n}", lon, lat, 10.0, "line") for n, lat, lon in nodes
    ]
    return build_coupled_network(road, power, 0.0, 0.0, [])


class TestSelectDamage:
    def test_node_on_path_is_damaged(self):
        net = _corridor_network()
        ev = TornadoEvent(2, (32.0, -97.02), (32.0, -96.95), 1000.0)
        damaged, _ = select_damage(ev, net)
        assert "on_path" in damaged

    def test_node_at_full_width_not_damaged(self):
        net = _corridor_network()
        # "near" sits ~222 m from the path; a 222 m corridor (half-width 111 m)
        # excludes it, a 450 m corridor includes it
        ev_narrow = TornadoEvent(2, (32.0, -97.02), (32.0, -96.95), 222.0)
        ev_wide = TornadoEvent(2, (32.0, -97.02), (32.0, -96.95), 450.0)
        narrow, _ = select_damage(ev_narrow, net)
        wide, _ = select_damage(ev_wide, net)
        assert "near" not in narrow
        assert "near" in wide

    def test_edge_fails_only_when_both_endpoints_inside(self):
        net = _corridor_network()
        ev = TornadoEvent(2, (32.0, -97.02), (32.0, -96.95), 500.0)
        _, failed = select_damage(ev, net)
        assert ("near", "on_path") in failed
        assert ("far", "near") not in failed

    def test_matches_point_to_segment_oracle(self, rng):
        a = (32.0, -97.0)
        b = (32.08, -96.9)
        nodes = []
        for i in range(10):
            nodes.append((f"n{i}", 32.0 + float(rng.uniform(-0.05, 0.13)),
                          -97.0 + float(rng.uniform(-0.05, 0.15))))
        road = load_road_network(nodes, [(f"n{i}", f"n{i+1}", 100.0) for i in range(9)])
        power = [PowerNode(f"bus{i}", lon, lat, 1.0, "line") for (i, lat, lon) in
                 ((n[0][1:], n[1], n[2]) for n in nodes)]
        net = build_coupled_network(road, power, 0.0, 0.0, [])
        width = 6000.0
        ev = TornadoEvent(3, a, b, width)
        damaged, _ = select_damage(ev, net)

        # oracle: dense sampling along the great-circle segment
        def slerp_distance(lat, lon):
            v1 = _unit(a)
            v2 = _unit(b)
            omega = math.acos(max(-1.0, min(1.0, float(np.dot(v1, v2)))))
            best = math.inf
            for t in np.linspace(0.0, 1.0, 4001):
                v = (math.sin((1 - t) * omega) * v1 + math.sin(t * omega) * v2) / math.sin(omega)
                v = v / np.linalg.norm(v)
                plat = math.degrees(math.asin(v[2]))
                plon = math.degrees(math.atan2(v[1], v[0]))
                best = min(best, haversine_m(lat, lon, plat, plon))
            return best

        def _unit(p):
            lat, lon = map(math.radians, p)
            return np.array([
                math.cos(lat) * math.cos(lon),
                math.cos(lat) * math.sin(lon),
                math.sin(lat),
            ])

        expected = set()
        for n, lat, lon in nodes:
            if slerp_distance(lat, lon) <= width / 2.0:
                expected.add(n)
        assert set(damaged) == expected

    def test_monotone_in_corridor_width(self):
        net = _corridor_network()
        prev_nodes: frozenset = frozenset()
        prev_edges: frozenset = frozenset()
        for width in (100.0, 300.0, 900.0, 3000.0, 20000.0):
            ev = TornadoEvent(1, (32.0, -97.02), (32.0, -96.95), width)
            damaged, failed = select_damage(ev, net)
            assert prev_nodes <= damaged
            assert prev_edges <= failed
            prev_nodes, prev_edges = damaged, failed


class TestGenerateScenarios:
    def _net_and_event(self):
        net = _corridor_network()
        ev = TornadoEvent(2, (32.0, -97.02), (32.0, -96.95), 1000.0)
        return net, ev

    def test_cardinality(self):
        net, ev = self._net_and_event()
        sset = generate_scenarios(ScenarioConfig(n_scenarios=3), net, [ev], seed=1)
        n_nodes = len(sset.damaged)
        for sc in sset.scenarios:
            assert len(sc.repair_time_h) == n_nodes * 4
            assert len(sc.repair_demand) == n_nodes * 4

    def test_determinism_bit_exact(self):
        net, ev = self._net_and_event()
        cfg = ScenarioConfig(n_scenarios=4)
        a = generate_scenarios(cfg, net, [ev], seed=99)
        b = generate_scenarios(cfg, net, [ev], seed=99)
        assert a == b

    def test_seed_changes_output(self):
        net, ev = self._net_and_event()
        cfg = ScenarioConfig(n_scenarios=2)
        a = generate_scenarios(cfg, net, [ev], seed=1)
        b = generate_scenarios(cfg, net, [ev], seed=2)
        assert a != b

    def test_scenarios_use_independent_substreams(self):
        # a set with n scenarios starts with the same scenarios as a longer set
        net, ev = self._net_and_event()
        short = generate_scenarios(ScenarioConfig(n_scenarios=2), net, [ev], seed=5)
        long = generate_scenarios(ScenarioConfig(n_scenarios=5), net, [ev], seed=5)
        assert short.scenarios == long.scenarios[:2]

    def test_no_damaged_nodes(self):
        net, _ = self._net_and_event()
        miss = TornadoEvent(0, (40.0, -80.0), (40.1, -80.0), 100.0)
        with pytest.raises(NoDamagedNodesError):
            generate_scenarios(ScenarioConfig(n_scenarios=1), net, [miss], seed=0)

    def test_draws_respect_windows(self):
        net, ev = self._net_and_event()
        cfg = ScenarioConfig(n_scenarios=5, demand_lo=2, demand_hi=6,
                             repair_time_min_h=1.0, repair_time_max_h=4.0)
        sset = generate_scenarios(cfg, net, [ev], seed=3)
        for sc in sset.scenarios:
            assert all(1.0 <= t <= 4.0 for t in sc.repair_time_h.values())
            assert all(2 <= d <= 6 for d in sc.repair_demand.values())

    def test_loads_propagated_for_damaged_nodes(self):
        net, ev = self._net_and_event()
        sset = generate_scenarios(ScenarioConfig(n_scenarios=1), net, [ev], seed=3)
        assert sset.loads_kw is not None
        assert set(sset.loads_kw) == set(sset.damaged)

    def test_failed_edges_only_within_corridor(self):
        net, ev = self._net_and_event()
        _, corridor = select_damage(ev, net)
        sset = generate_scenarios(ScenarioConfig(n_scenarios=8, edge_fail_prob=0.9),
                                  net, [ev], seed=7)
        for sc in sset.scenarios:
            assert sc.failed_edges <= corridor


class TestScenarioSetValidation:
    def test_ids_must_be_sequential(self):
        sc = Scenario(1, {("n", 0): 1.0, ("n", 1): 1.0, ("n", 2): 1.0, ("n", 3): 1.0},
                      {("n", k): 1 for k in range(4)}, frozenset())
        with pytest.raises(ValueError, match="ids"):
            ScenarioSet((sc,), seed=None, damaged=frozenset(["n"]))

    def test_coverage_required(self):
        sc = Scenario(0, {("n", 0): 1.0}, {("n", 0): 1}, frozenset())
        with pytest.raises(ValueError, match="every"):
            ScenarioSet((sc,), seed=None, damaged=frozenset(["n"]))
        full_t = {("n", k): 1.0 for k in range(4)}
        full_d = {("n", k): 1 for k in range(4)}
        for times, demands in (
            (full_t | {("m", 0): 1.0}, full_d),                    # extra time key
            (full_t, full_d | {("m", 0): 1}),                      # extra demand key
            (full_t, {("n", k): 1 for k in range(3)} | {("m", 0): 1}),  # swapped key
        ):
            with pytest.raises(ValueError, match="every"):
                ScenarioSet((Scenario(0, times, demands, frozenset()),),
                            seed=None, damaged=frozenset(["n"]))

    def test_dense_view_matches_dicts(self):
        sset = refcase.scenario_set()
        assert sset.nodes == tuple(sorted(refcase.NODES))
        assert sset.repair_times.shape == sset.repair_demands.shape == (3, 4, 4)
        assert sset.repair_times.dtype == np.float64
        assert sset.repair_demands.dtype == np.int64
        for s, sc in enumerate(sset.scenarios):
            for n, i in enumerate(sset.nodes):
                for k in range(4):
                    assert sset.repair_times[s, n, k] == sc.repair_time_h[(i, k)]
                    assert sset.repair_demands[s, n, k] == sc.repair_demand[(i, k)]
        for array in (sset.repair_times, sset.repair_demands):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1

    def test_dense_view_left_out_of_eq_and_repr(self):
        a, b = refcase.scenario_set(), refcase.scenario_set()
        assert a == b and a.repair_times is not b.repair_times
        object.__setattr__(b, "repair_times", np.zeros_like(a.repair_times))
        assert a == b
        assert "repair_times" not in repr(a) and "nodes=" not in repr(a)

    def test_node_index_sorts_ints_before_strings(self):
        nodes = ["b", 10, "a", 2]
        sc = Scenario(0, {(i, k): 1.0 for i in nodes for k in range(4)},
                      {(i, k): 1 for i in nodes for k in range(4)}, frozenset())
        sset = ScenarioSet((sc,), seed=None, damaged=frozenset(nodes))
        assert sset.nodes == (2, 10, "a", "b")

    def test_empty_sets_give_empty_views(self):
        none = ScenarioSet((), seed=None, damaged=frozenset(["n"]))
        assert none.repair_times.shape == (0, 1, 4)
        sc = Scenario(0, {}, {}, frozenset())
        nothing_damaged = ScenarioSet((sc,), seed=None, damaged=frozenset())
        assert nothing_damaged.repair_demands.shape == (1, 0, 4)

    def test_non_positive_time_rejected(self):
        for hours in (0.0, True, "2", None):
            with pytest.raises(ValueError, match="repair_time_h"):
                Scenario(0, {("n", 0): hours}, {("n", 0): 1}, frozenset())
        Scenario(0, {("n", 0): 2}, {("n", 0): 1}, frozenset())  # int hours are fine

    def test_non_integer_demand_rejected(self):
        # the cap, 2**31 - 1, keeps every demand sum of the int64 view exact
        for demand in (1.5, True, 2.0, -1, 2**31):
            with pytest.raises(ValueError, match="repair_demand"):
                Scenario(0, {("n", 0): 1.0}, {("n", 0): demand}, frozenset())
        Scenario(0, {("n", 0): 1.0}, {("n", 0): 2**31 - 1}, frozenset())

    def test_reference_fixture_loads(self):
        sset = refcase.scenario_set()
        assert sset.n_scenarios == 3
        assert sset.damaged == frozenset(refcase.NODES)
        sc0 = sset.scenarios[0]
        assert sc0.repair_time_h[(37215, 1)] == 4.7
        assert sc0.repair_demand[(23214, 0)] == 10


class TestScenarioStream:
    def test_substream_is_stable(self):
        a = scenario_stream(123, 7).standard_normal(4)
        b = scenario_stream(123, 7).standard_normal(4)
        assert np.array_equal(a, b)

    def test_substreams_differ_by_id(self):
        a = scenario_stream(123, 0).standard_normal(4)
        b = scenario_stream(123, 1).standard_normal(4)
        assert not np.array_equal(a, b)
