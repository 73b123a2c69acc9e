"""First-stage capacity/assignment: objective, boundedness, exactness."""

import math

import numpy as np
import pytest

from gridrestore import (
    CrewAllocation,
    Scenario,
    ScenarioSet,
    Stage1Instance,
    default_scale_c,
    enumerate_stage1,
    marginal_gain,
    solve_stage1,
    stage1_objective,
    verify_allocation,
)
from gridrestore.errors import (
    DimensionMismatchError,
    EmptyScenarioSetError,
    NumericOverflowError,
    UnboundedObjectiveError,
)

from conftest import random_scenario_set
import refcase


def _single_node_instance(load=10.0, time_h=2.0, demand=3, cost=1.0, c=1.0):
    times = {("n", k): time_h for k in range(4)}
    demands = {("n", k): demand for k in range(4)}
    sset = ScenarioSet(
        (Scenario(0, times, demands, frozenset()),), seed=None, damaged=frozenset(["n"])
    )
    return Stage1Instance(sset, {"n": load}, (cost,) * 4, c)


class TestObjective:
    def test_zero_allocation_zero_objective(self):
        inst = _single_node_instance()
        alloc = CrewAllocation((0, 0, 0, 0), {}, 0.0)
        assert stage1_objective(alloc, inst) == 0.0

    def test_hand_arithmetic_single_cell(self):
        # one crew's worth: c*C1*x - (P*y - T*y) = 1*1*3 - (10*3 - 2*3) = -21
        inst = _single_node_instance(load=10.0, time_h=2.0, cost=1.0, c=1.0)
        alloc = CrewAllocation((3, 0, 0, 0), {(0, "n", 0): 3.0}, 0.0)
        assert stage1_objective(alloc, inst) == pytest.approx(1 * 3 - (10 * 3 - 2 * 3))

    def test_reference_fixture_matches_spreadsheet_evaluation(self):
        sset = refcase.scenario_set()
        inst = Stage1Instance.from_scenarios(sset, scale_c=10.0)
        capacity = tuple(
            max(refcase.demand_column_sum(s, k) for s in range(3)) for k in range(4)
        )
        assignment = {
            (s, i, k): float(refcase.REPAIR_DEMAND[i][k][s])
            for s in range(3) for i in refcase.NODES for k in range(4)
        }
        alloc = CrewAllocation(capacity, assignment, 0.0)

        # independent re-evaluation straight off the frozen tables
        cost = 10.0 * sum(inst.crew_costs[k] * capacity[k] for k in range(4))
        restored = sum(
            refcase.LOADS_KW[i] * refcase.REPAIR_DEMAND[i][k][s]
            for s in range(3) for i in refcase.NODES for k in range(4)
        )
        hours = sum(
            refcase.REPAIR_TIME_H[i][k][s] * refcase.REPAIR_DEMAND[i][k][s]
            for s in range(3) for i in refcase.NODES for k in range(4)
        )
        expected = cost - (restored - hours) / 3.0
        assert stage1_objective(alloc, inst) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        inst = _single_node_instance()
        with pytest.raises(DimensionMismatchError):
            stage1_objective(CrewAllocation((0, 0, 0), {}, 0.0), inst)
        with pytest.raises(DimensionMismatchError):
            stage1_objective(CrewAllocation((0,) * 4, {(0, "zz", 0): 1.0}, 0.0), inst)


class TestMarginalGain:
    def test_zero_when_loads_below_times(self):
        inst = _single_node_instance(load=1.0, time_h=5.0)
        assert marginal_gain(inst) == {k: 0.0 for k in range(4)}

    def test_direct_max_over_nodes(self):
        times = {("a", k): 2.0 for k in range(4)} | {("b", k): 7.0 for k in range(4)}
        demands = {(i, k): 1 for i in ("a", "b") for k in range(4)}
        sset = ScenarioSet((Scenario(0, times, demands, frozenset()),),
                           seed=None, damaged=frozenset(["a", "b"]))
        inst = Stage1Instance(sset, {"a": 5.0, "b": 6.0}, (100.0,) * 4, 1.0)
        # margins: a -> 5-2=3, b -> 6-7=-1; g = max(0, 3) = 3
        assert marginal_gain(inst) == {k: 3.0 for k in range(4)}

    def test_reference_fixture_vs_per_scenario_enumeration(self):
        sset = refcase.scenario_set()
        inst = Stage1Instance.from_scenarios(sset, scale_c=10.0)
        gains = marginal_gain(inst)
        for k in range(4):
            expected = sum(
                max(0.0, max(refcase.LOADS_KW[i] - refcase.REPAIR_TIME_H[i][k][s]
                             for i in refcase.NODES))
                for s in range(3)
            ) / 3.0
            assert gains[k] == pytest.approx(expected, rel=1e-12)


    def test_equals_a_sequential_loop_exactly(self):
        # scenarios are added left to right: a pairwise (1-D numpy) sum or
        # a compensated one rounds differently and fails this with ==
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_s = int(rng.integers(9, 51))
            sset = random_scenario_set(rng, n_nodes=int(rng.integers(1, 6)), n_scenarios=n_s)
            pw, tw = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))
            inst = Stage1Instance(sset, sset.loads_kw, (1.0,) * 4, 1.0, pw, tw)
            expected = {}
            for k in range(4):
                total = 0.0
                for sc in sset.scenarios:
                    best = 0.0
                    for i in sorted(sset.damaged):
                        margin = pw * sset.loads_kw[i] - tw * sc.repair_time_h[(i, k)]
                        if margin > best:
                            best = margin
                    total += best
                expected[k] = total / n_s
            assert marginal_gain(inst) == expected


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_named_in_the_error(self, bad):
        sset = refcase.scenario_set()
        loads = dict(refcase.LOADS_KW)
        loads[36856] = bad
        cases = [
            ("scale_c must be finite", {"scale_c": bad}),
            ("power_weight must be finite", {"power_weight": bad}),
            ("time_weight must be finite", {"time_weight": bad}),
            ("crew cost must be finite", {"crew_costs": (bad, 1.0, 1.0, 1.0)}),
            (r"loads_kw\[36856\] must be finite", {"loads_kw": loads}),
        ]
        for message, kwargs in cases:
            with pytest.raises(ValueError, match=message):
                Stage1Instance.from_scenarios(sset, **kwargs)


class TestOverflow:
    def test_finite_inputs_past_float64_are_named(self):
        loads = dict(refcase.LOADS_KW)
        loads[36856] = 1e308
        with pytest.raises(NumericOverflowError, match="marginal gain overflows"):
            Stage1Instance.from_scenarios(refcase.scenario_set(), loads_kw=loads)
        inst = Stage1Instance.from_scenarios(refcase.scenario_set(), crew_costs=(1e308,) * 4,
                                             scale_c=10.0)
        with pytest.raises(NumericOverflowError, match=r"scale_c \* crew cost overflows"):
            solve_stage1(inst)
        with pytest.raises(NumericOverflowError, match="objective overflows"):
            solve_stage1(_single_node_instance(time_h=1e308))
        with pytest.raises(NumericOverflowError, match="default scale_c overflows"):
            default_scale_c({k: 1e300 for k in range(4)}, (1e-10,) * 4)


    @pytest.mark.parametrize("weight", ["power_weight", "time_weight"])
    def test_weight_that_overflows_the_margin_is_named(self, weight):
        # a finite weight whose product with a load or a repair time leaves float64
        with pytest.raises(NumericOverflowError, match="stage 1: margin overflows"):
            Stage1Instance.from_scenarios(refcase.scenario_set(), **{weight: 1e308})


class TestDefaultScaleC:
    def test_power_of_ten_rule(self):
        assert default_scale_c({0: 285.5, 1: 100.0, 2: 0.0, 3: 0.0},
                               (65.0, 100.0, 100.0, 100.0)) == 10.0
        assert default_scale_c({0: 5.0, 1: 0, 2: 0, 3: 0}, (100.0,) * 4) == 0.1

    def test_zero_gains(self):
        assert default_scale_c({k: 0.0 for k in range(4)}, (1.0,) * 4) == 1.0

    def test_strictly_exceeds(self):
        c = default_scale_c({0: 100.0, 1: 0, 2: 0, 3: 0}, (1.0,) * 4)
        assert c > 100.0
        assert c == 1000.0


class TestSolveStage1:
    def test_reference_fixture_capacities(self):
        inst = Stage1Instance.from_scenarios(refcase.scenario_set())
        alloc = solve_stage1(inst)
        assert alloc.capacity[0] == 50
        assert alloc.capacity == tuple(
            max(refcase.demand_column_sum(s, k) for s in range(3)) for k in range(4)
        )

    def test_empty_damaged_set(self):
        sset = ScenarioSet((Scenario(0, {}, {}, frozenset()),), seed=None,
                           damaged=frozenset())
        inst = Stage1Instance(sset, {}, (1.0,) * 4, 1.0)
        alloc = solve_stage1(inst)
        assert alloc.capacity == (0, 0, 0, 0)
        assert alloc.assignment == {}
        assert alloc.objective_value == 0.0

    def test_empty_scenario_set(self):
        sset = ScenarioSet((), seed=None, damaged=frozenset())
        inst = Stage1Instance(sset, {}, (1.0,) * 4, 1.0)
        with pytest.raises(EmptyScenarioSetError):
            solve_stage1(inst)

    def test_unbounded_reports_crew_and_min_scale(self):
        inst = _single_node_instance(load=100.0, time_h=1.0, cost=10.0, c=1.0)
        with pytest.raises(UnboundedObjectiveError) as err:
            solve_stage1(inst)
        assert err.value.crew == 0
        assert err.value.gain == pytest.approx(99.0)
        assert err.value.weighted_cost == pytest.approx(10.0)
        assert err.value.min_scale_c == pytest.approx(9.9)
        # the suggested scale restores boundedness
        ok = _single_node_instance(load=100.0, time_h=1.0, cost=10.0, c=9.91)
        solve_stage1(ok)

    def test_assignment_includes_profitable_slack(self):
        # two scenarios with different demand sums: the slack in the lighter
        # scenario lands on the most profitable node
        times = {("a", k): 1.0 for k in range(4)} | {("b", k): 2.0 for k in range(4)}
        d0 = {("a", k): 5 for k in range(4)} | {("b", k): 5 for k in range(4)}
        d1 = {("a", k): 1 for k in range(4)} | {("b", k): 1 for k in range(4)}
        sset = ScenarioSet(
            (Scenario(0, times, d0, frozenset()), Scenario(1, times, d1, frozenset())),
            seed=None, damaged=frozenset(["a", "b"]),
        )
        inst = Stage1Instance(sset, {"a": 50.0, "b": 10.0}, (100.0,) * 4, 1.0)
        alloc = solve_stage1(inst)
        assert alloc.capacity == (10, 10, 10, 10)
        for k in range(4):
            assert alloc.assignment[(1, "a", k)] == 1.0 + 8.0  # demand + slack
            assert alloc.assignment[(1, "b", k)] == 1.0
            assert alloc.assignment[(0, "a", k)] == 5.0

    def test_slack_tie_goes_to_the_first_node(self):
        # equal margins on 10, "a" and "b": the slack lands on the smallest node id
        nodes = ("b", 10, "a")
        times = {(i, k): 1.0 for i in nodes for k in range(4)}
        d0 = {(i, k): 2 for i in nodes for k in range(4)}
        d1 = {(i, k): 1 for i in nodes for k in range(4)}
        sset = ScenarioSet(
            (Scenario(0, times, d0, frozenset()), Scenario(1, times, d1, frozenset())),
            seed=None, damaged=frozenset(nodes),
        )
        inst = Stage1Instance(sset, {i: 5.0 for i in nodes}, (100.0,) * 4, 1.0)
        alloc = solve_stage1(inst)
        assert alloc == enumerate_stage1(inst)
        assert [alloc.assignment[(1, i, 0)] for i in (10, "a", "b")] == [4.0, 1.0, 1.0]

    def test_feasibility_checked_mechanically(self, rng):
        for _ in range(20):
            sset = random_scenario_set(rng)
            inst = Stage1Instance.from_scenarios(sset)
            alloc = solve_stage1(inst)
            assert verify_allocation(alloc, inst) == ()

    def test_monotone_in_demand(self, rng):
        sset = random_scenario_set(rng, n_nodes=3, n_scenarios=2)
        inst = Stage1Instance.from_scenarios(sset)
        base = solve_stage1(inst).capacity
        sc0 = sset.scenarios[0]
        bumped_demand = dict(sc0.repair_demand)
        key = sorted(bumped_demand)[0]
        bumped_demand[key] += 4
        bumped = ScenarioSet(
            (Scenario(0, sc0.repair_time_h, bumped_demand, frozenset()),)
            + sset.scenarios[1:],
            seed=None, damaged=sset.damaged, loads_kw=sset.loads_kw,
        )
        alloc2 = solve_stage1(Stage1Instance.from_scenarios(bumped))
        assert all(alloc2.capacity[k] >= base[k] for k in range(4))

    def test_scale_invariance_of_argmin(self, rng):
        sset = random_scenario_set(rng)
        inst = Stage1Instance.from_scenarios(sset)
        bigger = Stage1Instance(sset, inst.loads_kw, inst.crew_costs, inst.scale_c * 10)
        a = solve_stage1(inst)
        b = solve_stage1(bigger)
        assert a.capacity == b.capacity
        assert a.assignment == b.assignment

    def test_capacities_are_worst_case_column_sums(self, rng):
        for _ in range(10):
            sset = random_scenario_set(rng, n_nodes=4, n_scenarios=3)
            alloc = solve_stage1(Stage1Instance.from_scenarios(sset))
            nodes = sorted(sset.damaged)
            for k in range(4):
                expected = max(
                    sum(sc.repair_demand[(i, k)] for i in nodes) for sc in sset.scenarios
                )
                assert alloc.capacity[k] == expected


class TestEnumerationOracle:
    def test_matches_closed_form_on_reference_fixture(self):
        inst = Stage1Instance.from_scenarios(refcase.scenario_set())
        a = solve_stage1(inst)
        b = enumerate_stage1(inst)
        assert a.capacity == b.capacity
        assert a.assignment == b.assignment
        assert a.objective_value == pytest.approx(b.objective_value, rel=1e-12)

    def test_random_campaign(self, rng):
        for _ in range(50):
            sset = random_scenario_set(
                rng,
                n_nodes=int(rng.integers(1, 5)),
                n_scenarios=int(rng.integers(1, 4)),
            )
            inst = Stage1Instance.from_scenarios(sset)
            a = solve_stage1(inst)
            b = enumerate_stage1(inst)
            assert a.capacity == b.capacity
            denom = max(1.0, abs(b.objective_value))
            assert abs(a.objective_value - b.objective_value) <= 1e-9 * denom

    def test_oracle_rejects_unbounded_too(self):
        inst = _single_node_instance(load=100.0, time_h=1.0, cost=10.0, c=1.0)
        with pytest.raises(UnboundedObjectiveError):
            enumerate_stage1(inst)
