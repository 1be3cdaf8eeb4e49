import math
import random

import pytest

from pslift.generators import generate_task
from pslift.lifted import ROOT, GroundAction, instantiations, _apply_effects
from pslift.relaxation import (
    EPSILON,
    GATE,
    EmptyActionSet,
    DatalogProgram,
    FFHeuristic,
    RestrictedFFHeuristic,
)

import oracles


def act(task, name, *args):
    return GroundAction(task.schema(name), args)


class TestBuildDatalog:
    def test_pickup_rule_shape(self, bw2):
        program = DatalogProgram(bw2)
        texts = program.dump().splitlines()
        assert "holding(?x) :- clear(?x), ontable(?x), handempty." in texts

    def test_schema_without_adds_contributes_no_rules(self):
        from pslift.pddl import ActionSchema, Atom, Task
        schema = ActionSchema("burn", ("?x",), (Atom("p", ("?x",)),), (), (Atom("p", ("?x",)),))
        task = Task("d", "q", [("p", 1)], [schema], ["o"], [Atom("p", ("o",))], [])
        program = DatalogProgram(task)
        # only the goal rule remains
        assert [r for r in program.rules if r.schema is not None] == []

    def test_goal_rule(self, bw2):
        program = DatalogProgram(bw2)
        goal_rules = [r.text() for r in program.rules if r.head[0] == "@goal"]
        assert goal_rules == ["@goal :- on(a,b)."]

    @pytest.mark.parametrize("family,params", [
        ("blocksworld", dict(blocks=3)),
        ("ferry-like", dict(cars=2, locations=2)),
        ("warehouse-like", dict(stacks=2, boxes=3, marked=1)),
    ])
    def test_no_rule_body_holds_the_gate(self, family, params):
        # the action set B enters at evaluation: both heuristics run the
        # same rules, and no rule waits for the gate
        task = generate_task(family, seed=0, **params)
        plain = FFHeuristic(task).program
        restricted = RestrictedFFHeuristic(task).program
        assert restricted.dump() == plain.dump()
        for program in (plain, restricted):
            assert all(pred != EPSILON for r in program.rules for pred, _ in r.body)


class TestRelaxedReach:
    def test_bw2_everything_reachable(self, bw2):
        program = DatalogProgram(bw2)
        reach = program.relaxed_reach(bw2.initial_state)
        assert ("holding", ("a",)) in reach.atoms
        assert ("on", ("a", "b")) in reach.atoms
        oracle_atoms, _ = oracles.relaxed_reachable(bw2, bw2.initial_state)
        assert reach.atoms == oracle_atoms

    def test_empty_rule_program_reaches_only_facts(self):
        from pslift.pddl import Atom, Task
        task = Task("d", "q", [("p", 1), ("q", 1)], [], ["o"], [Atom("p", ("o",))],
                    [Atom("q", ("o",))])
        program = DatalogProgram(task)
        reach = program.relaxed_reach(task.initial_state)
        assert reach.atoms == frozenset({("p", ("o",))})

    def test_goal_state_derives_goal_at_layer_one(self, bw2):
        program = DatalogProgram(bw2)
        goal_state = frozenset(
            {bw2.intern("on", ("a", "b")), bw2.intern("ontable", ("b",)),
             bw2.intern("clear", ("a",)), bw2.intern("handempty", ())}
        )
        reach = program.relaxed_reach(goal_state)
        assert reach.layers[("@goal", ())] == 1

    def test_full_fixpoint_runs_past_the_goal_layer(self, bw2):
        # the goal holds, so @goal is at layer 1; unstacking a and moving
        # the blocks reaches atoms at later layers
        program = DatalogProgram(bw2)
        goal_state = frozenset(
            {bw2.intern("on", ("a", "b")), bw2.intern("ontable", ("b",)),
             bw2.intern("clear", ("a",)), bw2.intern("handempty", ())}
        )
        reach = program.relaxed_reach(goal_state)
        goal_layer = reach.layers[("@goal", ())]
        assert max(reach.layers.values()) > goal_layer
        _, oracle_layers = oracles.relaxed_reachable(bw2, goal_state)
        assert {k: v for k, v in reach.layers.items()
                if not k[0].startswith("@")} == oracle_layers
        # the heuristic's own fixpoint stops at the goal's layer
        assert max(program._fixpoint(goal_state).layers.values()) == goal_layer

    def test_layers_match_grounded_hmax(self, bw2, bw3_stack, spanner_mini):
        for task in (bw2, bw3_stack, spanner_mini):
            program = DatalogProgram(task)
            reach = program.relaxed_reach(task.initial_state)
            _, oracle_layers = oracles.relaxed_reachable(task, task.initial_state)
            for key, layer in oracle_layers.items():
                if key in reach.layers:
                    assert reach.layers[key] == layer, key


    def test_state_may_add_static_atoms(self, spanner_mini):
        # a static atom outside init: the state's facts extend the static ones
        task = spanner_mini
        state = task.initial_state | {task.intern("link", ("p1", "p3"))}
        reach = DatalogProgram(task).relaxed_reach(state)
        _, oracle_layers = oracles.relaxed_reachable(task, state)
        assert {k: v for k, v in reach.layers.items()
                if not k[0].startswith("@")} == oracle_layers
        assert reach.layers[("at", ("bob", "p3"))] == 1

    def test_static_extension_stays_with_its_state(self, spanner_mini):
        # the extension is indexed for one evaluation only: a later state
        # without it, on the same program, must not see it
        task = spanner_mini
        program = DatalogProgram(task)
        s0 = task.initial_state
        shortcut = s0 | {task.intern("link", ("p1", "p3"))}
        for state in (shortcut, s0, shortcut, s0):
            plain, oracle_layers = oracles.relaxed_reachable(task, state)
            reach = program.relaxed_reach(state)
            assert {k: v for k, v in reach.layers.items()
                    if not k[0].startswith("@")} == oracle_layers
            assert program.h_ff(state) == oracles.optimal_relaxed_plan_length(task, state)
            actions = list(instantiations(task, state, ROOT))
            assert program.relaxed_reach(state, actions).atoms == plain | {(EPSILON, ())}
            restricted = oracles.restrict_task(task, actions).as_task()
            start = oracles.intern_keys(restricted, oracles.state_to_keys(task, state))
            assert (program.h_ff_restricted(state, actions)
                    == oracles.optimal_relaxed_plan_length(restricted, start))
        assert program.h_ff(shortcut) == 1 and program.h_ff(s0) == 2


class TestHFF:
    def test_zero_iff_goal(self, bw2):
        h = FFHeuristic(bw2)
        goal_state = frozenset(
            {bw2.intern("on", ("a", "b")), bw2.intern("ontable", ("b",)),
             bw2.intern("clear", ("a",)), bw2.intern("handempty", ())}
        )
        assert h(goal_state) == 0
        assert h(bw2.initial_state) > 0

    def test_bw2_init_value_matches_relaxed_optimum(self, bw2):
        assert oracles.optimal_relaxed_plan_length(bw2, bw2.initial_state) == 2
        assert FFHeuristic(bw2)(bw2.initial_state) == 2

    def test_dead_end_iff_oracle_unreachable(self, bw_domain):
        from pslift.pddl import parse_instance
        from conftest import BW2_TEXT
        text = BW2_TEXT.replace("(:init (ontable a) (ontable b) (clear a) (clear b) (handempty))",
                                "(:init (ontable a) (ontable b) (clear a) (clear b))")
        task = parse_instance(text, bw_domain)  # no handempty, no hand: nothing moves
        h = FFHeuristic(task)
        assert h(task.initial_state) == math.inf
        assert not oracles.relaxed_goal_reachable(task, task.initial_state)


class TestAgainstAdditiveOracle:
    """The grounded additive-cost oracle bounds and gates the FF value."""

    @pytest.mark.parametrize("family,params,seed", [
        ("blocksworld", dict(blocks=3), 31),
        ("blocksworld", dict(blocks=4), 32),
        ("ferry-like", dict(cars=2, locations=2), 33),
    ])
    def test_dead_end_agreement_and_lower_bound(self, family, params, seed):
        task = generate_task(family, seed=seed, **params)
        h = FFHeuristic(task)
        program = DatalogProgram(task)
        rng = random.Random(seed)
        for state in random_reachable_states(task, rng, 5):
            ff = h(state)
            additive = oracles.h_add(task, state)
            assert (ff == math.inf) == (additive == math.inf)
            if ff != math.inf:
                reach = program.relaxed_reach(state)
                hmax = reach.layers[("@goal", ())] - 1  # goal rule adds a layer
                assert hmax <= ff
                assert hmax <= additive


class TestRestrictTask:
    def test_empty_set_goal_only_if_satisfied(self, bw2):
        restricted = oracles.restrict_task(bw2, []).as_task()
        assert not oracles.relaxed_goal_reachable(restricted, oracles.intern_keys(
            restricted, oracles.state_to_keys(bw2, bw2.initial_state)))

    def test_singleton_materialization(self, bw2):
        restricted = oracles.restrict_task(bw2, [act(bw2, "pickup", "a")])
        as_task = restricted.as_task()
        temp = as_task.schema("@restricted-0")
        assert temp.params == ()
        assert {a.pred for a in temp.add} == {"holding", EPSILON}
        base_stack = as_task.schema("stack")
        assert any(a.pred == EPSILON for a in base_stack.pre)

    def test_full_set_size(self, bw2):
        actions = list(instantiations(bw2, bw2.initial_state, ROOT))
        as_task = oracles.restrict_task(bw2, actions).as_task()
        assert len(as_task.schemas) == len(bw2.schemas) + len(actions)


class TestHFFRestricted:
    def test_bw2_singletons(self, bw2):
        h = RestrictedFFHeuristic(bw2)
        s0 = bw2.initial_state
        # oracle: optimal relaxed plans on the materialized restricted tasks
        for block, expected in (("a", 2), ("b", 3)):
            action = act(bw2, "pickup", block)
            restricted = oracles.restrict_task(bw2, [action]).as_task()
            state = oracles.intern_keys(restricted, oracles.state_to_keys(bw2, s0))
            assert oracles.optimal_relaxed_plan_length(restricted, state) == expected
            assert h.program.h_ff_restricted(s0, [action]) == expected

    def test_goal_state_is_zero_for_any_set(self, bw2):
        h = RestrictedFFHeuristic(bw2)
        goal_state = frozenset(
            {bw2.intern("on", ("a", "b")), bw2.intern("ontable", ("b",)),
             bw2.intern("clear", ("a",)), bw2.intern("handempty", ())}
        )
        assert h.program.h_ff_restricted(goal_state, []) == 0
        acts = list(instantiations(bw2, goal_state, ROOT))
        assert h.program.h_ff_restricted(goal_state, acts) == 0

    def test_empty_set_raises_when_not_goal(self, bw2):
        with pytest.raises(EmptyActionSet):
            RestrictedFFHeuristic(bw2).program.h_ff_restricted(bw2.initial_state, [])

    def test_accepts_partial_action(self, bw2):
        from pslift.lifted import PartialAction
        h = RestrictedFFHeuristic(bw2)
        assert h(bw2.initial_state, PartialAction(bw2.schema("pickup"), ("a",))) == 2

    def test_interleaved_calls_are_stateless(self, bw2):
        h = RestrictedFFHeuristic(bw2).program.h_ff_restricted
        s0 = bw2.initial_state
        a_only = h(s0, [act(bw2, "pickup", "a")])
        b_only = h(s0, [act(bw2, "pickup", "b")])
        assert h(s0, [act(bw2, "pickup", "a")]) == a_only
        assert h(s0, [act(bw2, "pickup", "b")]) == b_only

    def test_inapplicable_action_raises(self, bw2):
        program = RestrictedFFHeuristic(bw2).program
        s0 = bw2.initial_state
        actions = [act(bw2, "pickup", "a"), act(bw2, "stack", "a", "b")]
        with pytest.raises(ValueError):
            program.h_ff_restricted(s0, actions)
        with pytest.raises(ValueError):
            program.relaxed_reach(s0, actions)

    def test_no_schema_rule_joins_before_the_gate(self, bw2, monkeypatch):
        """The gate enters after the layer-1 rules, so a schema rule's join
        there could only enumerate its body and fail at the gate step."""
        from pslift import relaxation
        program = RestrictedFFHeuristic(bw2).program
        schema_plans = {id(p) for r in program.rules if r.schema is not None for p in r.plans}
        entered = []
        descend = relaxation._descend

        def spy(plan, d, b, tables, known, derive):
            if id(plan) in schema_plans:
                entered.append(GATE in known)
            return descend(plan, d, b, tables, known, derive)

        monkeypatch.setattr(relaxation, "_descend", spy)
        s0 = bw2.initial_state
        actions = list(instantiations(bw2, s0, ROOT))
        for chosen in ([actions[0]], actions):
            program.relaxed_reach(s0, chosen)
            program.h_ff_restricted(s0, chosen)
        assert entered and all(entered)

    def test_gate_achiever_is_first_action(self, bw2):
        # the order of B is part of h: the gate's achiever is B[0]
        program = RestrictedFFHeuristic(bw2).program
        s0 = bw2.initial_state
        a, b = act(bw2, "pickup", "a"), act(bw2, "pickup", "b")
        for actions in ([a, b], [b, a]):
            reach = program.relaxed_reach(s0, actions)
            assert reach.layers[(EPSILON, ())] == 1
            assert reach.achievers[(EPSILON, ())][0] == actions[0]


def random_reachable_states(task, rng, count):
    states = [task.initial_state]
    state = task.initial_state
    for _ in range(count * 5):
        acts = list(instantiations(task, state, ROOT))
        if not acts:
            state = task.initial_state
            continue
        state = _apply_effects(task, state, rng.choice(acts))
        states.append(state)
    rng.shuffle(states)
    return states[:count]


class TestRestrictedReachability:
    """Reachability-level semantics of the restriction transform, against the
    grounded oracle on the original task."""

    @pytest.mark.parametrize("family,params,seed", [
        ("blocksworld", dict(blocks=3), 11),
        ("ferry-like", dict(cars=2, locations=2), 12),
        ("warehouse-like", dict(stacks=2, boxes=3, marked=1), 13),
    ])
    def test_full_and_singleton_sets(self, family, params, seed):
        task = generate_task(family, seed=seed, **params)
        program = DatalogProgram(task)
        rng = random.Random(seed)
        for state in random_reachable_states(task, rng, 5):
            actions = list(instantiations(task, state, ROOT))
            if not actions:
                continue
            # B = A_s: restricted reachability = plain reachability + epsilon
            reach = program.relaxed_reach(state, actions)
            plain, _ = oracles.relaxed_reachable(task, state)
            assert reach.atoms == plain | {(EPSILON, ())}
            # singleton B = {a}: equals plain reachability from s + add(a)
            action = rng.choice(actions)
            reach_one = program.relaxed_reach(state, [action])
            adds = oracles.ground_atoms(task, action.schema, action.args,
                                        action.schema.add)
            plus, _ = oracles.relaxed_reachable(task, state, extra_atoms=adds)
            assert reach_one.atoms == plus | {(EPSILON, ())}
