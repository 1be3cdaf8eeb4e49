import math
import random

import pytest

from pslift.generators import generate_task
from pslift.lifted import ROOT, PartialAction, children, instantiations, _apply_effects
from pslift.relaxation import (
    EPSILON,
    GATE,
    GOAL_KEY,
    EmptyActionSet,
    DatalogProgram,
    FFHeuristic,
    RestrictedFFHeuristic,
)

import oracles


def act(task, name, *args):
    return PartialAction(task.schema(name), args)


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


class TestCompiledPlans:
    @pytest.mark.parametrize("family,params", [
        ("blocksworld", dict(blocks=4)),
        ("warehouse-like", dict(stacks=2, boxes=3, marked=1)),
    ])
    def test_tasks_of_one_domain_share_each_plans_function(self, family, params):
        # every solve loads a fresh task: its plans must reuse the functions
        # compiled for the domain's earlier tasks, not compile them again
        from pslift.generators import generate
        from pslift.pddl import load_task

        (domain, first), (again, second) = (generate(family, seed=s, **params) for s in (0, 1))
        assert domain == again and first != second
        runs = []
        for task in (load_task(domain, first), load_task(domain, second)):
            list(instantiations(task, task.initial_state, ROOT))
            rules = list(DatalogProgram(task).rules)
            rules += [query[0] for key, query in task._info_cache.items() if key[0] == "@rule"]
            runs.append([plan.run for rule in rules for plan in rule.plans])
        assert runs[0] and len(runs[0]) == len(runs[1])
        assert all(a is b for a, b in zip(*runs))

    def test_each_completion_records_its_head(self, bw2, monkeypatch):
        # a completion puts each head that it appends to the layer's new
        # atoms, as its (pred, object ids) pair, in `known` at this layer,
        # with the rule and a binding that gives that head as its achiever;
        # checked after each plan's run, as a fixpoint without these records
        # would not end
        program = RestrictedFFHeuristic(bw2).program
        checked = []

        def spy(run):
            def join(tables, b, known, achievers, new, layer, rule, n):
                start = len(new)
                result = run(tables, b, known, achievers, new, layer, rule, n)
                for pred, ids in new[start:]:
                    h = program.numbering.key(pred, ids)
                    source, binding = achievers[h]
                    assert known[h] == layer and source is rule
                    head = [binding[rule.slots[a]] for a in rule.head[1]]
                    assert h == program.numbering.key(rule.head[0], head)
                    assert (pred, ids) == (rule.head[0], tuple(head))
                    checked.append(h)
                return result
            return join

        for plan in (p for r in program.rules for p in r.plans):
            monkeypatch.setattr(plan, "run", spy(plan.run))
        s0 = bw2.initial_state
        program.relaxed_reach(s0)
        program.relaxed_reach(s0, list(instantiations(bw2, s0, ROOT)))
        assert checked

    def test_a_second_task_of_a_domain_compiles_nothing(self, monkeypatch):
        # compiling is per domain: once one blocksworld task has written and
        # compiled its join plans, probes and index fills, a task of another
        # size reuses them all, and writes no plan
        import pslift.lifted as lifted
        import pslift.relaxation as relaxation

        written, compiled = [], []

        def join_steps(*args, **kwargs):
            written.append(args[5])
            return join_steps_of_module(*args, **kwargs)

        def define(source, kind, name):
            compiled.append(kind)
            return define_of_module(source, kind, name)

        join_steps_of_module, define_of_module = lifted._join_steps, lifted._define
        monkeypatch.setattr(lifted, "_join_steps", join_steps)
        monkeypatch.setattr(lifted, "_define", define)

        def build_and_evaluate(task):
            plain, restricted = FFHeuristic(task), RestrictedFFHeuristic(task)
            state = task.initial_state
            plain(state)
            for rho in [ROOT] + children(task, state, ROOT):
                restricted(state, rho)
            for program in (plain.program, restricted.program):
                for plan in (plan for rule in program.rules for plan in rule.plans):
                    assert plan.run is not None
            # every probe of the domain, whether or not a goal atom unifies
            # with its head
            _, probes, *_ = relaxation._written(task.schemas, plain.program.numbering.preds,
                                                 lifted._LOOPS_PER_FUNCTION)
            for probe in (probe for rule_probes in probes for probe in rule_probes):
                assert probe.run is not None

        lifted._query.cache_clear()
        relaxation._written.cache_clear()
        build_and_evaluate(generate_task("blocksworld", seed=0, blocks=4))
        assert written and {"join plan", "index fill"} <= set(compiled)
        del written[:], compiled[:]
        build_and_evaluate(generate_task("blocksworld", seed=1, blocks=7))
        assert compiled == []
        assert written == []

    @pytest.mark.parametrize("loops", [1, 2, 3])
    @pytest.mark.parametrize("family,params", [
        ("blocksworld", dict(blocks=4)),
        ("ferry-like", dict(cars=2, locations=3)),
        ("warehouse-like", dict(stacks=2, boxes=4, marked=1)),
    ])
    def test_plans_split_into_functions_find_the_same_bindings(self, monkeypatch, family,
                                                               params, loops):
        # splitting a plan's loops into functions of `loops` loops puts a
        # function boundary before, at and after every head step: the
        # successors, in order, and both h values must not change
        def walk(task, seed):
            plain, restricted = FFHeuristic(task), RestrictedFFHeuristic(task)
            state, rng, out = task.initial_state, random.Random(seed), []
            for _ in range(8):
                kids = list(instantiations(task, state, ROOT))
                nodes = [rho for parent in children(task, state, ROOT)
                         for rho in [parent] + children(task, state, parent)]
                out.append((kids, plain(state), [restricted(state, rho) for rho in nodes]))
                state = _apply_effects(task, state, rng.choice(kids))
            return out

        import pslift.lifted as lifted
        for seed in range(2):
            expected = walk(generate_task(family, seed=seed, **params), seed)
            with monkeypatch.context() as patch:
                patch.setattr(lifted, "_LOOPS_PER_FUNCTION", loops)
                assert walk(generate_task(family, seed=seed, **params), seed) == expected


    @pytest.mark.parametrize("loops", [1, 2, 3])
    def test_cut_offs_cross_function_boundaries(self, monkeypatch, loops):
        # done(?x) is bound at the first step; the second step binds ?y and
        # the fourth ?z, and each one's first match fails a later step. A
        # branch cut below a function boundary without a completion would
        # miss done(a): only the plan seeded at p(?x) runs at layer 1
        import pslift.lifted as lifted
        from pslift.pddl import load_task
        task = load_task("""(define (domain d) (:predicates (p ?x) (q ?x ?y) (r ?y) (s ?x ?y)
            (done ?x)) (:action finish :parameters (?x ?y ?z)
            :precondition (and (p ?x) (q ?x ?y) (r ?y) (s ?y ?z) (r ?z))
            :effect (done ?x)))""", """(define (problem e) (:domain d)
            (:objects a b1 b2 c1 c2) (:init (p a) (q a b1) (q a b2) (r b2) (s b2 c1)
            (s b2 c2) (r c2)) (:goal (done a)))""")
        whole = DatalogProgram(task)
        monkeypatch.setattr(lifted, "_LOOPS_PER_FUNCTION", loops)
        split = DatalogProgram(task)
        assert f"def join{loops}(" in split.rules[0].plans[0].source
        for program in (whole, split):
            reach = program.relaxed_reach(task.initial_state)
            assert oracles.named_layers(program, reach)[("done", ("a",))] == 1
            rule, binding = oracles.named_achievers(program, reach)[("done", ("a",))]
            assert rule.action_of(binding) == ("finish", ("a", "b2", "c2"))

    def test_a_capped_variable_keeps_its_first_k_plus_1_values_per_group(self):
        # only ?from != ?to reads ?from, so the plan seeded at at(?x,?from)
        # caps ?from at 2 values per ?x; each ?x needs both of its values,
        # one for each ?to, so a cap of 1 value, or one count for every ?x,
        # leaves a goal atom unreached
        from pslift.pddl import load_task
        task = load_task("""(define (domain d) (:predicates (at ?x ?l) (spot ?l) (seen ?x ?l))
            (:action look :parameters (?x ?from ?to)
             :precondition (and (at ?x ?from) (spot ?to) (not (= ?from ?to)))
             :effect (seen ?x ?to)))""", """(define (problem e) (:domain d)
            (:objects a b l1 l2) (:init (at a l1) (at a l2) (at b l1) (at b l2) (spot l1)
            (spot l2)) (:goal (and (seen a l1) (seen a l2) (seen b l1) (seen b l2))))""")
        program = DatalogProgram(task)
        assert "c0 = {}" in program.rules[0].plans[0].source
        layers = oracles.named_layers(program, program.relaxed_reach(task.initial_state))
        assert [layers.get(("seen", (x, l))) for x in "ab" for l in ("l1", "l2")] == [1] * 4
        assert program.h_ff(task.initial_state) == oracles.ff_reference(task, task.initial_state) == 4


class TestRelaxedReach:
    def test_bw2_everything_reachable(self, bw2):
        program = DatalogProgram(bw2)
        reach = program.relaxed_reach(bw2.initial_state)
        assert ("holding", ("a",)) in oracles.reached_atoms(program, reach)
        assert ("on", ("a", "b")) in oracles.reached_atoms(program, reach)
        oracle_atoms, _ = oracles.relaxed_reachable(bw2, bw2.initial_state)
        assert oracles.reached_atoms(program, reach) == oracle_atoms

    def test_empty_rule_program_reaches_only_facts(self):
        from pslift.pddl import Atom, Task
        task = Task("d", "q", [("p", 1), ("q", 1)], [], ["o"], [Atom("p", ("o",))],
                    [Atom("q", ("o",))])
        program = DatalogProgram(task)
        reach = program.relaxed_reach(task.initial_state)
        assert oracles.reached_atoms(program, reach) == frozenset({("p", ("o",))})

    def test_goal_state_derives_goal_at_layer_one(self, bw2):
        program = DatalogProgram(bw2)
        goal_state = frozenset(
            {bw2.intern("on", ("a", "b")), bw2.intern("ontable", ("b",)),
             bw2.intern("clear", ("a",)), bw2.intern("handempty", ())}
        )
        reach = program.relaxed_reach(goal_state)
        assert oracles.named_layers(program, reach)[("@goal", ())] == 1

    def test_full_fixpoint_runs_past_the_goal_layer(self, bw2):
        # the goal holds, so @goal is at layer 1; unstacking a and moving
        # the blocks reaches atoms at later layers
        program = DatalogProgram(bw2)
        goal_state = frozenset(
            {bw2.intern("on", ("a", "b")), bw2.intern("ontable", ("b",)),
             bw2.intern("clear", ("a",)), bw2.intern("handempty", ())}
        )
        layers = oracles.named_layers(program, program.relaxed_reach(goal_state))
        goal_layer = layers[("@goal", ())]
        assert max(layers.values()) > goal_layer
        _, oracle_layers = oracles.relaxed_reachable(bw2, goal_state)
        assert {k: v for k, v in layers.items()
                if not k[0].startswith("@")} == oracle_layers
        # the heuristic's own fixpoint stops at the goal's layer
        cut = oracles.named_layers(program, program._fixpoint(goal_state))
        assert max(cut.values()) == goal_layer

    def test_layers_match_grounded_hmax(self, bw2, bw3_stack, spanner_mini):
        for task in (bw2, bw3_stack, spanner_mini):
            program = DatalogProgram(task)
            layers = oracles.named_layers(program, program.relaxed_reach(task.initial_state))
            _, oracle_layers = oracles.relaxed_reachable(task, task.initial_state)
            for key, layer in oracle_layers.items():
                if key in layers:
                    assert layers[key] == layer, key


    def test_state_may_add_static_atoms(self, spanner_mini):
        # a static atom outside init: the state's facts extend the static ones
        task = spanner_mini
        state = task.initial_state | {task.intern("link", ("p1", "p3"))}
        program = DatalogProgram(task)
        layers = oracles.named_layers(program, program.relaxed_reach(state))
        _, oracle_layers = oracles.relaxed_reachable(task, state)
        assert {k: v for k, v in layers.items()
                if not k[0].startswith("@")} == oracle_layers
        assert layers[("at", ("bob", "p3"))] == 1

    def test_static_extension_stays_with_its_state(self, spanner_mini):
        # the extension is indexed for one evaluation only: a later state
        # without it, on the same program, must not see it
        task = spanner_mini
        program = DatalogProgram(task)
        s0 = task.initial_state
        shortcut = s0 | {task.intern("link", ("p1", "p3"))}
        for state in (shortcut, s0, shortcut, s0):
            plain, oracle_layers = oracles.relaxed_reachable(task, state)
            layers = oracles.named_layers(program, program.relaxed_reach(state))
            assert {k: v for k, v in layers.items()
                    if not k[0].startswith("@")} == oracle_layers
            assert program.h_ff(state) == oracles.optimal_relaxed_plan_length(task, state)
            actions = list(instantiations(task, state, ROOT))
            reached = oracles.reached_atoms(program, program.relaxed_reach(state, actions))
            assert reached == plain | {(EPSILON, ())}
            restricted = oracles.restrict_task(task, actions).as_task()
            start = oracles.intern_keys(restricted, oracles.state_to_keys(task, state))
            assert (program.h_ff_restricted(state, actions)
                    == oracles.optimal_relaxed_plan_length(restricted, start))
        assert program.h_ff(shortcut) == 1 and program.h_ff(s0) == 2


class TestObjectlessTask:
    def test_h_equals_the_reference_in_both_spaces(self):
        # no objects, no static facts and an empty state: layer 1 still runs,
        # and `go` reaches the goal there
        from pslift.pddl import load_task
        from conftest import ONE_STEP_DOMAIN, ONE_STEP_PROBLEM
        task = load_task(ONE_STEP_DOMAIN, ONE_STEP_PROBLEM)
        program, state = DatalogProgram(task), task.initial_state
        actions = list(instantiations(task, state, ROOT))
        assert [str(a) for a in actions] == ["(go)"]
        for chosen in (None, actions):
            want = oracles.ff_reference(task, state, chosen)
            assert want == 1
            for full in (False, True):
                assert program._extract(program._fixpoint(state, chosen, full)) == want
        assert FFHeuristic(task)(state) == 1
        assert RestrictedFFHeuristic(task)(state, ROOT) == 1


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
                layers = oracles.named_layers(program, program.relaxed_reach(state))
                hmax = layers[("@goal", ())] - 1  # goal rule adds a layer
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
        program = RestrictedFFHeuristic(bw2).program
        entered = []

        def spy(run):
            def join(tables, b, known, *rest):
                entered.append(GATE in known)
                return run(tables, b, known, *rest)
            return join

        for plan in (p for r in program.rules if r.schema is not None for p in r.plans):
            monkeypatch.setattr(plan, "run", spy(plan.run))
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
            assert oracles.named_layers(program, reach)[(EPSILON, ())] == 1
            assert oracles.named_achievers(program, reach)[(EPSILON, ())][0] == actions[0]

    def test_b_commits_the_gate_after_the_adds_of_its_first_action(self, bw2):
        # layer 1 holds only what B adds, committed in B's order: the adds
        # of B[0], then the gate, then the adds of B[1] not yet reached
        program = RestrictedFFHeuristic(bw2).program
        s0 = bw2.initial_state
        a, b = act(bw2, "pickup", "a"), act(bw2, "pickup", "b")
        for reach in (program.relaxed_reach(s0, [a, b]), program._fixpoint(s0, [a, b])):
            layers = oracles.named_layers(program, reach)
            assert [atom for atom, layer in layers.items() if layer == 1] == [
                ("holding", ("a",)), (EPSILON, ()), ("holding", ("b",))]


class TestGoalCut:
    """The heuristic values stop the fixpoint at the layer L that gives the
    last goal atom its achiever, answered by probes without running it, or
    after the adds of B at layer 1, or before layer 1 in a goal state."""

    def check_cut(self, program, monkeypatch, state, chosen, h_of):
        """h_of() evaluates an h path of program at state, with B = chosen
        if given. Its fixpoint holds the full fixpoint's atoms, layers and
        achievers of every layer below L, in the same order, then each goal
        atom not among them at L, in the goal rule's order, with the full
        fixpoint's achiever, and then only `@goal`, at L + 1; the layer-0
        atoms, and the adds of B with the gate, each stay one run. No plan
        of layer L runs. A dead end equals the full fixpoint."""
        runs, cuts = [], []

        def spy(run):
            def join(tables, b, known, achievers, new, layer, rule, n):
                runs.append(layer)
                return run(tables, b, known, achievers, new, layer, rule, n)
            return join

        with monkeypatch.context() as patch:
            for plan in (p for r in program.rules for p in r.plans):
                patch.setattr(plan, "run", spy(plan.run))
            extract = program._extract
            patch.setattr(program, "_extract", lambda reach: cuts.append(reach) or extract(reach))
            h = h_of()
        [cut] = cuts
        full = program.relaxed_reach(state, chosen)
        assert h == program._extract(full)
        if GOAL_KEY not in full.key_layers:
            # a dead end runs to the end
            assert cut.key_layers == full.key_layers
            assert cut.key_achievers == full.key_achievers
            return
        top = full.key_layers[GOAL_KEY]
        stop = top - 1
        numbering, index = program.numbering, program.task.object_index
        goal = [numbering.key(pred, [index[a] for a in args]) for pred, args in program.rules[-1].body]
        if stop == 0 or chosen and stop == 1:
            # the state or the adds of B reached the last goal atom, each
            # kept as one run: no rule runs at layer 1 with B
            kept = [key for key, layer in full.key_layers.items()
                    if layer <= stop and key != GOAL_KEY]
        else:
            kept = [key for key, layer in full.key_layers.items() if layer < stop]
            kept += [key for key in goal if key not in kept]
            assert all(full.key_layers[key] <= stop for key in goal)
        kept.append(GOAL_KEY)
        assert list(cut.key_layers.items()) == [(key, full.key_layers[key]) for key in kept]
        assert cut.key_achievers == {key: full.key_achievers[key] for key in kept
                                     if key in full.key_achievers}
        assert [key for key, layer in cut.key_layers.items() if layer >= top] == [GOAL_KEY]
        assert cut.key_layers[GOAL_KEY] == top
        assert all(layer < stop for layer in runs)

    @pytest.mark.parametrize("family, params", [
        ("blocksworld", dict(blocks=4)),
        ("ferry-like", dict(cars=2, locations=3)),
        ("warehouse-like", dict(stacks=3, boxes=4, marked=2)),
    ])
    def test_no_plan_runs_after_the_last_goal_atom(self, monkeypatch, family, params):
        for seed in range(2):
            task = generate_task(family, seed=seed, **params)
            plain, restricted = FFHeuristic(task), RestrictedFFHeuristic(task)
            program = restricted.program
            for state in random_reachable_states(task, random.Random(seed), 4):
                self.check_cut(plain.program, monkeypatch, state, None, lambda: plain(state))
                actions = list(instantiations(task, state, ROOT))
                for chosen in (actions, actions[::-1]) if actions else ():
                    self.check_cut(program, monkeypatch, state, chosen,
                                   lambda: program.h_ff_restricted(state, chosen))
                for rho in children(task, state, ROOT):
                    chosen = list(instantiations(task, state, rho))
                    self.check_cut(program, monkeypatch, state, chosen,
                                   lambda: restricted(state, rho))

    def test_goal_state_and_goal_reached_by_b(self, bw2, monkeypatch):
        # the goal holds, and then B[0] adds it, before the other adds of B
        # and the gate
        program = DatalogProgram(bw2)
        goal_state = frozenset(bw2.intern(*atom) for atom in (
            ("on", ("a", "b")), ("ontable", ("b",)), ("clear", ("a",)), ("handempty", ())))
        holding = frozenset(bw2.intern(*atom) for atom in (
            ("holding", ("a",)), ("ontable", ("b",)), ("clear", ("b",))))
        chosen = [act(bw2, "stack", "a", "b"), act(bw2, "putdown", "a")]
        self.check_cut(program, monkeypatch, goal_state, None, lambda: program.h_ff(goal_state))
        self.check_cut(program, monkeypatch, holding, chosen,
                       lambda: program.h_ff_restricted(holding, chosen))
        assert program.h_ff_restricted(holding, chosen) == 1

    def test_probes_find_the_first_binding_of_the_first_plan_of_the_first_rule(self):
        # g(o) has achievers at layer 2 from fin-a(a1,o), seeded at Δp(?x);
        # from fin-a(a2,o), a later binding of the same plan; from
        # fin-a(b,o), seeded at Δq(?x); and from fin-b(c,o), a later rule.
        # ?y is bound last, so no branch ends at a completion. Only the
        # first needs two actions below it, so a probe that keeps a later
        # binding, or runs the plans or the rules in another order, gives
        # h = 2, not 3
        from pslift.pddl import load_task
        task = load_task("""(define (domain d)
            (:predicates (s1 ?x) (s2 ?x) (t ?x) (w ?x) (k ?y) (p ?x) (q ?x) (r ?x) (g ?y))
            (:action pa :parameters (?x) :precondition (s1 ?x) :effect (p ?x))
            (:action pb :parameters (?x) :precondition (s2 ?x) :effect (p ?x))
            (:action mq :parameters (?x) :precondition (t ?x) :effect (q ?x))
            (:action mr :parameters (?x) :precondition (w ?x) :effect (r ?x))
            (:action fin-a :parameters (?x ?y) :precondition (and (p ?x) (q ?x) (k ?y))
             :effect (g ?y))
            (:action fin-b :parameters (?x ?y) :precondition (and (r ?x) (k ?y))
             :effect (g ?y)))""",
            """(define (problem e) (:domain d) (:objects a1 a2 b c o)
            (:init (s1 a1) (t a1) (s2 a2) (q a2) (p b) (t b) (w c) (k o)) (:goal (g o)))""")
        program, state = DatalogProgram(task), task.initial_state
        for reach in (program._fixpoint(state), program.relaxed_reach(state)):
            assert oracles.named_layers(program, reach)[("g", ("o",))] == 2
            rule, binding = oracles.named_achievers(program, reach)[("g", ("o",))]
            assert rule.action_of(binding) == ("fin-a", ("a1", "o"))
        assert program.h_ff(state) == oracles.ff_reference(task, state) == 3


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
            assert oracles.reached_atoms(program, reach) == plain | {(EPSILON, ())}
            # singleton B = {a}: equals plain reachability from s + add(a)
            action = rng.choice(actions)
            reach_one = program.relaxed_reach(state, [action])
            adds = oracles.ground_atoms(task, action.schema, action.args,
                                        action.schema.add)
            plus, _ = oracles.relaxed_reachable(task, state, extra_atoms=adds)
            assert oracles.reached_atoms(program, reach_one) == plus | {(EPSILON, ())}


# finish(?x) needs go, ok(?x) and c(?x); at layer 2 its first binding takes
# ?x from the first ok atom in the table's commit order, and each ok atom is
# derived at layer 1 from its raw atom, in the state's order of the raw
# atoms. finish(o1) needs start and prep(o1); finish(o2) needs mk(o2) too.
ORDER_DOMAIN = """
(define (domain order)
  (:predicates (raw ?x) (ok ?x) (c ?x) (m ?x) (idle) (go) (done))
  (:action start :parameters () :precondition (idle) :effect (go))
  (:action prep :parameters (?x) :precondition (raw ?x)
    :effect (and (ok ?x) (not (raw ?x))))
  (:action mk :parameters (?x) :precondition (m ?x) :effect (c ?x))
  (:action finish :parameters (?x) :precondition (and (go) (ok ?x) (c ?x))
    :effect (done)))
"""


def order_task(raw_first):
    """The order task with the raw atom of `raw_first` interned first."""
    from pslift.pddl import load_task
    raws = " ".join(f"(raw {o})" for o in (raw_first, "o2" if raw_first == "o1" else "o1"))
    return load_task(ORDER_DOMAIN, f"""(define (problem p) (:domain order)
        (:objects o1 o2) (:init (idle) {raws} (c o1) (m o2)) (:goal (done)))""")


class TestCommitOrder:
    def test_first_achiever_follows_the_commit_order(self):
        # within a predicate, the order of the state's atoms and of a layer's
        # new atoms picks the first achiever, and so h, as the reference does
        values = []
        for raw_first in ("o1", "o2"):
            task = order_task(raw_first)
            state = task.initial_state
            actions = list(instantiations(task, state, ROOT))
            assert FFHeuristic(task)(state) == oracles.ff_reference(task, state)
            assert (RestrictedFFHeuristic(task).program.h_ff_restricted(state, actions)
                    == oracles.ff_reference(task, state, actions))
            values.append(FFHeuristic(task)(state))
        # the state iterates its raw atoms in the order interned: the two
        # tasks differ only in that order, and their h differs
        assert values == [3, 4]


NUMBERING_DOMAIN = """
(define (domain numbered)
  (:constants c)
  (:predicates (p ?x) (q ?x ?y) (r ?x ?y ?z) (h) (done))
  (:action a :parameters (?x) :precondition (and (p ?x) (h))
    :effect (and (q ?x c) (not (h))))
  (:action b :parameters (?x ?y) :precondition (q ?x ?y)
    :effect (and (r ?x ?y c) (h)))
  (:action f :parameters () :precondition (r c c c) :effect (done)))
"""


class TestNumbering:
    @pytest.mark.parametrize("objects", ["", "o1 o2 o3"])
    def test_keys_round_trip_and_name_the_reached_atoms(self, objects):
        # with the constant as the task's only object, and with three more:
        # every atom of the full fixpoint, @object, @goal and @epsilon
        # included, has its own key, which names it back
        from pslift.pddl import load_task
        from pslift.relaxation import GOAL, GOAL_KEY
        task = load_task(NUMBERING_DOMAIN, f"""(define (problem p) (:domain numbered)
            (:objects {objects}) (:init (p c) (h)) (:goal (done)))""")
        program = DatalogProgram(task)
        numbering = program.numbering
        state = task.initial_state
        actions = list(instantiations(task, state, ROOT))
        for reach in (program.relaxed_reach(state), program.relaxed_reach(state, actions)):
            keys = list(reach.key_layers)
            layers = oracles.named_layers(program, reach)
            named = list(layers)
            assert len(set(named)) == len(keys)
            for key, (pred, args) in zip(keys, named):
                ids = tuple(task.object_index[o] for o in args)
                assert numbering.key(pred, ids) == key
                assert oracles.key_atom(numbering, key) == (pred, ids)
                assert layers[pred, args] == reach.key_layers[key]
            assert {"@object", GOAL}.issubset(pred for pred, _ in named)
            assert reach.key_layers[GOAL_KEY] == layers[(GOAL, ())]
        assert (EPSILON, ()) in layers and reach.key_layers[GATE] == 1
        plain, oracle_layers = oracles.relaxed_reachable(task, state)
        assert {k: v for k, v in oracles.named_layers(program, program.relaxed_reach(state)).items()
                if not k[0].startswith("@")} == oracle_layers
        assert oracles.reached_atoms(program, reach) == plain | {(EPSILON, ())}
        assert program.h_ff(state) == oracles.ff_reference(task, state) == 3


WEIGHTED_DOMAIN = """
(define (domain weighted)
  (:constants c)
  (:predicates (p ?x) (q ?x ?y) (r ?x ?y ?z) (h) (done))
  (:action a :parameters (?x) :precondition (and (p ?x) (h))
    :effect (and (q ?x c) (not (h))))
  (:action b :parameters (?x ?y) :precondition (and (q ?x c) (p ?y) (not (= ?x ?y)))
    :effect (and (r ?y c ?x) (h)))
  (:action d :parameters (?x ?y) :precondition (and (r ?x c ?y) (q ?y c) (p ?x))
    :effect (done)))
"""


class _Reads(dict):
    """A dict that records each key read by subscript."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def reference_reads(program, reach) -> set:
    """The keys whose layer extraction reads: `@goal`, then the body keys of
    each achiever it visits and the gate, each made by `Numbering.key` from
    the achiever's binding."""
    layers, achievers = reach.key_layers, reach.key_achievers
    key = program.numbering.key
    reads, seen, stack = set(), set(), [GOAL_KEY]
    while stack:
        k = stack.pop()
        if k in seen:
            continue
        reads.add(k)
        if layers[k] == 0:
            continue
        seen.add(k)
        source, binding = achievers[k]
        if binding is None:
            continue
        stack.extend(key(pred, [binding[source.slots[a]] for a in args])
                     for pred, args in source.body)
        if source.schema is not None and GATE in layers:
            stack.append(GATE)
    return reads


class TestExtractKeys:
    def test_body_keys_and_h_on_a_ternary_atom_with_a_constant(self):
        # extraction sums each body atom's key from its predicate id and the
        # weights of its binding's slots; in `(r ?x c ?y)` a variable sits
        # at weights p and p*n*n around the constant, so a wrong exponent or
        # slot gives another key
        from pslift.pddl import load_task
        from pslift.relaxation import ReachResult
        task = load_task(WEIGHTED_DOMAIN, """(define (problem p) (:domain weighted)
            (:objects o1 o2 o3) (:init (p o1) (p o2) (p o3) (h)) (:goal (done)))""")
        program = DatalogProgram(task)
        states, frontier = [], [task.initial_state]
        while frontier and len(states) < 12:
            state = frontier.pop(0)
            if state in states:
                continue
            states.append(state)
            frontier += [_apply_effects(task, state, a)
                         for a in instantiations(task, state, ROOT)]
        visited = 0
        for state in states:
            nodes = [None] + [list(instantiations(task, state, rho))
                              for rho in children(task, state, ROOT)]
            for actions in nodes:
                want = oracles.ff_reference(task, state, actions)
                for reach in (program._fixpoint(state, actions),
                              program._fixpoint(state, actions, full=True)):
                    layers = _Reads(reach.key_layers)
                    h = program._extract(ReachResult(layers, reach.key_achievers))
                    assert h == want
                    if h != math.inf:
                        assert layers.read == reference_reads(program, reach)
                        visited += any(oracles.key_atom(program.numbering, k)[0] == "r"
                                       for k in layers.read)
        assert visited
