import random

import pytest

from pslift.generators import generate_task
from pslift.lifted import (
    ROOT,
    GroundAction,
    NotApplicable,
    PartialAction,
    apply,
    children,
    decompose,
    instantiations,
    is_applicable,
)

import oracles
from pslift.pddl import ActionSchema, Atom, Task
from pslift.relaxation import FFHeuristic, RestrictedFFHeuristic
from pslift.search import gbfs_partial, gbfs_state


def act(task, name, *args):
    return GroundAction(task.schema(name), args)


def atoms(task, state):
    return {str(task.atom(i)) for i in state}


class TestApplicability:
    def test_pickup_applicable_in_init(self, bw2):
        assert is_applicable(bw2, bw2.initial_state, act(bw2, "pickup", "a"))

    def test_stack_blocked_without_holding(self, bw2):
        assert not is_applicable(bw2, bw2.initial_state, act(bw2, "stack", "a", "b"))

    def test_empty_precondition_always_applicable(self):
        task = Task("d", "p", [("p", 1)], [ActionSchema("go", (), (), (), ())], ["o"], [], [])
        assert is_applicable(task, task.initial_state, GroundAction(task.schema("go"), ()))


class TestApply:
    def test_pickup_effects(self, bw2):
        s1 = apply(bw2, bw2.initial_state, act(bw2, "pickup", "a"))
        assert atoms(bw2, s1) == {"holding(a)", "ontable(b)", "clear(b)"}

    def test_noop_effects_identity(self):
        task = Task("d", "p", [("p", 1)], [ActionSchema("go", (), (), (), ())], ["o"],
                    [Atom("p", ("o",))], [])
        s = task.initial_state
        assert apply(task, s, GroundAction(task.schema("go"), ())) == s

    def test_pickup_putdown_roundtrip(self, bw2):
        s0 = bw2.initial_state
        s1 = apply(bw2, s0, act(bw2, "pickup", "a"))
        s2 = apply(bw2, s1, act(bw2, "putdown", "a"))
        assert s2 == s0

    def test_not_applicable_raises(self, bw2):
        with pytest.raises(NotApplicable):
            apply(bw2, bw2.initial_state, act(bw2, "stack", "a", "b"))


class TestSpecificity:
    def test_root_is_zero(self):
        assert ROOT.specificity() == 0

    def test_schema_only_is_one(self, bw2):
        assert PartialAction(bw2.schema("stack"), ()).specificity() == 1

    def test_prefix_counts(self, bw2):
        assert PartialAction(bw2.schema("stack"), ("b",)).specificity() == 2
        assert PartialAction(bw2.schema("stack"), ("b", "a")).specificity() == 3

    def test_decompose_increasing(self, bw2):
        chain = decompose(act(bw2, "stack", "b", "a"))
        assert [r.specificity() for r in chain] == [0, 1, 2, 3]


class TestChildren:
    def test_root_children_bw2(self, bw2):
        kids = children(bw2, bw2.initial_state, ROOT)
        assert kids == [PartialAction(bw2.schema("pickup"), ())]

    def test_pickup_children(self, bw2):
        kids = children(bw2, bw2.initial_state, PartialAction(bw2.schema("pickup"), ()))
        assert kids == [
            PartialAction(bw2.schema("pickup"), ("a",)),
            PartialAction(bw2.schema("pickup"), ("b",)),
        ]

    def test_stack_scenario_children(self, bw3_stack):
        rho = PartialAction(bw3_stack.schema("stack"), ("b",))
        kids = children(bw3_stack, bw3_stack.initial_state, rho)
        assert [k.prefix for k in kids] == [("b", "a"), ("b", "c")]

    def test_full_partial_action_has_no_children(self, bw2):
        assert children(bw2, bw2.initial_state, PartialAction(bw2.schema("pickup"), ("a",))) == []


class TestInstantiations:
    def test_root_yields_applicable_set(self, bw2):
        got = list(instantiations(bw2, bw2.initial_state, ROOT))
        assert got == [act(bw2, "pickup", "a"), act(bw2, "pickup", "b")]

    def test_inapplicable_schema_yields_nothing(self, bw2):
        rho = PartialAction(bw2.schema("stack"), ())
        assert list(instantiations(bw2, bw2.initial_state, rho)) == []

    def test_full_rho_yields_itself(self, bw2):
        rho = PartialAction(bw2.schema("pickup"), ("a",))
        assert list(instantiations(bw2, bw2.initial_state, rho)) == [act(bw2, "pickup", "a")]


class TestActionContract:
    """A ground action is the full partial action of the same schema and
    arguments: one type, one equality, one hash and one printed form."""

    def test_ground_action_is_the_full_partial_action(self, bw2):
        schema = bw2.schema("stack")
        ground, full = GroundAction(schema, ("a", "b")), PartialAction(schema, ("a", "b"))
        assert ground == full and full == ground
        assert hash(ground) == hash(full)
        assert repr(ground) == repr(full) == "(stack a b)"
        assert ground.name == "stack" and ground.args == ("a", "b")
        assert ground != PartialAction(schema, ("a",))
        assert ground != GroundAction(schema, ("b", "a"))
        assert ground != GroundAction(bw2.schema("unstack"), ("a", "b"))
        assert ground != ("stack", ("a", "b"))

    def test_wrong_arity_raises(self, bw2):
        with pytest.raises(ValueError, match="^stack expects 2 args$"):
            GroundAction(bw2.schema("stack"), ("a",))
        with pytest.raises(ValueError, match="^pickup expects 1 args$"):
            GroundAction(bw2.schema("pickup"), ("a", "b"))

    def test_both_search_spaces_plan_with_one_action_type(self):
        task = generate_task("blocksworld", seed=2, blocks=4)
        partial = gbfs_partial(task, RestrictedFFHeuristic(task))
        state = gbfs_state(task, FFHeuristic(task))
        assert partial.plan and state.plan
        assert {type(a) for a in partial.plan + state.plan} == {PartialAction}
        assert all(a.is_full for a in partial.plan + state.plan)


class TestDecompose:
    def test_stack_chain(self, bw2):
        stack = bw2.schema("stack")
        chain = decompose(act(bw2, "stack", "b", "a"))
        assert chain == [
            ROOT,
            PartialAction(stack, ()),
            PartialAction(stack, ("b",)),
            PartialAction(stack, ("b", "a")),
        ]

    def test_unary_chain_length(self, bw2):
        assert len(decompose(act(bw2, "pickup", "a"))) == 3

    def test_zero_ary_chain(self):
        task = Task("d", "p", [("p", 0)], [ActionSchema("go", (), (), (), ())], ["o"], [], [])
        chain = decompose(GroundAction(task.schema("go"), ()))
        assert len(chain) == 2 and chain[0] is ROOT and chain[1].is_full


def random_states(task, rng, count, depth=6):
    """Walk to a few reachable states; includes the initial state."""
    from pslift.lifted import _apply_effects
    states = [task.initial_state]
    state = task.initial_state
    for _ in range(count * depth):
        acts = list(instantiations(task, state, ROOT))
        if not acts:
            state = task.initial_state
            continue
        state = _apply_effects(task, state, rng.choice(acts))
        states.append(state)
    rng.shuffle(states)
    return states[:count]


SMALL_TASKS = [
    ("blocksworld", dict(blocks=3), 3),
    ("blocksworld", dict(blocks=4), 4),
    ("ferry-like", dict(cars=2, locations=2), 5),
    ("warehouse-like", dict(stacks=2, boxes=3, marked=1), 7),
]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("family,params,seed", SMALL_TASKS)
    def test_instantiations_match_ground_all(self, family, params, seed):
        task = generate_task(family, seed=seed, **params)
        rng = random.Random(seed)
        for state in random_states(task, rng, 6):
            expected = {
                (schema.name, args)
                for schema, args in oracles.oracle_applicable_actions(task, state)
            }
            got = {(a.schema.name, a.args) for a in instantiations(task, state, ROOT)}
            assert got == expected

    @pytest.mark.parametrize("family,params,seed", SMALL_TASKS)
    def test_children_prune_exactly(self, family, params, seed):
        """A child exists iff brute-force grounding finds a completion."""
        task = generate_task(family, seed=seed, **params)
        rng = random.Random(seed + 1)
        for state in random_states(task, rng, 4):
            applicable = oracles.oracle_applicable_actions(task, state)
            by_schema = {}
            for schema, args in applicable:
                by_schema.setdefault(schema.name, set()).add(args)
            got_root = {c.schema.name for c in children(task, state, ROOT)}
            assert got_root == set(by_schema)
            for schema_name, arg_sets in by_schema.items():
                schema = task.schema(schema_name)
                for args in arg_sets:
                    for k in range(len(args)):
                        rho = PartialAction(schema, args[:k])
                        kids = {c.prefix[-1] for c in children(task, state, rho)}
                        expected = {
                            full[k] for full in arg_sets if full[:k] == args[:k]
                        }
                        assert expected <= kids
                        # exactness: every child really has a completion
                        for c in children(task, state, rho):
                            assert any(
                                full[: k + 1] == c.prefix for full in arg_sets
                            )

    @pytest.mark.parametrize("family,params,seed", SMALL_TASKS)
    def test_tree_partition_property(self, family, params, seed):
        task = generate_task(family, seed=seed, **params)
        rng = random.Random(seed + 2)
        for state in random_states(task, rng, 3):
            frontier = [ROOT]
            while frontier:
                rho = frontier.pop()
                if rho.is_full:
                    continue
                kids = children(task, state, rho)
                whole = {(a.schema.name, a.args) for a in instantiations(task, state, rho)}
                union = set()
                for c in kids:
                    union |= {(a.schema.name, a.args) for a in instantiations(task, state, c)}
                assert whole == union
                frontier.extend(kids)

    @pytest.mark.parametrize("family,params,seed", SMALL_TASKS)
    def test_apply_matches_oracle(self, family, params, seed):
        task = generate_task(family, seed=seed, **params)
        rng = random.Random(seed + 3)
        for state in random_states(task, rng, 5):
            for schema, args in oracles.oracle_applicable_actions(task, state):
                action = GroundAction(schema, args)
                assert is_applicable(task, state, action)
                got = oracles.state_to_keys(task, apply(task, state, action))
                expected = oracles.oracle_apply(
                    task, oracles.state_to_keys(task, state), schema, args
                )
                assert got == expected


class TestOneJoinPerState:
    @pytest.mark.parametrize("family,params,seed", SMALL_TASKS)
    def test_whole_tree_joins_each_schema_once(self, family, params, seed, monkeypatch):
        """Every partial action's completions are a run of its parent's, so
        exploring a state's whole partial action tree joins each schema once."""
        from pslift import lifted
        task = generate_task(family, seed=seed, **params)
        joined = []
        join = lifted._join

        def spy(*args):
            joined.append(args[2].name)
            return join(*args)

        monkeypatch.setattr(lifted, "_join", spy)
        # distinct states, as the task keeps the index of the last one
        for state in dict.fromkeys(random_states(task, random.Random(seed + 4), 3)):
            joined.clear()
            frontier = [ROOT]
            while frontier:
                rho = frontier.pop()
                list(instantiations(task, state, rho))
                frontier.extend(children(task, state, rho))
            lifted.n_applicable(task, state)
            assert sorted(joined) == sorted(s.name for s in task.schemas)
