"""Property tests of successor generation and of effects: on random STRIPS
tasks, `instantiations` and `children` list exactly what the brute-force
oracle finds, in the oracle's order (schema order, then lexicographic by
object declaration index), whether or not the state also holds the static
atoms; and the cached effects of `ground_effects` intern the atoms that an
uncached grounding interns, under the same ids."""

import copy
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.lifted import (  # noqa: E402
    ROOT, PartialAction, _apply_effects, children, ground_effects, instantiations)

import oracles  # noqa: E402
from strategies import SETTINGS, random_strips_task  # noqa: E402


def check_successors(task, state) -> None:
    expected = [(schema.name, args)
                for schema, args in oracles.oracle_applicable_actions(task, state)]
    for s in (state, state | task.static_atoms):
        assert [(a.name, a.args) for a in instantiations(task, s, ROOT)] == expected
        assert children(task, s, ROOT) == [
            PartialAction(schema, ()) for schema in task.schemas
            if any(name == schema.name for name, _ in expected)]
        for schema in task.schemas:
            completions = [args for name, args in expected if name == schema.name]
            for k in range(len(schema.params) + 1):
                for prefix in itertools.product(task.objects, repeat=k):
                    rho = PartialAction(schema, prefix)
                    below = [args for args in completions if args[:k] == prefix]
                    assert [a.args for a in instantiations(task, s, rho)] == below
                    nxt = dict.fromkeys(args[k] for args in below if k < len(args))
                    assert children(task, s, rho) == [
                        PartialAction(schema, prefix + (o,)) for o in nxt]


@settings(SETTINGS, max_examples=150)
@given(st.data())
def test_successors_match_the_oracle(data):
    task = random_strips_task(data)
    state = task.initial_state
    check_successors(task, state)
    for _ in range(data.draw(st.integers(0, 3))):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        state = _apply_effects(task, state, data.draw(st.sampled_from(actions)))
        check_successors(task, state)


def grounding_walk(task, ground, picks) -> list:
    """The effects, by `ground(task, action)`, of every applicable action at
    each state of a walk that takes action `pick % count` at each step, each
    action grounded twice."""
    seen = []
    state = task.initial_state
    for pick in picks:
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        for action in actions + actions:
            seen.append(((action.name, action.args), ground(task, action)))
        adds, dels = ground(task, actions[pick % len(actions)])
        state = (state - dels) | adds
    return seen


@settings(SETTINGS)
@given(st.data())
def test_cached_effects_intern_as_uncached_grounding(data):
    """A random task's deletes need not be preconditions, so a grounding
    that interned the deletes before the adds would give other ids."""
    task = random_strips_task(data)
    twin = copy.deepcopy(task)
    picks = data.draw(st.lists(st.integers(0, 59), max_size=4))
    assert grounding_walk(task, ground_effects, picks) == grounding_walk(
        twin, oracles.ground_effects, picks)
    assert [task.atom(i) for i in range(len(task._atoms))] == [
        twin.atom(i) for i in range(len(twin._atoms))]
