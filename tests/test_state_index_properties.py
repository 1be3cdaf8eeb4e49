"""Property test of the per-state index of successor generation: the task
keeps the index of the last state asked about, so queries that alternate
between states, and queries on an equal state that is another object, must
still list what the brute-force oracle finds. Checked along random walks in
random STRIPS tasks and in the generator families."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.generators import generate_task  # noqa: E402
from pslift.graphs import _covers_all_applicable  # noqa: E402
from pslift.lifted import (  # noqa: E402
    ROOT, PartialAction, _apply_effects, children, instantiations, n_applicable)

import oracles  # noqa: E402
from strategies import SETTINGS, random_strips_task  # noqa: E402

FAMILIES = [
    ("blocksworld", dict(blocks=4)),
    ("ferry-like", dict(cars=2, locations=3)),
    ("warehouse-like", dict(stacks=3, boxes=4, marked=1)),
]


def check_state(task, state) -> None:
    expected = [(schema.name, args)
                for schema, args in oracles.oracle_applicable_actions(task, state)]
    assert [(a.name, a.args) for a in instantiations(task, state, ROOT)] == expected
    roots = children(task, state, ROOT)
    assert roots == [PartialAction(schema, ()) for schema in task.schemas
                     if any(name == schema.name for name, _ in expected)]
    assert n_applicable(task, state) == len(expected)
    for rho in roots:
        below = list(instantiations(task, state, rho))
        assert [(a.name, a.args) for a in below] == [
            (name, args) for name, args in expected if name == rho.schema.name]
        assert (_covers_all_applicable(task, state, below)
                == oracles.covers_all_applicable(task, state, below))


def check_walk(task, walk) -> None:
    """Each step's state, its predecessor, the state again, then two states
    equal to the predecessor that are other objects."""
    for prev, state in zip(walk, walk[1:]):
        copy = frozenset(set(prev))
        assert copy == prev and copy is not prev
        for s in (state, prev, state, copy, prev | task.static_atoms):
            check_state(task, s)


def draw_walk(data, task, steps: int) -> list:
    walk = [task.initial_state]
    for _ in range(steps):
        actions = list(instantiations(task, walk[-1], ROOT))
        if not actions:
            break
        walk.append(_apply_effects(task, walk[-1], data.draw(st.sampled_from(actions))))
    return walk


@settings(SETTINGS, max_examples=100)
@given(st.data())
def test_state_index_on_random_tasks(data):
    task = random_strips_task(data)
    walk = draw_walk(data, task, 2)
    check_state(task, walk[0])
    check_walk(task, walk)


@settings(SETTINGS, max_examples=12)
@given(st.data())
def test_state_index_on_generator_walks(data):
    family, params = data.draw(st.sampled_from(FAMILIES))
    task = generate_task(family, seed=data.draw(st.integers(0, 3)), **params)
    check_walk(task, draw_walk(data, task, 3))
