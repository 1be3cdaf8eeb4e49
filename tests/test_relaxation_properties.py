"""Tests of the goal cut-off: on random STRIPS tasks and on generator tasks,
at random-walk states, the heuristic values, which stop the fixpoint after
the layer that derives the goal, equal extraction from the full fixpoint of
`relaxed_reach`, and are inf exactly on the oracle's relaxed dead ends.
Restricted reachability with an action set B matches the grounded fixpoint
of the materialised restricted task."""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.generators import generate_task  # noqa: E402
from pslift.lifted import ROOT, _apply_effects, children, instantiations  # noqa: E402
from pslift.relaxation import DatalogProgram, RestrictedFFHeuristic  # noqa: E402

import oracles  # noqa: E402
from strategies import SETTINGS, random_strips_task  # noqa: E402


def check_cutoff(task, program, restricted, state) -> None:
    h = program.h_ff(state)
    assert h == program._extract(program.relaxed_reach(state))
    assert math.isinf(h) == (not oracles.relaxed_goal_reachable(task, state))
    for rho in children(task, state, ROOT):
        actions = list(instantiations(task, state, rho))
        full = restricted.program.relaxed_reach(state, actions)
        assert restricted(state, rho) == restricted.program._extract(full)


@settings(SETTINGS)
@given(st.data())
def test_cut_h_equals_full_fixpoint_h(data):
    task = random_strips_task(data)
    program = DatalogProgram(task)
    restricted = RestrictedFFHeuristic(task)
    state = task.initial_state
    check_cutoff(task, program, restricted, state)
    for _ in range(data.draw(st.integers(0, 3))):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        state = _apply_effects(task, state, data.draw(st.sampled_from(actions)))
        check_cutoff(task, program, restricted, state)


@pytest.mark.parametrize("family, params", [
    ("blocksworld", dict(blocks=5)),
    ("ferry-like", dict(cars=2, locations=3)),
    ("warehouse-like", dict(stacks=3, boxes=5, marked=1)),
])
def test_cut_h_on_generator_walks(family, params):
    """Generator tasks reach the goal well before the last layer, which the
    small random tasks above seldom do."""
    for seed in range(2):
        task = generate_task(family, seed=seed, **params)
        program = DatalogProgram(task)
        restricted = RestrictedFFHeuristic(task)
        rng = random.Random(seed)
        state = task.initial_state
        for _ in range(15):
            check_cutoff(task, program, restricted, state)
            actions = list(instantiations(task, state, ROOT))
            state = _apply_effects(task, state, rng.choice(actions))


@settings(SETTINGS)
@given(st.data())
def test_restricted_reach_matches_the_restricted_task(data):
    """At a random reachable state, with B from `instantiations` of a random
    node of the partial action tree, `relaxed_reach(state, B)` reaches the
    atoms, at the layers, that the oracle's fixpoint reaches on
    `restrict_task(task, B).as_task()`."""
    task = random_strips_task(data)
    state = task.initial_state
    for _ in range(data.draw(st.integers(0, 3))):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        state = _apply_effects(task, state, data.draw(st.sampled_from(actions)))
    kids = children(task, state, ROOT)
    if not kids:
        return
    rho = data.draw(st.sampled_from(kids))
    while not rho.is_full and data.draw(st.booleans()):
        rho = data.draw(st.sampled_from(children(task, state, rho)))
    actions = list(instantiations(task, state, rho))

    reach = DatalogProgram(task).relaxed_reach(state, actions)
    restricted = oracles.restrict_task(task, actions).as_task()
    start = oracles.intern_keys(restricted, oracles.state_to_keys(task, state))
    atoms, layers = oracles.relaxed_reachable(restricted, start)
    assert reach.atoms == atoms
    assert {key: reach.layers[key] for key in atoms} == layers
