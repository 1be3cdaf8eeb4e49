"""Identity gate of the FF values along random walks: the restricted h of
every root child, and the plain h, of every state on a walk must come out
bit-identical.

`tests/fixtures/golden_walks.json` holds, for a few larger generated
instances (generator seed 0), a 40-step random walk from the initial state
(walk seed 0, one uniformly chosen applicable action per step). For every
state on the walk it records the action taken from it, the plain FF value,
and the restricted FF value of each child of the root, i.e. with B the
applicable actions of one schema. The first achiever of an atom depends on
the order in which the fixpoint enumerates rule bindings, so these values
catch a change of that order that the searches of `tests/test_golden_h.py`
may not visit.

Regenerate the fixture (only when a change of h is intended) with

    PYTHONPATH=src python tests/test_golden_walks.py
"""

from __future__ import annotations

import json
import math
import pathlib
import random

import pytest

from pslift.generators import generate_task
from pslift.lifted import ROOT, _apply_effects, children, instantiations
from pslift.relaxation import FFHeuristic, RestrictedFFHeuristic

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_walks.json"

WALKS = (
    ("blocksworld", {"blocks": 15}),
    ("blocksworld-large", {"blocks": 30}),
    ("ferry-like", {"cars": 4, "locations": 4}),
)
STEPS = 40


def _walk_name(family, params):
    return family + "".join(f"-{k}{v}" for k, v in params.items())


def _h_json(h):
    return None if h == math.inf else h


def record_walk(family, params) -> dict:
    """One row per state on the walk: [action taken or None, plain h,
    [[root child, restricted h], ...]]."""
    task = generate_task(family, seed=0, **params)
    plain = FFHeuristic(task)
    restricted = RestrictedFFHeuristic(task)
    rng = random.Random(0)
    state = task.initial_state
    rows = []
    for step in range(STEPS + 1):
        values = [[rho.schema.name, _h_json(restricted(state, rho))]
                  for rho in children(task, state, ROOT)]
        actions = list(instantiations(task, state, ROOT))
        action = rng.choice(actions) if step < STEPS and actions else None
        rows.append([repr(action) if action else None, _h_json(plain(state)), values])
        if action is None:
            break
        state = _apply_effects(task, state, action)
    return {"name": _walk_name(family, params), "rows": rows}


def _load():
    with open(FIXTURE, encoding="utf-8") as f:
        return {walk["name"]: walk for walk in json.load(f)["walks"]}


@pytest.mark.parametrize("family,params", WALKS, ids=[_walk_name(*w) for w in WALKS])
def test_golden_walk(family, params):
    expected = _load()[_walk_name(family, params)]["rows"]
    got = record_walk(family, params)["rows"]
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"state {i}"


def test_walks_evaluate_many_root_children():
    walks = _load().values()
    assert sum(len(row[2]) for walk in walks for row in walk["rows"]) >= 240
    assert all(len(walk["rows"]) == STEPS + 1 for walk in walks)


if __name__ == "__main__":
    walks = [record_walk(family, params) for family, params in WALKS]
    FIXTURE.write_text(json.dumps({"walks": walks}, indent=None,
                                  separators=(",", ":")) + "\n", encoding="utf-8")
    for walk in walks:
        evaluated = sum(len(row[2]) for row in walk["rows"])
        print(walk["name"], len(walk["rows"]), "states", evaluated, "restricted values")
