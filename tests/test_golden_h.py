"""Identity gate of the FF relaxation: recorded h values, searches and
reachability layers must come out bit-identical.

`tests/fixtures/golden_h.json` holds, for a few generated instances searched
in both spaces with the FF heuristics, every evaluated node in the search's
own order with the h it got, plus each search's plan and counters, and the
`relaxed_reach` layers of a few states. Atoms are strings and partial actions
are (schema name, prefix), so the fixture does not depend on the order in
which a task interns its atoms. The test regenerates the instances, repeats
the searches and compares.

Regenerate the fixture (only when a change of h is intended) with

    PYTHONPATH=src python tests/test_golden_h.py
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from pslift.generators import generate_task
from pslift.lifted import instantiations
from pslift.relaxation import FFHeuristic, RestrictedFFHeuristic
from pslift.search import gbfs_partial, gbfs_state

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_h.json"

CASES = (
    ("blocksworld", {"blocks": 8}, 1),
    ("ferry-like", {"cars": 4, "locations": 4}, 1),
    ("warehouse-like", {"stacks": 3, "boxes": 5, "marked": 1}, 1),
)
SPACES = ("state", "partial")
LAYER_STATES_PER_SEARCH = 3


def _case_name(family, params, seed, space):
    shown = "".join(f"-{k}{v}" for k, v in params.items())
    return f"{family}{shown}-s{seed}/{space}"


def _state_strings(task, state) -> list[str]:
    return sorted(task.format_atom(i) for i in state)


def _rho_json(rho):
    return None if rho is None or rho.is_root else [rho.schema.name, list(rho.prefix)]


def _h_json(h):
    return None if h == math.inf else h


def _key_string(key) -> str:
    pred, args = key
    return f"{pred}({','.join(args)})"


def _layers_json(reach) -> dict:
    return {_key_string(k): v for k, v in sorted(reach.layers.items())}


def record_search(family, params, seed, space) -> dict:
    """Run one search, logging every heuristic call in order; then the
    relaxed_reach layers of a few evenly spaced logged nodes."""
    task = generate_task(family, seed=seed, **params)
    states: dict = {}
    nodes = []
    raw = []

    def state_id(state):
        key = tuple(_state_strings(task, state))
        return states.setdefault(key, len(states))

    if space == "state":
        heuristic = FFHeuristic(task)

        def h(state):
            value = heuristic(state)
            raw.append((state, None))
            nodes.append([state_id(state), None, _h_json(value)])
            return value

        result = gbfs_state(task, h)
    else:
        heuristic = RestrictedFFHeuristic(task)

        def h(state, rho):
            value = heuristic(state, rho)
            raw.append((state, rho))
            nodes.append([state_id(state), _rho_json(rho), _h_json(value)])
            return value

        result = gbfs_partial(task, h)

    layers = []
    picks = sorted({round(j * (len(raw) - 1) / max(LAYER_STATES_PER_SEARCH - 1, 1))
                    for j in range(LAYER_STATES_PER_SEARCH)})
    for i in picks:
        state, rho = raw[i]
        if rho is None:
            reach = heuristic.program.relaxed_reach(state)
        else:
            actions = list(instantiations(task, state, rho))
            if not actions:
                continue
            reach = heuristic.program.relaxed_reach(state, actions)
        layers.append({"node": i, "layers": _layers_json(reach)})

    st = result.stats
    return {
        "name": _case_name(family, params, seed, space),
        "status": result.status,
        "plan": [repr(a) for a in result.plan or []],
        "counters": [st.expansions, st.evaluations, st.generated],
        "states": [list(s) for s in states],
        "nodes": nodes,
        "layers": layers,
    }


def record_all() -> list[dict]:
    return [record_search(family, params, seed, space)
            for family, params, seed in CASES for space in SPACES]


def _load():
    with open(FIXTURE, encoding="utf-8") as f:
        return {case["name"]: case for case in json.load(f)["searches"]}


@pytest.mark.parametrize("family,params,seed,space", [
    (family, params, seed, space) for family, params, seed in CASES for space in SPACES
])
def test_golden_h(family, params, seed, space):
    expected = _load()[_case_name(family, params, seed, space)]
    got = record_search(family, params, seed, space)
    assert len(got["nodes"]) == len(expected["nodes"])
    for i, (g, e) in enumerate(zip(got["nodes"], expected["nodes"])):
        g_state = got["states"][g[0]]
        e_state = expected["states"][e[0]]
        assert (g_state, g[1], g[2]) == (e_state, e[1], e[2]), f"node {i}"
    assert got["layers"] == expected["layers"]
    assert got["plan"] == expected["plan"]
    assert got["counters"] == expected["counters"]
    assert got["status"] == expected["status"]


def test_fixture_size():
    nodes = sum(len(case["nodes"]) for case in _load().values())
    assert nodes >= 200


if __name__ == "__main__":
    searches = record_all()
    FIXTURE.write_text(json.dumps({"searches": searches}, indent=None,
                                  separators=(",", ":")) + "\n", encoding="utf-8")
    for case in searches:
        print(case["name"], case["status"], case["counters"], len(case["nodes"]), "nodes")
