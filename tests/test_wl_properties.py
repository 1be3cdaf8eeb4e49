"""WL refinement on tuple keys against the string-key oracle: on random
bipartite graphs and on AOAG and AEG graphs of generator walks, first with a
growing and then with a frozen dictionary, every feature vector equals the
oracle's item by item, in the same key order (`sparse_dot` sums in that
order), and the two dictionaries list the same keys with the same indices.

Each task's graphs run through one base graph, which keeps the first two
color ids of every fact vertex it has met. A random task is a list of object
colors that all its graphs share, as a planning task's objects do. After
every call, each fact vertex's iteration-1 id in the base must name the
dictionary's id of the refined key that it stands for. The later tests pass
sequences of graphs through one base, so that each graph is refined by
difference from the one before: explicit graphs, and graphs in key form
(`graphs.KeyGraph`), whose changed vertices are read from their graph keys.
A key-form graph must also give the vector of its explicit graph."""

import functools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.generators import generate_task  # noqa: E402
from pslift.graphs import (AEG_ENCODING, AOAG_ENCODING, KeyGraph, LabeledGraph,  # noqa: E402
                           aeg, aoag, object_colors)
from pslift.lifted import (ROOT, PartialAction, _apply_effects, children,  # noqa: E402
                           instantiations)
from pslift.wl import BaseGraph, ColorDictionary, wl_features  # noqa: E402

import oracles  # noqa: E402
from strategies import SETTINGS  # noqa: E402

_COLORS = st.lists(st.sampled_from("abc"), max_size=4)
# per graph, up to 6 facts, each a color and up to 3 argument picks; a pick
# is taken modulo the number of objects (60 is a multiple of 1 to 4)
_FACTS = st.lists(st.lists(st.tuples(st.sampled_from("abc"),
                                     st.lists(st.integers(0, 59), max_size=3)),
                           max_size=6),
                  min_size=1, max_size=3)
_PICK = st.integers(0, 10_000)
_PICKS = st.lists(_PICK, min_size=1, max_size=4)


def random_task(data) -> tuple:
    """(object colors, graphs): up to 4 objects of 3 colors, and up to 3
    graphs on them, each with up to 6 fact vertices of 3 colors and arity 0
    to 3 (arity 0 only if there are no objects), an object repeated in one
    fact included."""
    objects = data.draw(_COLORS)
    graphs = []
    for facts in data.draw(_FACTS):
        graphs.append(LabeledGraph(
            objects + [color for color, _ in facts],
            [tuple(k % len(objects) for k in picks) if objects else () for _, picks in facts]))
    return objects, graphs


@functools.cache
def walk_tasks() -> tuple:
    """(object colors, graphs) of three generator tasks: the AOAG and AEG
    graphs of the root and of every prefix of the taken action, along a
    random walk."""
    tasks = []
    for family, params in [("blocksworld", dict(blocks=4)),
                           ("ferry-like", dict(cars=2, locations=3)),
                           ("warehouse-like", dict(stacks=3, boxes=4, marked=1))]:
        task = generate_task(family, seed=0, **params)
        rng = random.Random(0)
        state = task.initial_state
        graphs = []
        for _ in range(6):
            action = rng.choice(list(instantiations(task, state, ROOT)))
            for rho in [ROOT] + [PartialAction(action.schema, action.args[:k])
                                 for k in range(len(action.args) + 1)]:
                graphs += [aoag(task, state, rho), aeg(task, state, rho)]
            state = _apply_effects(task, state, action)
        tasks.append((list(object_colors(task)), graphs))
    return tuple(tasks)


# two blocksworld tasks with the same object colors, so that a base trusted
# across tasks would diff one task's keys against the other's
_KEY_TASKS = [("blocksworld", dict(blocks=4), 0), ("blocksworld", dict(blocks=4), 1),
              ("ferry-like", dict(cars=2, locations=3), 0),
              ("warehouse-like", dict(stacks=3, boxes=4, marked=1), 0)]


@functools.cache
def key_walks() -> tuple:
    """(task, graphs) per task, encoding and search space: the key-form
    graphs of the nodes that a search would evaluate along a random walk, in
    that order. In the state space, these are the successors of each state
    of the walk; in the partial space, the nodes of each state's partial
    action tree, level by level, so that siblings follow each other."""
    walks = []
    for family, params, seed in _KEY_TASKS:
        task = generate_task(family, seed=seed, **params)
        for encoding in (AOAG_ENCODING, AEG_ENCODING):
            for space in ("state", "partial"):
                rng = random.Random(seed)
                state = task.initial_state
                keys = []
                for _ in range(8):
                    actions = list(instantiations(task, state, ROOT))
                    if space == "state":
                        keys += [encoding.key(task, _apply_effects(task, state, action), ROOT)
                                 for action in actions]
                    else:
                        level = [ROOT]
                        while level:
                            keys += [encoding.key(task, state, rho) for rho in level]
                            level = [child for rho in level for child in children(task, state, rho)]
                    state = _apply_effects(task, state, rng.choice(actions))
                walks.append((task, [KeyGraph(encoding, task, key) for key in keys]))
    return tuple(walks)


def draw_tasks(data, count: int) -> list:
    """`count` tasks, each a random one or a few graphs of a walk task."""
    tasks = []
    for _ in range(count):
        if data.draw(st.booleans()):
            tasks.append(random_task(data))
        else:
            objects, graphs = walk_tasks()[data.draw(_PICK) % len(walk_tasks())]
            picks = data.draw(_PICKS)
            tasks.append((objects, [graphs[k % len(graphs)] for k in picks]))
    return tasks


def check_base(base: BaseGraph, dictionary: ColorDictionary) -> None:
    """Every fact slot (color, args) of the base with a known iteration-1 id
    names the refined key of a fact vertex of that color on the objects
    `args`, in the string form."""
    if len(base.levels) < 2:
        return
    index = dict(dictionary.items())
    initial, first = base.levels[:2]
    for s in range(len(base.objects), len(base.keys)):
        idx = first[s]
        if idx is None or idx < 0:
            continue
        color, args = base.keys[s]
        assert initial[s] == index["c|" + color]
        pairs = ";".join(f"{label},{index['c|' + base.objects[u]]}"
                         for label, u in enumerate(args, 1))
        assert index.get(f"s|{initial[s]}|{pairs}") == idx


@settings(SETTINGS)
@given(st.data())
def test_tuple_keys_match_string_keys(data):
    iterations = data.draw(st.integers(0, 3))
    dictionary, oracle = ColorDictionary(), ColorDictionary()
    grown = draw_tasks(data, data.draw(st.integers(1, 3)))
    bases = [BaseGraph() for _ in range(len(grown) + 2)]
    for phase in (grown, grown + draw_tasks(data, 2)):
        for (_, graphs), base in zip(phase, bases):
            for graph in graphs:
                fv = wl_features(graph, iterations, dictionary, base=base)
                assert list(fv.items()) == list(
                    oracles.string_wl_features(graph, iterations, oracle).items())
                assert list(dictionary.items()) == list(oracle.items())
                check_base(base, dictionary)
        dictionary.freeze()
        oracle.freeze()


# Refinement by difference: a base graph kept from call to call.

# one step of a sequence: an edit (0 remove, 1 retag, 2 repeat, else add), its
# position, color and argument picks, and a new iteration count if the last
# integer is 0
_STEP = st.tuples(st.integers(0, 4), _PICK, _PICK, st.lists(st.integers(0, 59), max_size=3),
                  st.integers(0, 4))
_STEPS = st.lists(_STEP, min_size=1, max_size=10)
# up to 12 objects: a set of more than 8 small ints need not iterate in order
_OBJECTS = st.lists(st.sampled_from("abc"), max_size=12)


def edited(graph: LabeledGraph, objects: list, step) -> LabeledGraph:
    """`graph` after the edit of `step`: a fact vertex removed, given another
    color, repeated or added, at a position that shifts the vertices after
    it."""
    kind, at, pick, args, _ = step
    facts = list(zip(graph.colors[len(objects):], graph.args))
    if facts and kind == 0:
        del facts[at % len(facts)]
    elif facts and kind == 1:
        j = at % len(facts)
        facts[j] = ("abc"[pick % 3], facts[j][1])
    elif facts and kind == 2:
        facts.insert(at % (len(facts) + 1), facts[pick % len(facts)])
    else:
        facts.insert(at % (len(facts) + 1),
                     ("abc"[pick % 3], tuple(k % len(objects) for k in args) if objects else ()))
    return LabeledGraph(objects + [color for color, _ in facts], [args for _, args in facts])


def draw_sequences(data, count: int) -> list:
    """`count` tasks, each (object colors, [(graph, iterations), ...]): the
    edits of a graph that starts with no fact vertices, or a run of
    consecutive graphs of one kind of a walk task. The iteration count
    changes now and then."""
    tasks = []
    for _ in range(count):
        iterations = data.draw(st.integers(0, 3))
        if data.draw(st.booleans()):
            objects = data.draw(_OBJECTS)
            graph = LabeledGraph(list(objects), [])
            sequence = []
            for step in data.draw(_STEPS):
                graph = edited(graph, objects, step)
                if not step[-1]:
                    iterations = (iterations + 1) % 4
                sequence.append((graph, iterations))
        else:
            objects, graphs = walk_tasks()[data.draw(_PICK) % len(walk_tasks())]
            # AOAG and AEG graphs alternate in a walk; take one kind
            graphs = graphs[data.draw(_PICK) % len(graphs):][::2]
            sequence = [(graph, iterations) for graph in graphs[:data.draw(st.integers(1, 8))]]
        tasks.append((objects, sequence))
    return tasks


_TOGGLES = st.lists(st.tuples(_PICK, _PICK), min_size=1, max_size=8)


def toggled(graph: KeyGraph, pool: list, toggles) -> list:
    """Key-form graphs of `graph`'s key after each of a run of toggles, each
    of which adds an atom of `pool` to one of the key's atom sets, or drops
    it from there, so that atoms leave and enter alone too."""
    key = graph.key
    graphs = []
    for at, pick in toggles:
        parts = [k for k, part in enumerate(key) if isinstance(part, frozenset)]
        k = parts[pick % len(parts)]
        key = key[:k] + (key[k] ^ {pool[at % len(pool)]},) + key[k + 1:]
        graphs.append(KeyGraph(graph.encoding, graph.task, key))
    return graphs


def draw_key_sequences(data, count: int) -> list:
    """`count` tasks, each (object colors, [(graph, iterations), ...]): a run
    of consecutive nodes of a key walk, or a node of one and the keys of
    toggling atoms in it, each node in key form or, one time in four, as
    its explicit graph."""
    tasks = []
    for _ in range(count):
        iterations = data.draw(st.integers(0, 3))
        task, graphs = key_walks()[data.draw(_PICK) % len(key_walks())]
        start = data.draw(_PICK) % len(graphs)
        if data.draw(st.booleans()):
            run = graphs[start:start + data.draw(st.integers(1, 12))]
        else:
            pool = sorted(frozenset().union(*(part for graph in graphs for part in graph.key
                                              if isinstance(part, frozenset))))
            run = [graphs[start]] + toggled(graphs[start], pool, data.draw(_TOGGLES))
        forms = data.draw(st.lists(st.integers(0, 3), min_size=len(run), max_size=len(run)))
        tasks.append((list(object_colors(task)),
                      [(graph if keyed else graph.encoding.build(task, graph.key), iterations)
                       for graph, keyed in zip(run, forms)]))
    return tasks


def check_sequences(phases, base) -> None:
    """Each phase's tasks through the one `base`, against the string-key
    oracle, with a dictionary made for this call, growing in the first phase
    and frozen after it. A key-form graph is checked against its explicit graph,
    which must then give the same vector without a base and add nothing to
    the dictionary."""
    dictionary, oracle = ColorDictionary(), ColorDictionary()
    for phase in phases:
        for _, sequence in phase:
            for graph, iterations in sequence:
                fv = wl_features(graph, iterations, dictionary, base=base)
                keyed = isinstance(graph, KeyGraph)
                if keyed:
                    graph = graph.encoding.build(graph.task, graph.key)
                assert list(fv.items()) == list(
                    oracles.string_wl_features(graph, iterations, oracle).items())
                assert list(dictionary.items()) == list(oracle.items())
                check_base(base, dictionary)
                if keyed:
                    size = len(dictionary)
                    assert list(wl_features(graph, iterations, dictionary).items()) == list(
                        fv.items())
                    assert len(dictionary) == size
        dictionary.freeze()
        oracle.freeze()


@settings(SETTINGS)
@given(st.data())
def test_refinement_by_difference_matches_string_keys(data):
    """Graphs that differ by added, removed, retagged and repeated fact
    vertices, AOAG and AEG graphs of walks, and changes of the object list
    and of the iteration count, through one base shared by every task."""
    grown = draw_sequences(data, data.draw(st.integers(1, 3)))
    check_sequences([grown, grown + draw_sequences(data, 2)], BaseGraph())


def test_refinement_by_difference_on_whole_walks():
    """The AOAG graphs and then the AEG graphs of each of the three walks, in
    walk order, at 1 to 3 iterations."""
    for iterations in (1, 2, 3):
        tasks = [(objects, [(graph, iterations) for graph in graphs[kind::2]])
                 for objects, graphs in walk_tasks() for kind in (0, 1)]
        check_sequences([tasks, tasks], BaseGraph())


# Refinement by difference in key form.

@settings(SETTINGS)
@given(st.data())
def test_key_form_matches_explicit_graphs_and_string_keys(data):
    """Runs of key walks in both spaces and encodings, some nodes given as
    explicit graphs, with explicit sequences between them, through one
    base shared by every task."""
    grown = draw_key_sequences(data, data.draw(st.integers(1, 3)))
    grown += draw_sequences(data, data.draw(st.integers(0, 1)))
    check_sequences([grown, grown + draw_key_sequences(data, 2)], BaseGraph())


def test_key_form_on_whole_walks():
    """Every key walk in its order, at 2 and 3 iterations."""
    for iterations in (2, 3):
        tasks = [(list(object_colors(task)), [(graph, iterations) for graph in graphs])
                 for task, graphs in key_walks()]
        check_sequences([tasks, tasks], BaseGraph())


def test_one_base_across_forms_tasks_and_encodings():
    """One base fed an explicit graph, then key-form graphs, then explicit
    ones, then the key-form graphs of another task with the same object
    colors, and of another encoding, restarts at each change. It restarts
    too when the next nodes of its last graph come with another dictionary."""
    walks = key_walks()
    (task, aoag_state), (_, aoag_partial), (_, aeg_state) = walks[0], walks[1], walks[2]
    other, other_aoag = walks[4]
    assert other is not task and object_colors(other) == object_colors(task)
    explicit = [(graph.encoding.build(task, graph.key), 2) for graph in aoag_partial[10:13]]
    sequence = (explicit[:1] + [(graph, 2) for graph in aoag_partial[1:5]] + explicit[1:]
                + [(graph, 2) for graph in aoag_state[3:6] + aeg_state[3:6] + aoag_partial[5:8]])
    objects = list(object_colors(task))
    tasks = [(objects, sequence), (objects, [(graph, 2) for graph in other_aoag[3:6]]),
             (objects, sequence)]
    base = BaseGraph()
    check_sequences([tasks, tasks], base)
    # the base's last graph is aoag_partial[7]
    later = [(objects, [(graph, 2) for graph in aoag_partial[8:11]])]
    check_sequences([later, later], base)


def test_key_walks_cover_the_cases():
    """The key walks hold AOAG nodes with more than one action, AEG nodes
    with optional effects, and consecutive keys where a goal atom leaves the
    state (its vertex goes from `ag` to `ug`)."""
    many_actions = optional = goal_left = 0
    for task, graphs in key_walks():
        keys = [graph.key for graph in graphs]
        if graphs[0].encoding is AOAG_ENCODING:
            many_actions += sum(len(key[1]) > 1 for key in keys)
        else:
            optional += sum(bool(key[1] or key[2]) for key in keys)
        goal_left += sum(bool((old[0] - key[0]) & task.goal_fluent)
                         for old, key in zip(keys, keys[1:]))
    assert many_actions and optional and goal_left
