"""Hypothesis strategies shared by the property tests. Import this module
only after `pytest.importorskip("hypothesis")`."""

from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st

from pslift.pddl import ActionSchema, Atom, Task

# derandomized and bounded: every run checks the same examples and leaves no
# example database behind
SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)

# A task is drawn through fixed strategies of small integers that pick
# predicates and terms by index modulo their count, so a draw builds no new
# strategy. 60 is a multiple of every count from 1 to 6, so each pick is
# uniform. Each predicate is drawn static with even odds and then appears in
# no effect; the initial state draws atoms of the static predicates apart
# from the others, so that static atoms are common there. A schema may get a
# first precondition p(?v, ?v) of a binary p, so that a join often binds a
# variable at one position of an atom and must compare it at another.
_INDEX = st.integers(0, 59)
_PREDICATES = st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=4)
_ATOMS = {size: st.lists(st.tuples(_INDEX, _INDEX, _INDEX), max_size=size) for size in (3, 5)}
_REPEATED = st.lists(st.tuples(_INDEX, _INDEX).map(lambda t: t + t[1:]), max_size=1)
_EQUALITIES = st.lists(st.tuples(_INDEX, _INDEX, st.booleans()), max_size=2)
_OBJECTS = st.integers(0, 3)
_SIZE = st.integers(0, 3)
_CHAIN = st.integers(4, 5)
_LINKS = st.lists(st.tuples(_INDEX, _INDEX), max_size=3)


def random_strips_task(data) -> Task:
    """A random STRIPS task with 0-3 objects, 4 predicates of arity 0-2
    and 3 schemas of up to 3 parameters. Schema atoms mention parameters and
    objects; equality literals compare a parameter with a parameter or an
    object."""
    objects = [f"o{i}" for i in range(data.draw(_OBJECTS))]
    return Task("d", "q", *_random_parts(data, objects))


def deep_strips_task(data) -> Task:
    """A task whose plans all have at least 3 steps: a random task of
    `random_strips_task`, joined with a token that `hop(?x, ?y)` moves along
    a static `link` over 4 or 5 cells, from the first cell to the last,
    which the goal asks for. Besides the chain c0 -> c1 -> ..., drawn links
    only lead back or stay, so no hop skips ahead. A static `item`
    precondition on each parameter keeps the random schemas to the random
    task's objects, as a type would."""
    objects = [f"o{i}" for i in range(data.draw(_OBJECTS))]
    predicates, schemas, objects, init, goal = _random_parts(data, objects)
    cells = [f"c{i}" for i in range(data.draw(_CHAIN))]
    n = len(cells)
    links = [(i, i + 1) for i in range(n - 1)]
    links += [(max(x % n, y % n), min(x % n, y % n)) for x, y in data.draw(_LINKS)]
    schemas = [replace(s, pre=s.pre + tuple(Atom("item", (p,)) for p in s.params))
               for s in schemas]
    schemas.append(ActionSchema("hop", ("?x", "?y"),
                                (Atom("at", ("?x",)), Atom("link", ("?x", "?y"))),
                                (Atom("at", ("?y",)),), (Atom("at", ("?x",)),)))
    init += [Atom("item", (o,)) for o in objects] + [Atom("at", (cells[0],))]
    init += dict.fromkeys(Atom("link", (cells[i], cells[j])) for i, j in links)
    goal.append(Atom("at", (cells[-1],)))
    return Task("d", "q", predicates + [("item", 1), ("at", 1), ("link", 2)], schemas,
                objects + cells, init, goal)


def _random_parts(data, objects):
    """(predicates, schemas, objects, initial atoms, goal atoms) of a random
    task over objects."""
    drawn = data.draw(_PREDICATES)
    predicates = [(f"p{i}", arity) for i, (arity, _) in enumerate(drawn)]
    static = [p for p, (_, is_static) in zip(predicates, drawn) if is_static]
    fluent = [p for p in predicates if p not in static]
    binary = [p for p in predicates if p[1] == 2]

    def atoms(preds, terms, strategy):
        """Distinct atoms over preds and terms, in drawn order; without
        terms, over the 0-ary preds only."""
        if not terms:
            preds = [p for p in preds if p[1] == 0]
        if not preds:
            return ()
        out = {}
        for p, x, y in data.draw(strategy):
            name, arity = preds[p % len(preds)]
            out[Atom(name, tuple(terms[i % len(terms)] for i in (x, y)[:arity]))] = None
        return tuple(out)

    schemas = []
    for i in range(data.draw(_SIZE)):
        params = tuple(f"?v{j}" for j in range(data.draw(_SIZE)))
        terms = list(params) + objects
        add = atoms(fluent, terms, _ATOMS[3])
        delete = tuple(a for a in atoms(fluent, terms, _ATOMS[3]) if a not in add)
        equalities = ()
        if params:
            equalities = tuple(
                (params[x % len(params)], terms[y % len(terms)], want)
                for x, y, want in data.draw(_EQUALITIES))
        pre = atoms(binary, params, _REPEATED) + atoms(predicates, terms, _ATOMS[3])
        schemas.append(ActionSchema(f"act{i}", params, tuple(dict.fromkeys(pre)),
                                    add, delete, equalities))
    init = atoms(static, objects, _ATOMS[5]) + atoms(fluent, objects, _ATOMS[5])
    goal = atoms(predicates, objects, _ATOMS[3])
    return predicates, schemas, objects, list(init), list(goal)
