"""Hypothesis strategies shared by the property tests. Import this module
only after `pytest.importorskip("hypothesis")`."""

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
# from the others, so that static atoms are common there.
_INDEX = st.integers(0, 59)
_PREDICATES = st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=4)
_ATOMS = {size: st.lists(st.tuples(_INDEX, _INDEX, _INDEX), max_size=size) for size in (3, 5)}
_EQUALITIES = st.lists(st.tuples(_INDEX, _INDEX, st.booleans()), max_size=2)
_OBJECTS = st.integers(1, 3)
_SIZE = st.integers(0, 3)


def random_strips_task(data) -> Task:
    """A random STRIPS task with up to 3 objects, 4 predicates of arity 0-2
    and 3 schemas of up to 3 parameters. Schema atoms mention parameters and
    objects; equality literals compare a parameter with a parameter or an
    object."""
    objects = [f"o{i}" for i in range(data.draw(_OBJECTS))]
    drawn = data.draw(_PREDICATES)
    predicates = [(f"p{i}", arity) for i, (arity, _) in enumerate(drawn)]
    static = [p for p, (_, is_static) in zip(predicates, drawn) if is_static]
    fluent = [p for p in predicates if p not in static]

    def atoms(preds, terms, size):
        """Distinct atoms over preds and terms, in drawn order."""
        if not preds:
            return ()
        out = {}
        for p, x, y in data.draw(_ATOMS[size]):
            name, arity = preds[p % len(preds)]
            out[Atom(name, tuple(terms[i % len(terms)] for i in (x, y)[:arity]))] = None
        return tuple(out)

    schemas = []
    for i in range(data.draw(_SIZE)):
        params = tuple(f"?v{j}" for j in range(data.draw(_SIZE)))
        terms = list(params) + objects
        add = atoms(fluent, terms, 3)
        delete = tuple(a for a in atoms(fluent, terms, 3) if a not in add)
        equalities = ()
        if params:
            equalities = tuple(
                (params[x % len(params)], terms[y % len(terms)], want)
                for x, y, want in data.draw(_EQUALITIES))
        schemas.append(ActionSchema(f"act{i}", params, atoms(predicates, terms, 3),
                                    add, delete, equalities))
    init = atoms(static, objects, 5) + atoms(fluent, objects, 5)
    goal = atoms(predicates, objects, 3)
    return Task("d", "q", predicates, schemas, objects, list(init), list(goal))
