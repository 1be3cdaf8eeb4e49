"""Hypothesis strategies shared by the property tests. Import this module
only after `pytest.importorskip("hypothesis")`."""

from hypothesis import settings
from hypothesis import strategies as st

from pslift.pddl import ActionSchema, Atom, Task

# derandomized and bounded: every run checks the same examples and leaves no
# example database behind
SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def random_strips_task(data) -> Task:
    """A random STRIPS task with up to 3 objects, 4 predicates of arity 0-2
    and 3 schemas of up to 3 parameters. Schema atoms mention parameters and
    objects; equality literals compare a parameter with a parameter or an
    object."""
    objects = [f"o{i}" for i in range(data.draw(st.integers(1, 3)))]
    arities = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    predicates = [(f"p{i}", k) for i, k in enumerate(arities)]

    def atoms(terms, **kw):
        atom = st.sampled_from(predicates).flatmap(lambda p: st.tuples(
            st.just(p[0]), st.tuples(*[st.sampled_from(terms)] * p[1])))
        return data.draw(st.lists(atom, unique=True, **kw).map(
            lambda keys: tuple(Atom(p, args) for p, args in keys)))

    schemas = []
    for i in range(data.draw(st.integers(0, 3))):
        params = tuple(f"?v{j}" for j in range(data.draw(st.integers(0, 3))))
        terms = list(params) + objects
        add = atoms(terms, max_size=3)
        delete = tuple(a for a in atoms(terms, max_size=3) if a not in add)
        equalities = ()
        if params:
            equalities = tuple(data.draw(st.lists(st.tuples(
                st.sampled_from(params), st.sampled_from(terms), st.booleans()),
                max_size=2)))
        schemas.append(ActionSchema(f"act{i}", params, atoms(terms, max_size=3),
                                    add, delete, equalities))
    init = atoms(objects, max_size=5)
    goal = atoms(objects, max_size=3)
    return Task("d", "q", predicates, schemas, objects, list(init), list(goal))
