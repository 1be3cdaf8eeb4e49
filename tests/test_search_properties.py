"""Property test of search completeness (ROADMAP item 6): on random STRIPS
tasks, partial-space GBFS with the restricted FF heuristic and state-space
GBFS with FF solve exactly the tasks on which the breadth-first oracle finds
a plan, and every plan they return is valid. FF is infinite only on relaxed
dead ends, and both searches prune duplicates with a closed list over
finitely many states, so neither may give up on a solvable task.

The tasks of `random_strips_task` are shallow: about 57% hold their goal
initially, 24% are unsolvable and 6% need a plan of 1 step. So faults that
need depth show only on `deep_strips_task`, whose solvable tasks all need
plans of 3 or more steps (3 to 5 here): FF wrongly read as infinite from 2,
3 or 4 relaxed-plan actions on fails its property at 100 examples, and
passes the shallow one at 300."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.bench import validate_plan  # noqa: E402
from pslift.relaxation import FFHeuristic, RestrictedFFHeuristic  # noqa: E402
from pslift.search import SOLVED, UNSOLVABLE, gbfs_partial, gbfs_state  # noqa: E402

import oracles  # noqa: E402
from strategies import SETTINGS, deep_strips_task, random_strips_task  # noqa: E402


@settings(SETTINGS, max_examples=300)
@given(st.data())
def test_partial_and_state_search_solve_what_the_oracle_solves(data):
    check_search(random_strips_task(data))


@settings(SETTINGS, max_examples=100)
@given(st.data())
def test_search_on_deep_tasks_solves_what_the_oracle_solves(data):
    check_search(deep_strips_task(data))


def check_search(task) -> None:
    plan = oracles.bfs_plan(task)
    event("unsolvable" if plan is None else f"optimal plan of {len(plan)} steps")
    for result in (gbfs_partial(task, RestrictedFFHeuristic(task)),
                   gbfs_state(task, FFHeuristic(task))):
        assert result.status == (UNSOLVABLE if plan is None else SOLVED)
        if plan is not None:
            assert validate_plan(task, result.plan)
