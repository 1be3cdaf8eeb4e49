import pathlib
import signal

import pytest

from pslift.pddl import load_task, parse_domain, parse_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# seconds a test may run before it fails; the slowest tier-1 test takes a
# few seconds, so a test past this is stuck, e.g. in a fixpoint that never ends
TEST_TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs past TEST_TIME_LIMIT, naming it, instead of
    letting it hang the run. Needs SIGALRM, so not on Windows."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

BW_DOMAIN_TEXT = (FIXTURES / "blocksworld.pddl").read_text()
BW2_TEXT = (FIXTURES / "bw2.pddl").read_text()

# three blocks, b held: every stack action is applicable
BW3_STACK_TEXT = """
(define (problem bw3-stack)
  (:domain blocksworld)
  (:objects a b c)
  (:init (holding b) (ontable a) (ontable c) (clear a) (clear c))
  (:goal (and (on b a)))
)
"""

# no objects, no static facts, an empty initial state and the plan (go)
ONE_STEP_DOMAIN = (FIXTURES / "one-step-domain.pddl").read_text()
ONE_STEP_PROBLEM = (FIXTURES / "one-step.pddl").read_text()

SPANNER_MINI_DOMAIN = """
(define (domain walkway)
  (:requirements :strips)
  (:predicates (at ?m ?l) (link ?a ?b))
  (:action walk
    :parameters (?m ?from ?to)
    :precondition (and (at ?m ?from) (link ?from ?to))
    :effect (and (at ?m ?to) (not (at ?m ?from))))
)
"""

SPANNER_MINI_PROBLEM = """
(define (problem walkway-1)
  (:domain walkway)
  (:objects bob p1 p2 p3)
  (:init (at bob p1) (link p1 p2) (link p2 p3))
  (:goal (and (at bob p3)))
)
"""

TYPED_DOMAIN = """
(define (domain haulage)
  (:requirements :strips :typing)
  (:types truck car - vehicle vehicle place - object)
  (:predicates (at ?v - vehicle ?p - place) (shiny ?t - truck))
  (:action drive
    :parameters (?v - vehicle ?from - place ?to - place)
    :precondition (and (at ?v ?from))
    :effect (and (at ?v ?to) (not (at ?v ?from))))
)
"""

TYPED_PROBLEM = """
(define (problem haulage-1)
  (:domain haulage)
  (:objects t1 - truck c1 - car depot field - place)
  (:init (at t1 depot) (at c1 depot) (shiny t1))
  (:goal (and (at t1 field)))
)
"""


@pytest.fixture(scope="session")
def bw_domain():
    return parse_domain(BW_DOMAIN_TEXT)


@pytest.fixture()
def bw2(bw_domain):
    return parse_instance(BW2_TEXT, bw_domain)


@pytest.fixture()
def bw3_stack(bw_domain):
    return parse_instance(BW3_STACK_TEXT, bw_domain)


@pytest.fixture()
def spanner_mini():
    return load_task(SPANNER_MINI_DOMAIN, SPANNER_MINI_PROBLEM)


@pytest.fixture()
def typed_task():
    return load_task(TYPED_DOMAIN, TYPED_PROBLEM)
