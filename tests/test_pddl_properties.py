"""Property tests of the PDDL front end: malformed input raises PddlError and
nothing else, and the writer's output parses back to the same task.

Example generation is derandomized and bounded, so every run checks the same
examples and leaves no example database behind.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.generators import generate  # noqa: E402
from pslift.pddl import (  # noqa: E402
    PddlError,
    Task,
    load_task,
    parse_domain,
    parse_instance,
)

from conftest import BW2_TEXT, BW_DOMAIN_TEXT  # noqa: E402
from oracles import signature, write_domain, write_problem  # noqa: E402
from strategies import SETTINGS, random_strips_task  # noqa: E402

WORDS = ["define", "domain", "problem", ":domain", ":requirements", ":strips",
         ":typing", ":equality", ":types", ":constants", ":predicates", ":action",
         ":parameters", ":precondition", ":effect", ":objects", ":init", ":goal",
         "and", "not", "or", "=", "-", "object", "either", "?x", "?y", "a", "b", "p"]

words = st.sampled_from(WORDS)
# nested lists of words, as the reader produces them
sexprs = st.recursive(words, lambda inner: st.lists(inner, max_size=5), max_leaves=30)


def render(form) -> str:
    if isinstance(form, str):
        return form
    return "(" + " ".join(render(f) for f in form) + ")"


def parses_or_raises_pddl_error(parse) -> None:
    """Run a parse; any exception other than a PddlError fails the test."""
    try:
        parse()
    except PddlError:
        pass


class TestMalformedInput:
    @SETTINGS
    @given(st.lists(sexprs, max_size=4), st.data())
    def test_unbalanced_parentheses_raise(self, forms, data):
        text = " ".join(render(f) for f in forms)
        parens = [i for i, ch in enumerate(text) if ch in "()"]
        if parens and data.draw(st.booleans()):
            i = data.draw(st.sampled_from(parens))
            text = text[:i] + text[i + 1:]
        else:
            text += data.draw(st.sampled_from(["(", ")"]))
        with pytest.raises(PddlError):
            parse_domain(text)
        with pytest.raises(PddlError):
            parse_instance(text, parse_domain(BW_DOMAIN_TEXT))

    @SETTINGS
    @given(st.lists(sexprs, max_size=6))
    def test_random_domain_sections(self, sections):
        text = "(define (domain d) " + " ".join(render(s) for s in sections) + ")"
        parses_or_raises_pddl_error(lambda: parse_domain(text))

    @SETTINGS
    @given(st.lists(sexprs, max_size=6))
    def test_random_problem_sections(self, sections):
        domain = parse_domain(BW_DOMAIN_TEXT)
        text = ("(define (problem q) (:domain blocksworld) "
                + " ".join(render(s) for s in sections) + ")")
        parses_or_raises_pddl_error(lambda: parse_instance(text, domain))

    @settings(SETTINGS, max_examples=300)
    @given(st.data())
    def test_token_mutations_of_valid_files(self, data):
        """Delete, repeat or replace tokens of a valid domain and problem."""
        texts = [BW_DOMAIN_TEXT, BW2_TEXT]
        which = data.draw(st.sampled_from([0, 1]))
        tokens = texts[which].replace("(", " ( ").replace(")", " ) ").split()
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(tokens) - 1))
            op = data.draw(st.sampled_from(["delete", "repeat", "replace"]))
            if op == "delete":
                del tokens[i]
            elif op == "repeat":
                tokens.insert(i, tokens[i])
            else:
                tokens[i] = data.draw(st.sampled_from(WORDS + ["(", ")"]))
            if not tokens:
                break
        texts[which] = " ".join(tokens)
        parses_or_raises_pddl_error(lambda: load_task(*texts))


def roundtrip(task: Task) -> None:
    reparsed = load_task(write_domain(task), write_problem(task))
    assert signature(reparsed) == signature(task)


class TestRoundTrip:
    @SETTINGS
    @given(st.one_of(
        st.tuples(st.just("blocksworld"), st.fixed_dictionaries(
            {"blocks": st.integers(1, 6)})),
        st.tuples(st.just("ferry-like"), st.fixed_dictionaries(
            {"cars": st.integers(1, 3), "locations": st.integers(2, 4)})),
        st.tuples(st.just("warehouse-like"), st.fixed_dictionaries(
            {"stacks": st.integers(1, 3), "marked": st.integers(1, 2)})),
    ), st.integers(0, 50))
    def test_generated_tasks(self, family_params, seed):
        family, params = family_params
        roundtrip(load_task(*generate(family, seed=seed, **params)))

    @SETTINGS
    @given(st.data())
    def test_random_strips_tasks(self, data):
        roundtrip(random_strips_task(data))
