"""PDDL reading, the lifted task model, and type compilation.

Supported fragment: STRIPS plus :typing and :equality, with negation allowed
only on equality literals. Types are compiled into static unary predicates, so
every Task produced here is plain untyped STRIPS. Ground atoms are interned to
dense integer ids per task; states elsewhere in the package are frozensets of
those ids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

log = logging.getLogger(__name__)

OBJECT_TYPE = "object"


class PddlError(Exception):
    """Base class for everything raised while reading or building tasks."""


class PddlSyntaxError(PddlError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnsupportedFeature(PddlError):
    def __init__(self, feature: str):
        super().__init__(f"unsupported PDDL feature: {feature}")
        self.feature = feature


class UndeclaredPredicate(PddlError):
    def __init__(self, what: str):
        super().__init__(f"undeclared predicate: {what}")


class UndeclaredObject(PddlError):
    def __init__(self, what: str):
        super().__init__(f"undeclared object: {what}")


class ArityMismatch(PddlError):
    pass


class UnknownType(PddlError):
    def __init__(self, what: str):
        super().__init__(f"unknown type: {what}")


# ---------------------------------------------------------------------------
# tokenizer / s-expression reader

_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789-_=?:.")


def _tokenize(text: str):
    """Yield (token, line, col). Identifiers are lowercased; ; starts a comment."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line, col
            col += 1
            i += 1
        else:
            lo = ch.lower()
            if lo not in _WORD_CHARS:
                raise PddlSyntaxError(f"unexpected character {ch!r}", line, col)
            start = i
            startcol = col
            while i < n and text[i].lower() in _WORD_CHARS:
                i += 1
                col += 1
            yield text[start:i].lower(), line, startcol


def _read(text: str) -> list:
    """Read text into a forest of nested lists of lowercased strings."""
    stack: list[list] = [[]]
    last = (1, 1)
    for tok, ln, co in _tokenize(text):
        last = (ln, co)
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise PddlSyntaxError("unbalanced ')'", ln, co)
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise PddlSyntaxError("unbalanced '('", *last)
    return stack[0]


def _typed_list(items: list, what: str) -> list[tuple[str, str]]:
    """Parse 'a b - t c - u d' into [(a,t),(b,t),(c,u),(d,object)]."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        it = items[i]
        if it == "-":
            if i + 1 >= len(items) or not isinstance(items[i + 1], str):
                raise PddlError(f"dangling '-' in {what} list")
            ty = items[i + 1]
            out.extend((p, ty) for p in pending)
            pending = []
            i += 2
        elif isinstance(it, str):
            pending.append(it)
            i += 1
        else:
            raise PddlError(f"unexpected sublist in {what} list")
    out.extend((p, OBJECT_TYPE) for p in pending)
    return out


# ---------------------------------------------------------------------------
# model types

class Atom(NamedTuple):
    """A predicate applied to arguments; args starting with '?' are variables.
    As a tuple it is its own (pred, args) key."""

    pred: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.pred}({','.join(self.args)})"

    def to_sexpr(self) -> str:
        return "(" + " ".join((self.pred,) + self.args) + ")"


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int
    is_static: bool = False


@dataclass(frozen=True)
class ActionSchema:
    """Lifted action: preconditions, add and delete lists over the parameters.

    `equalities` holds (a, b, must_be_equal) literals evaluated structurally at
    instantiation time; they are never part of any state.
    """

    name: str
    params: tuple[str, ...]
    pre: tuple[Atom, ...]
    add: tuple[Atom, ...]
    delete: tuple[Atom, ...]
    equalities: tuple[tuple[str, str, bool], ...] = ()


@dataclass
class TypedSchema:
    name: str
    params: list[tuple[str, str]]
    pre: list[Atom]
    add: list[Atom]
    delete: list[Atom]
    equalities: list[tuple[str, str, bool]]


@dataclass
class Domain:
    """Parse result of a domain file; may still carry type annotations."""

    name: str
    requirements: tuple[str, ...]
    types: dict[str, str | None]
    predicates: list[tuple[str, int]]
    constants: list[tuple[str, str]]
    schemas: list[TypedSchema]


@dataclass
class Instance:
    name: str
    domain_name: str
    objects: list[tuple[str, str]]
    init: list[Atom]
    goal: list[Atom]


class Task:
    """Immutable untyped STRIPS task with interned ground atoms.

    The intern table is an append-only cache (new atoms appear while searching);
    under CPython this is safe for concurrent readers.
    """

    def __init__(
        self,
        domain_name: str,
        problem_name: str,
        predicates: list[tuple[str, int]],
        schemas: list[ActionSchema],
        objects: list[str],
        init: list[Atom],
        goal: list[Atom],
    ):
        self.domain_name = domain_name
        self.problem_name = problem_name
        self.objects: tuple[str, ...] = tuple(objects)
        self.object_index: dict[str, int] = {o: i for i, o in enumerate(self.objects)}
        if len(self.object_index) != len(self.objects):
            raise PddlError("duplicate object declaration")

        names = [n for n, _ in predicates]
        if len(set(names)) != len(names):
            raise PddlError("duplicate predicate declaration")
        in_effect: set[str] = set()
        for s in schemas:
            for a in s.add + s.delete:
                in_effect.add(a.pred)
        self.predicates: tuple[Predicate, ...] = tuple(
            Predicate(n, k, is_static=n not in in_effect) for n, k in predicates
        )
        self._pred: dict[str, Predicate] = {p.name: p for p in self.predicates}
        self.schemas: tuple[ActionSchema, ...] = tuple(schemas)
        self._schema_by_name = {s.name: s for s in self.schemas}
        for s in schemas:
            self._check_schema(s)

        self._atom_ids: dict[tuple[str, tuple[str, ...]], int] = {}
        self._atoms: list[Atom] = []
        # each atom as (pred, object ids by declaration index), by atom id
        self.id_atoms: list[tuple[str, tuple[int, ...]]] = []

        self.init: frozenset[int] = frozenset(self._intern_checked(a) for a in init)
        self.goal: frozenset[int] = frozenset(self._intern_checked(a) for a in goal)
        self.static_atoms: frozenset[int] = frozenset(
            i for i in self.init if self._pred[self._atoms[i].pred].is_static
        )
        self.initial_state: frozenset[int] = self.init - self.static_atoms
        self.goal_fluent: frozenset[int] = frozenset(
            g for g in self.goal if not self._pred[self._atoms[g].pred].is_static
        )
        # static goal atoms hold forever or never; decide once
        self._static_goal_ok = (self.goal - self.goal_fluent) <= self.static_atoms
        self._info_cache: dict = {}

    # -- construction helpers ------------------------------------------------

    def _check_schema(self, s: ActionSchema) -> None:
        pset = set(s.params)
        if len(pset) != len(s.params):
            raise PddlError(f"duplicate parameter in schema {s.name}")
        for a in s.pre + s.add + s.delete:
            p = self._pred.get(a.pred)
            if p is None:
                raise UndeclaredPredicate(f"{a.pred} in schema {s.name}")
            if p.arity != len(a.args):
                raise ArityMismatch(f"{a} in schema {s.name}: expected arity {p.arity}")
            for arg in a.args:
                if arg.startswith("?"):
                    if arg not in pset:
                        raise PddlError(f"unbound variable {arg} in schema {s.name}")
                elif arg not in self.object_index:
                    raise UndeclaredObject(f"{arg} in schema {s.name}")
        for x, y, _ in s.equalities:
            for v in (x, y):
                if v.startswith("?"):
                    if v not in pset:
                        raise PddlError(f"unbound variable {v} in schema {s.name}")
                elif v not in self.object_index:
                    raise UndeclaredObject(f"{v} in schema {s.name}")
        if set(s.add) & set(s.delete):
            raise PddlError(f"schema {s.name} adds and deletes the same atom")

    def _intern_checked(self, a: Atom) -> int:
        p = self._pred.get(a.pred)
        if p is None:
            raise UndeclaredPredicate(f"{a.pred} in {a}")
        if p.arity != len(a.args):
            raise ArityMismatch(f"{a}: expected arity {p.arity}")
        for arg in a.args:
            if arg not in self.object_index:
                raise UndeclaredObject(f"{arg} in {a}")
        return self.intern(a.pred, a.args)

    # -- atom interning --------------------------------------------------------

    def intern(self, pred: str, args: tuple[str, ...]) -> int:
        key = (pred, args)
        i = self._atom_ids.get(key)
        if i is None:
            i = len(self._atoms)
            self._atom_ids[key] = i
            self._atoms.append(Atom(pred, args))
            self.id_atoms.append((pred, tuple(map(self.object_index.__getitem__, args))))
        return i

    def find(self, pred: str, args: tuple[str, ...]) -> int | None:
        return self._atom_ids.get((pred, args))

    def atom(self, i: int) -> Atom:
        return self._atoms[i]

    def format_atom(self, i: int) -> str:
        return str(self._atoms[i])

    # -- queries ----------------------------------------------------------------

    def schema(self, name: str) -> ActionSchema:
        s = self._schema_by_name.get(name)
        if s is None:
            raise PddlError(f"unknown action schema: {name}")
        return s

    def is_goal(self, state: frozenset[int]) -> bool:
        return self._static_goal_ok and self.goal_fluent <= state


# ---------------------------------------------------------------------------
# domain / instance parsing

_KNOWN_REQUIREMENTS = {":strips", ":typing", ":equality", ":negative-preconditions"}
_REJECTED_HEADS = {"forall", "exists", "when", "or", "imply", "oneof"}


def _parse_condition(form, what: str):
    """Split a precondition form into (atoms, equality literals)."""
    atoms: list[Atom] = []
    eqs: list[tuple[str, str, bool]] = []

    def walk(f, positive=True):
        if not isinstance(f, list) or not f or not isinstance(f[0], str):
            raise PddlError(f"malformed {what}: {f!r}")
        head = f[0]
        if head == "and":
            if not positive:
                raise UnsupportedFeature("negated conjunction")
            for sub in f[1:]:
                walk(sub)
        elif head == "not":
            if len(f) != 2:
                raise PddlError(f"malformed not in {what}")
            walk(f[1], positive=False)
        elif head == "=":
            if len(f) != 3 or not all(isinstance(x, str) for x in f[1:]):
                raise UnsupportedFeature("non-object equality")
            eqs.append((f[1], f[2], positive))
        elif head in _REJECTED_HEADS:
            raise UnsupportedFeature(head)
        else:
            if not positive:
                raise UnsupportedFeature("negative precondition")
            if not all(isinstance(x, str) for x in f):
                raise PddlError(f"malformed atom in {what}: {f!r}")
            atoms.append(Atom(head, tuple(f[1:])))

    if form:
        walk(form)
    return atoms, eqs


def _parse_effect(form, ignore_costs: bool):
    adds: list[Atom] = []
    dels: list[Atom] = []

    def walk(f):
        if not isinstance(f, list) or not f or not isinstance(f[0], str):
            raise PddlError(f"malformed effect: {f!r}")
        head = f[0]
        if head == "and":
            for sub in f[1:]:
                walk(sub)
        elif head == "not":
            if len(f) != 2 or not isinstance(f[1], list) or not f[1]:
                raise PddlError("malformed delete effect")
            inner = f[1]
            if isinstance(inner[0], str) and inner[0] in _REJECTED_HEADS:
                raise UnsupportedFeature(inner[0])
            if not all(isinstance(x, str) for x in inner):
                raise PddlError(f"malformed delete effect: {inner!r}")
            dels.append(Atom(inner[0], tuple(inner[1:])))
        elif head in ("increase", "decrease", "assign", "scale-up", "scale-down"):
            if ignore_costs and head == "increase":
                return
            raise UnsupportedFeature(head)
        elif head in _REJECTED_HEADS:
            raise UnsupportedFeature(head)
        else:
            if not all(isinstance(x, str) for x in f):
                raise PddlError(f"malformed effect atom: {f!r}")
            adds.append(Atom(head, tuple(f[1:])))

    if form:
        walk(form)
    return adds, dels


def _name_of(section: list, what: str) -> str:
    """The one name in a section such as (domain d) or (:domain d)."""
    if len(section) != 2 or not isinstance(section[1], str):
        raise PddlError(f"malformed {what}: {section!r}")
    return section[1]


def parse_domain(text: str) -> Domain:
    forest = _read(text)
    if len(forest) != 1 or not isinstance(forest[0], list):
        raise PddlError("expected a single (define ...) form")
    top = forest[0]
    if not top or top[0] != "define":
        raise PddlError("expected (define (domain ...))")

    name = ""
    requirements: list[str] = []
    types: dict[str, str | None] = {}
    predicates: list[tuple[str, int]] = []
    constants: list[tuple[str, str]] = []
    schemas: list[TypedSchema] = []
    ignore_costs = False

    for section in top[1:]:
        if not isinstance(section, list) or not section:
            raise PddlError(f"malformed domain section: {section!r}")
        head = section[0]
        if head == "domain":
            name = _name_of(section, "domain name")
        elif head == ":requirements":
            for r in section[1:]:
                if not isinstance(r, str):
                    raise PddlError(f"malformed requirement: {r!r}")
                if r == ":action-costs":
                    log.warning("action costs are parsed but ignored; all actions cost 1")
                    ignore_costs = True
                elif r not in _KNOWN_REQUIREMENTS:
                    raise UnsupportedFeature(r)
                requirements.append(r)
        elif head == ":types":
            for t, parent in _typed_list(section[1:], "types"):
                types[t] = None if parent == OBJECT_TYPE else parent
        elif head == ":constants":
            constants.extend(_typed_list(section[1:], "constants"))
        elif head == ":predicates":
            for p in section[1:]:
                if not isinstance(p, list) or not p:
                    raise PddlError(f"malformed predicate: {p!r}")
                args = _typed_list(p[1:], "predicate parameters")
                predicates.append((p[0], len(args)))
        elif head == ":functions":
            if not ignore_costs:
                raise UnsupportedFeature(":functions")
        elif head == ":action":
            schemas.append(_parse_action(section, ignore_costs))
        elif head in (":derived", ":axiom", ":durative-action"):
            raise UnsupportedFeature(head)
        else:
            raise UnsupportedFeature(head)

    return Domain(name, tuple(requirements), types, predicates, constants, schemas)


def _parse_action(section: list, ignore_costs: bool) -> TypedSchema:
    if len(section) < 2 or not isinstance(section[1], str):
        raise PddlError(f"action without a name: {section!r}")
    name = section[1]
    params: list[tuple[str, str]] = []
    pre: list[Atom] = []
    add: list[Atom] = []
    dele: list[Atom] = []
    eqs: list[tuple[str, str, bool]] = []
    i = 2
    while i < len(section):
        key = section[i]
        if i + 1 == len(section):
            raise PddlError(f"action {name}: {key} has no value")
        if key == ":parameters":
            if not isinstance(section[i + 1], list):
                raise PddlError(f"action {name}: malformed parameter list")
            params = _typed_list(section[i + 1], "parameters")
        elif key == ":precondition":
            pre, eqs = _parse_condition(section[i + 1], "precondition")
        elif key == ":effect":
            add, dele = _parse_effect(section[i + 1], ignore_costs)
        else:
            raise UnsupportedFeature(f"action key {key}")
        i += 2
    return TypedSchema(name, params, pre, add, dele, eqs)


def parse_instance_text(text: str) -> Instance:
    forest = _read(text)
    if len(forest) != 1 or not isinstance(forest[0], list):
        raise PddlError("expected a single (define ...) form")
    top = forest[0]
    if not top or top[0] != "define":
        raise PddlError("expected (define (problem ...))")

    name = ""
    domain_name = ""
    objects: list[tuple[str, str]] = []
    init: list[Atom] = []
    goal: list[Atom] = []

    for section in top[1:]:
        if not isinstance(section, list) or not section:
            raise PddlError(f"malformed problem section: {section!r}")
        head = section[0]
        if head == "problem":
            name = _name_of(section, "problem name")
        elif head == ":domain":
            domain_name = _name_of(section, ":domain")
        elif head == ":objects":
            objects.extend(_typed_list(section[1:], "objects"))
        elif head == ":init":
            for a in section[1:]:
                if not isinstance(a, list) or not a:
                    raise PddlError(f"malformed init atom: {a!r}")
                if a[0] == "=":
                    log.warning("numeric init entry ignored: %s", a)
                    continue
                if not all(isinstance(x, str) for x in a):
                    raise PddlError(f"malformed init atom: {a!r}")
                init.append(Atom(a[0], tuple(a[1:])))
        elif head == ":goal":
            if len(section) != 2:
                raise PddlError("malformed :goal")
            atoms, eqs = _parse_condition(section[1], "goal")
            if eqs:
                raise UnsupportedFeature("equality in goal")
            goal = atoms
        elif head == ":metric":
            log.warning("metric ignored; plan cost is plan length")
        else:
            raise UnsupportedFeature(head)

    return Instance(name, domain_name, objects, init, goal)


def parse_instance(text: str, domain: Domain) -> Task:
    """Parse a problem file and compile it against `domain` into an untyped Task."""
    inst = parse_instance_text(text)
    if inst.domain_name and domain.name and inst.domain_name != domain.name:
        log.warning("problem %s declares domain %s, parsed domain is %s",
                    inst.name, inst.domain_name, domain.name)
    return compile_types(domain, inst)


# ---------------------------------------------------------------------------
# type compilation

def _ancestors(types: dict[str, str | None], t: str) -> list[str]:
    """t and its ancestors, nearest first, excluding the root object type."""
    out = []
    seen = set()
    cur: str | None = t
    while cur is not None and cur != OBJECT_TYPE:
        if cur in seen:
            raise PddlError(f"cyclic type hierarchy at {cur}")
        if cur not in types:
            raise UnknownType(f"{cur} in the hierarchy of {t}")
        seen.add(cur)
        out.append(cur)
        cur = types[cur]
    return out


def compile_types(domain: Domain, instance: Instance) -> Task:
    """Compile a typed domain/instance pair into an untyped STRIPS Task.

    Every declared type becomes a static unary predicate: objects of type t get
    an init atom t(o) for t and all its ancestors, and a schema parameter of
    type t grows a precondition t(?v). The root `object` type is dropped on
    both sides. Untyped input passes through unchanged.
    """
    types = dict(domain.types)
    for name, t in domain.constants + instance.objects + [(v, ty) for s in domain.schemas for v, ty in s.params]:
        if t != OBJECT_TYPE and t not in types:
            raise UnknownType(f"{t} of {name}")

    predicates = list(domain.predicates)
    declared = {n for n, _ in predicates}
    for t in types:
        if t in declared:
            raise PddlError(f"type name collides with predicate: {t}")
        predicates.append((t, 1))

    objects: list[str] = []
    init = list(instance.init)
    for o, t in domain.constants + instance.objects:
        objects.append(o)
        for anc in _ancestors(types, t):
            init.append(Atom(anc, (o,)))

    schemas: list[ActionSchema] = []
    for s in domain.schemas:
        pre = list(s.pre)
        for v, t in s.params:
            if t != OBJECT_TYPE:
                pre.append(Atom(t, (v,)))
        schemas.append(
            ActionSchema(
                s.name,
                tuple(v for v, _ in s.params),
                tuple(pre),
                tuple(s.add),
                tuple(s.delete),
                tuple(s.equalities),
            )
        )

    return Task(
        domain.name,
        instance.name,
        predicates,
        schemas,
        objects,
        init,  # interning drops duplicates, keeping first-seen order
        list(instance.goal),
    )


def load_task(domain_text: str, problem_text: str) -> Task:
    return parse_instance(problem_text, parse_domain(domain_text))
