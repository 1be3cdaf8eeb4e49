"""Lifted task semantics: states, ground actions, and the partial action tree.

A partial action is a schema with a prefix of its parameters instantiated; the
root (no schema chosen) is `ROOT`. Children extend the prefix by one object and
are pruned exactly: a child is produced only if at least one applicable ground
action completes it. Nothing here ever grounds the whole task.
"""

from __future__ import annotations

from .pddl import ActionSchema, Task

State = frozenset  # frozenset[int] of fluent atom ids


class NotApplicable(Exception):
    pass


class GroundAction:
    """A schema instantiated with one object per parameter."""

    __slots__ = ("schema", "args", "_hash")

    def __init__(self, schema: ActionSchema, args: tuple[str, ...]):
        if len(args) != len(schema.params):
            raise ValueError(f"{schema.name} expects {len(schema.params)} args")
        self.schema = schema
        self.args = args
        self._hash = hash((schema.name, args))

    @property
    def name(self) -> str:
        return self.schema.name

    def __eq__(self, other):
        return (
            isinstance(other, GroundAction)
            and self.schema.name == other.schema.name
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"({' '.join((self.schema.name,) + self.args)})"


class PartialAction:
    """A schema with its first k parameters instantiated; ROOT has no schema."""

    __slots__ = ("schema", "prefix", "_hash")

    def __init__(self, schema: ActionSchema | None, prefix: tuple[str, ...] = ()):
        if schema is None and prefix:
            raise ValueError("the root partial action has no prefix")
        if schema is not None and len(prefix) > len(schema.params):
            raise ValueError("prefix longer than parameter list")
        self.schema = schema
        self.prefix = prefix
        self._hash = hash((schema.name if schema else None, prefix))

    @property
    def is_root(self) -> bool:
        return self.schema is None

    @property
    def is_full(self) -> bool:
        return self.schema is not None and len(self.prefix) == len(self.schema.params)

    def specificity(self) -> int:
        return 0 if self.schema is None else len(self.prefix) + 1

    def as_ground_action(self) -> GroundAction:
        if not self.is_full:
            raise ValueError(f"{self} is not fully instantiated")
        return GroundAction(self.schema, self.prefix)

    def __eq__(self, other):
        return (
            isinstance(other, PartialAction)
            and (self.schema.name if self.schema else None)
            == (other.schema.name if other.schema else None)
            and self.prefix == other.prefix
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.schema is None:
            return "<root>"
        shown = self.prefix + ("*",) * (len(self.schema.params) - len(self.prefix))
        return f"({' '.join((self.schema.name,) + shown)})"


ROOT = PartialAction(None, ())


def decompose(action: GroundAction) -> list[PartialAction]:
    """[ROOT, A(*..*), A(o1,*..), ..., a] with strictly increasing specificity."""
    steps: list[PartialAction] = [ROOT]
    for k in range(len(action.args) + 1):
        steps.append(PartialAction(action.schema, action.args[:k]))
    return steps


# ---------------------------------------------------------------------------
# precondition matching
#
# Parameters are bound in declaration order. For each parameter position we
# precompute which precondition atoms and equality literals become fully bound
# exactly there, so every candidate object is checked as early as possible;
# position -1 holds the fully ground literals.

def _compile_atom(atom, index):
    """(pred, arg slots, max param index); slots are int positions or constants."""
    pos = -1
    slots = []
    for a in atom.args:
        if a.startswith("?"):
            i = index[a]
            slots.append(i)
            pos = max(pos, i)
        else:
            slots.append(a)
    return atom.pred, tuple(slots), pos


class _SchemaInfo:
    __slots__ = ("atoms_at", "eqs_at", "add", "delete")

    def __init__(self, schema: ActionSchema):
        index = {v: i for i, v in enumerate(schema.params)}
        n = len(schema.params)
        self.atoms_at: list[list] = [[] for _ in range(n + 1)]
        self.eqs_at: list[list] = [[] for _ in range(n + 1)]
        for atom in schema.pre:
            pred, slots, pos = _compile_atom(atom, index)
            self.atoms_at[pos + 1].append((pred, slots))
        for x, y, want_eq in schema.equalities:
            pos = -1
            slots = []
            for v in (x, y):
                if v.startswith("?"):
                    i = index[v]
                    slots.append(i)
                    pos = max(pos, i)
                else:
                    slots.append(v)
            self.eqs_at[pos + 1].append((slots[0], slots[1], want_eq))
        self.add = [_compile_atom(a, index)[:2] for a in schema.add]
        self.delete = [_compile_atom(a, index)[:2] for a in schema.delete]


def _schema_info(task: Task, schema: ActionSchema) -> _SchemaInfo:
    info = task._info_cache.get(schema.name)
    if info is None:
        info = _SchemaInfo(schema)
        task._info_cache[schema.name] = info
    return info


def _holds(task: Task, state: State, pred: str, arg_slots, binding) -> bool:
    args = tuple(binding[a] if isinstance(a, int) else a for a in arg_slots)
    i = task.find(pred, args)
    return i is not None and (i in state or i in task.static_atoms)


def _eq_ok(eq, binding) -> bool:
    x, y, want = eq
    xv = binding[x] if isinstance(x, int) else x
    yv = binding[y] if isinstance(y, int) else y
    return (xv == yv) == want


def _consistent_at(task, state, info, binding, pos) -> bool:
    """Check the literals that become fully bound at parameter index pos."""
    for pred, slots in info.atoms_at[pos + 1]:
        if not _holds(task, state, pred, slots, binding):
            return False
    for eq in info.eqs_at[pos + 1]:
        if not _eq_ok(eq, binding):
            return False
    return True


def _completions(task: Task, state: State, schema: ActionSchema, prefix: tuple[str, ...]):
    """Yield full argument tuples extending prefix, preconditions satisfied.

    Candidate objects are tried in declaration order, so the stream is
    deterministic (lexicographic in object declaration indices).
    """
    info = _schema_info(task, schema)
    binding: list[str | None] = list(prefix) + [None] * (len(schema.params) - len(prefix))
    for pos in range(-1, len(prefix)):
        if not _consistent_at(task, state, info, binding, pos):
            return

    n = len(schema.params)

    def rec(pos: int):
        if pos == n:
            yield tuple(binding)
            return
        for obj in task.objects:
            binding[pos] = obj
            if _consistent_at(task, state, info, binding, pos):
                yield from rec(pos + 1)
        binding[pos] = None

    yield from rec(len(prefix))


# ---------------------------------------------------------------------------
# public operations

def is_applicable(task: Task, state: State, action: GroundAction) -> bool:
    """True iff every precondition holds in state (or statically) and the
    equality literals are satisfied."""
    return next(_completions(task, state, action.schema, action.args), None) is not None


def ground_effects(task: Task, action: GroundAction) -> tuple[list[int], list[int]]:
    """Interned (add ids, delete ids) of a ground action."""
    info = _schema_info(task, action.schema)
    bind = action.args
    adds = [
        task.intern(pred, tuple(bind[s] if isinstance(s, int) else s for s in slots))
        for pred, slots in info.add
    ]
    dels = [
        task.intern(pred, tuple(bind[s] if isinstance(s, int) else s for s in slots))
        for pred, slots in info.delete
    ]
    return adds, dels


def _apply_effects(task: Task, state: State, action: GroundAction) -> State:
    adds, dels = ground_effects(task, action)
    return (state - frozenset(dels)) | frozenset(adds)


def apply(task: Task, state: State, action: GroundAction) -> State:
    """(state minus deletes) union adds; raises NotApplicable on bad input."""
    if not is_applicable(task, state, action):
        raise NotApplicable(repr(action))
    return _apply_effects(task, state, action)


def children(task: Task, state: State, rho: PartialAction) -> list[PartialAction]:
    """Applicable one-step extensions of rho in the partial action tree.

    For ROOT these are the schemas with at least one applicable instantiation;
    otherwise the prefix grows by one object. A child is returned only when
    some applicable ground action completes it, and the order follows schema /
    object declaration order. Fully instantiated input yields [].
    """
    if rho.is_root:
        return [
            PartialAction(s, ())
            for s in task.schemas
            if next(_completions(task, state, s, ()), None) is not None
        ]
    if rho.is_full:
        return []
    out = []
    for obj in task.objects:
        ext = rho.prefix + (obj,)
        if next(_completions(task, state, rho.schema, ext), None) is not None:
            out.append(PartialAction(rho.schema, ext))
    return out


def instantiations(task: Task, state: State, rho: PartialAction):
    """Yield the applicable ground actions extending rho (all of A_s for ROOT)."""
    if rho.is_root:
        for s in task.schemas:
            for args in _completions(task, state, s, ()):
                yield GroundAction(s, args)
    else:
        for args in _completions(task, state, rho.schema, rho.prefix):
            yield GroundAction(rho.schema, args)
