"""Brute-force oracles, independent of the lifted machinery under test.

Everything here grounds exhaustively (itertools.product over objects) or
filters full atom lists, and works directly on atom (pred, args) tuples, so it
shares no code path with the package's matcher, Datalog engine, or search.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from pslift.pddl import ActionSchema, Atom, Task

# the internal predicates of the relaxation's program, spelt out here: the
# gate of the restriction transform, the goal rule's head and the atoms that
# give each object
EPSILON = "@epsilon"
GOAL = "@goal"
OBJECT = "@object"


def ground_atoms(task, schema, args, atoms):
    """Instantiate schema-local atoms with an argument tuple."""
    binding = dict(zip(schema.params, args))
    return [(a.pred, tuple(binding.get(x, x) for x in a.args)) for a in atoms]


def all_ground_actions(task: Task):
    """Every (schema, args) combination, applicability not checked."""
    out = []
    for schema in task.schemas:
        for args in itertools.product(task.objects, repeat=len(schema.params)):
            out.append((schema, args))
    return out


def state_to_keys(task: Task, state) -> frozenset:
    return frozenset((task.atom(i).pred, task.atom(i).args) for i in state)


def intern_keys(task: Task, keys) -> frozenset:
    """Map (pred, args) keys into a task's interned ids (e.g. to carry a state
    over to a transformed copy of the task)."""
    return frozenset(task.intern(p, a) for p, a in keys)


def static_keys(task: Task) -> frozenset:
    return frozenset((task.atom(i).pred, task.atom(i).args) for i in task.static_atoms)


def applicable_keys(task, schema, args, true_keys) -> bool:
    binding = dict(zip(schema.params, args))
    for pred, atom_args in ground_atoms(task, schema, args, schema.pre):
        if (pred, atom_args) not in true_keys:
            return False
    for x, y, want in schema.equalities:
        if (binding.get(x, x) == binding.get(y, y)) != want:
            return False
    return True


def oracle_applicable(task: Task, state, schema, args) -> bool:
    return applicable_keys(task, schema, args, state_to_keys(task, state) | static_keys(task))


def oracle_applicable_actions(task: Task, state):
    """All applicable (schema, args), by scanning every grounding."""
    true_keys = state_to_keys(task, state) | static_keys(task)
    return [
        (schema, args)
        for schema, args in all_ground_actions(task)
        if applicable_keys(task, schema, args, true_keys)
    ]


def covers_all_applicable(task: Task, state, actions) -> bool:
    """A_s subset of B, by set inclusion; B may hold any ground actions."""
    bset = {(a.name, a.args) for a in actions}
    return all((schema.name, args) in bset
               for schema, args in oracle_applicable_actions(task, state))


def oracle_apply(task: Task, state_keys, schema, args) -> frozenset:
    """Successor state on (pred, args) keys; assumes applicability."""
    dels = set(ground_atoms(task, schema, args, schema.delete))
    adds = set(ground_atoms(task, schema, args, schema.add))
    return frozenset((state_keys - dels) | adds)


def ground_effects(task: Task, action) -> tuple[frozenset, frozenset]:
    """(add ids, delete ids) of a ground action, grounded afresh at each
    call: its add atoms and then its delete atoms are interned, each in
    schema order."""
    schema = action.schema
    adds = [task.intern(*key) for key in ground_atoms(task, schema, action.args, schema.add)]
    dels = [task.intern(*key) for key in ground_atoms(task, schema, action.args, schema.delete)]
    return frozenset(adds), frozenset(dels)


def bfs_plan(task: Task, max_states: int = 200_000):
    """Blind breadth-first search; returns an optimal plan or None."""
    statics = static_keys(task)
    goal = frozenset((task.atom(g).pred, task.atom(g).args) for g in task.goal)
    # static goal atoms that hold are satisfied forever; ones that do not hold
    # stay in goal_fluent and make BFS exhaust, which is the right answer
    goal_fluent = goal - statics
    grounded = all_ground_actions(task)
    start = state_to_keys(task, task.initial_state)
    if goal_fluent <= start:
        return []
    seen = {start}
    queue = deque([(start, [])])
    while queue and len(seen) < max_states:
        state, path = queue.popleft()
        true_keys = state | statics
        for schema, args in grounded:
            if not applicable_keys(task, schema, args, true_keys):
                continue
            succ = oracle_apply(task, state, schema, args)
            if succ in seen:
                continue
            seen.add(succ)
            step = path + [(schema.name, args)]
            if goal_fluent <= succ:
                return step
            queue.append((succ, step))
    return None


def relaxed_reachable(task: Task, state, extra_atoms=()):
    """Grounded delete-relaxed fixpoint from state (plus extra atom keys).
    Returns (all reachable atom keys incl. statics, unit-cost layer per key)."""
    statics = static_keys(task)
    true_keys = set(state_to_keys(task, state)) | set(extra_atoms)
    layers = {k: 0 for k in true_keys | statics}
    grounded = all_ground_actions(task)
    layer = 0
    changed = True
    while changed:
        changed = False
        layer += 1
        new = set()
        known = set(layers)
        for schema, args in grounded:
            if not applicable_keys(task, schema, args, known):
                continue
            for key in ground_atoms(task, schema, args, schema.add):
                if key not in layers and key not in new:
                    new.add(key)
        for key in new:
            layers[key] = layer
            changed = True
    return frozenset(layers), layers


def h_add(task: Task, state):
    """Grounded additive heuristic: cost fixpoint over all ground actions,
    summed over the goal atoms. Returns math.inf on relaxed dead ends."""
    import math

    statics = static_keys(task)
    cost = {k: 0 for k in state_to_keys(task, state) | statics}
    grounded = all_ground_actions(task)
    changed = True
    while changed:
        changed = False
        for schema, args in grounded:
            body = ground_atoms(task, schema, args, schema.pre)
            binding = dict(zip(schema.params, args))
            if any((binding.get(x, x) == binding.get(y, y)) != want
                   for x, y, want in schema.equalities):
                continue
            if any(b not in cost for b in body):
                continue
            total = 1 + sum(cost[b] for b in body)
            for key in ground_atoms(task, schema, args, schema.add):
                if cost.get(key, math.inf) > total:
                    cost[key] = total
                    changed = True
    value = 0
    for g in task.goal:
        key = (task.atom(g).pred, task.atom(g).args)
        if key not in cost:
            return math.inf
        value += cost[key]
    return value


def key_atom(numbering, key: int) -> tuple:
    """The (pred, object ids) atom of a fixpoint key, `Numbering.key` read
    backwards: the predicate id is the key mod p, and the object ids are
    the digits of the rest in radix n, lowest first."""
    code, pid = divmod(key, numbering.p)
    ids = []
    for _ in range(numbering.arity[pid]):
        code, arg = divmod(code, numbering.n)
        ids.append(arg)
    return numbering.preds[pid], tuple(ids)


def key_name(numbering, key: int) -> tuple:
    """The (pred, object names) atom of a fixpoint key."""
    pred, ids = key_atom(numbering, key)
    return pred, tuple(numbering.task.objects[i] for i in ids)


def named_layers(program, reach) -> dict:
    """The layers of a `relaxation.ReachResult` of program, by (pred, args)
    atom, in commit order."""
    return {key_name(program.numbering, key): layer for key, layer in reach.key_layers.items()}


def named_achievers(program, reach) -> dict:
    """The achievers of a `relaxation.ReachResult` of program, by (pred,
    args) atom: (rule, binding) with the binding's objects by name, or
    (action, None) for an action of B."""
    objects = program.task.objects
    return {key_name(program.numbering, key):
            (source, binding if binding is None else
             tuple(None if v is None else objects[v] for v in binding))
            for key, (source, binding) in reach.key_achievers.items()}


def reference_form(program, reach, actions=None) -> tuple[dict, dict]:
    """A `relaxation.ReachResult` of program with B = actions in the form
    of `reference_reach`, `@goal` left out: (atom -> layer, atom ->
    (action, body atoms)) by name, in commit order. A schema rule's body
    ends in the gate when B is given; B[i] is `@restricted-i`, with its
    ground preconditions as body."""
    task, numbering = program.task, program.numbering
    layers = {key_name(numbering, key): layer for key, layer in reach.key_layers.items()
              if key_atom(numbering, key)[0] != GOAL}
    achievers = {}
    for key, (source, binding) in reach.key_achievers.items():
        if binding is None:
            achiever = ((f"@restricted-{actions.index(source)}", ()),
                        ground_atoms(task, source.schema, source.args, source.schema.pre))
        elif source.schema is None:
            continue
        else:
            value = {a: task.objects[binding[slot]] for a, slot in source.slots.items()}
            body = [(pred, tuple(value[a] for a in args)) for pred, args in source.body]
            body += [(EPSILON, ())] * (actions is not None)
            name, ids = source.action_of(binding)
            achiever = (name, tuple(task.objects[i] for i in ids)), body
        achievers[key_name(numbering, key)] = achiever
    return layers, achievers


def reached_atoms(program, reach) -> frozenset:
    """The (pred, args) keys that a `relaxation.ReachResult` of program
    reached: the fluent and static atoms, plus the gate when B was given;
    the program's other internal facts (their predicates start with "@")
    are left out."""
    return frozenset(key for key in named_layers(program, reach)
                     if key[0] == EPSILON or not key[0].startswith("@"))


def relaxed_goal_reachable(task: Task, state) -> bool:
    reachable, _ = relaxed_reachable(task, state)
    statics = static_keys(task)
    for g in task.goal:
        key = (task.atom(g).pred, task.atom(g).args)
        if key not in reachable and key not in statics:
            return False
    return True


def optimal_relaxed_plan_length(task: Task, state, max_states: int = 500_000):
    """Length of a shortest delete-relaxed plan (h+), by BFS over growing atom
    sets. Exponential; only for very small tasks."""
    statics = static_keys(task)
    goal = frozenset(
        (task.atom(g).pred, task.atom(g).args) for g in task.goal
    ) - statics
    start = state_to_keys(task, state)
    if goal <= start:
        return 0
    grounded = all_ground_actions(task)
    seen = {start}
    queue = deque([(start, 0)])
    while queue and len(seen) < max_states:
        atoms, depth = queue.popleft()
        true_keys = atoms | statics
        for schema, args in grounded:
            if not applicable_keys(task, schema, args, true_keys):
                continue
            succ = frozenset(atoms | set(ground_atoms(task, schema, args, schema.add)))
            if succ in seen:
                continue
            seen.add(succ)
            if goal <= succ:
                return depth + 1
            queue.append((succ, depth + 1))
    return None


# ---------------------------------------------------------------------------
# the restriction transform, materialised as a task


@dataclass
class RestrictedTask:
    """The task transform behind the restriction heuristic: a 0-ary gate
    predicate joins every original schema's precondition, and each action of
    the set becomes a parameterless schema that also adds the gate."""

    base: Task
    action_set: list

    def as_task(self) -> Task:
        base = self.base
        predicates = [(p.name, p.arity) for p in base.predicates]
        predicates.append((EPSILON, 0))
        eps_atom = Atom(EPSILON, ())
        schemas = [
            ActionSchema(
                s.name, s.params, s.pre + (eps_atom,), s.add, s.delete, s.equalities
            )
            for s in base.schemas
        ]
        for i, a in enumerate(self.action_set):
            def ground(atoms):
                return tuple(Atom(pred, args) for pred, args in
                             ground_atoms(base, a.schema, a.args, atoms))

            # an atom that a grounding both adds and deletes is added,
            # (s - del) | add, so it leaves the delete list
            add = ground(a.schema.add)
            schemas.append(
                ActionSchema(
                    f"@restricted-{i}",
                    (),
                    ground(a.schema.pre),
                    add + (eps_atom,),
                    tuple(d for d in ground(a.schema.delete) if d not in add),
                    (),
                )
            )
        return Task(
            base.domain_name,
            base.problem_name,
            predicates,
            schemas,
            list(base.objects),
            [base.atom(i) for i in sorted(base.init)],
            [base.atom(i) for i in sorted(base.goal)],
        )


def restrict_task(task: Task, actions) -> RestrictedTask:
    return RestrictedTask(task, list(actions))


# ---------------------------------------------------------------------------
# the FF value, by the enumeration order that the relaxation specifies


def _is_var(term: str) -> bool:
    return term.startswith("?")


def _reference_rules(task: Task, actions) -> list:
    """(head, body, equalities, action) of each rule, in program order: one
    rule per add effect of each schema, whose body is the preconditions plus
    an `@object` atom for each parameter that no precondition mentions; then
    the goal rule, with the goal atoms by ascending atom id. With an action
    set B, every schema body ends in the gate `@epsilon`, and B's actions
    follow the goal rule: for B[i], one ground rule per add effect, then the
    gate, each with B[i]'s ground preconditions as body. `action` is what
    the relaxed plan counts: (schema name, parameter terms), or
    ("@restricted-i", ()) for B[i], or None for the goal rule."""
    rules = []
    for schema in task.schemas:
        body = [(a.pred, a.args) for a in schema.pre]
        mentioned = {t for a in schema.pre for t in a.args}
        body += [(OBJECT, (p,)) for p in schema.params if p not in mentioned]
        if actions is not None:
            body.append((EPSILON, ()))
        for add in schema.add:
            rules.append(((add.pred, add.args), body, schema.equalities,
                          (schema.name, schema.params)))
    rules.append(((GOAL, ()), [tuple(task.atom(g)) for g in sorted(task.goal)], (), None))
    for i, a in enumerate(actions or ()):
        pre = ground_atoms(task, a.schema, a.args, a.schema.pre)
        heads = ground_atoms(task, a.schema, a.args, a.schema.add) + [(EPSILON, ())]
        rules.extend((head, pre, (), (f"@restricted-{i}", ())) for head in heads)
    return rules


def _match(pattern, fact, binding):
    """binding extended so that pattern (pred, terms) equals fact, or None."""
    pred, terms = pattern
    if fact[0] != pred or len(fact[1]) != len(terms):
        return None
    out = dict(binding)
    for term, value in zip(terms, fact[1]):
        if not _is_var(term):
            if term != value:
                return None
        elif out.setdefault(term, value) != value:
            return None
    return out


def _matches(pattern, facts, binding) -> list:
    """The extensions of binding that match pattern with a fact of facts,
    a dict of each predicate's facts in order, in that order."""
    out = (_match(pattern, fact, binding) for fact in facts.get(pattern[0], ()))
    return [b for b in out if b is not None]


def _by_pred(facts) -> dict:
    """facts grouped by predicate, each group in the order of facts."""
    out: dict = {}
    for fact in facts:
        out.setdefault(fact[0], []).append(fact)
    return out


def _bindings(rule, seed, delta, known):
    """The bindings of a rule's body with body atom `seed` matched in delta,
    in the specified order: the seed atom's matches in commit order, then the
    other body atoms most-bound first (counting the argument positions that
    hold a constant or an already bound variable), ties by position, each
    over its matches among the atoms in known, in commit order. The
    equality literals filter the complete bindings. delta and known group
    their atoms by predicate."""
    _, body, equalities, _ = rule
    for first in _matches(body[seed], delta, {}):
        order, todo = [], [i for i in range(len(body)) if i != seed]
        bound = set(first)
        while todo:
            i = min(todo, key=lambda i: (-sum(not _is_var(t) or t in bound
                                              for t in body[i][1]), i))
            todo.remove(i)
            order.append(body[i])
            bound.update(t for t in body[i][1] if _is_var(t))
        partial = [first]
        for atom in order:
            partial = [b for b in partial for b in _matches(atom, known, b)]
        yield from (b for b in partial if _holds(equalities, b))


def _holds(equalities, binding) -> bool:
    return all((binding.get(x, x) == binding.get(y, y)) == want for x, y, want in equalities)


def reference_reach(task: Task, state, actions=None) -> tuple[dict, dict]:
    """The layers and achievers of state's relaxed fixpoint, with the
    restriction transform to the action set `actions` (B, a list of
    applicable ground actions) when given: (atom -> layer, atom ->
    achiever), both in commit order, atoms as (pred, args) by name. An
    achiever is (action, body atoms): the rule's action of
    `_reference_rules` and its body, both under the first binding that
    derived the atom.

    A naive lifted fixpoint in unit-cost layers over the rules of
    `_reference_rules`, with no semi-naive skip and no cut-off of any kind:
    at layer L, each rule in program order, for each seed position k in
    order, enumerates `_bindings` with body atom k from the atoms of layer
    L - 1 and the others from every atom below L, and a binding derives its
    head at L unless the head is already derived. A rule with an empty body
    fires at layer 1. The fixpoint runs until a layer derives nothing new.

    Commit order: the static atoms by ascending atom id, then one `@object`
    atom per object in declaration order, then the state's other atoms, then
    each layer's derived atoms in the order derived. The state's own order
    is the iteration order of the `state` frozenset, which depends on how
    the set was built and not only on its atoms, so it cannot be specified
    independently: it is an input, read from the object the caller passes."""
    layers: dict = {}   # atom -> layer, in commit order
    for key in ([tuple(task.atom(i)) for i in sorted(task.static_atoms)]
                + [(OBJECT, (o,)) for o in task.objects]
                + [tuple(task.atom(i)) for i in state]):
        layers.setdefault(key, 0)
    achievers: dict = {}
    rules = _reference_rules(task, None if actions is None else list(actions))
    layer, changed = 0, True
    while changed:
        layer += 1
        changed = False
        known = [key for key, at in layers.items() if at < layer]
        delta = _by_pred(key for key in known if layers[key] == layer - 1)
        known = _by_pred(known)
        for rule in rules:
            head, body, equalities, action = rule
            if body:
                found = (b for seed in range(len(body)) for b in _bindings(rule, seed, delta, known))
            else:
                found = [{}] if layer == 1 and _holds(equalities, {}) else []
            for b in found:
                key = (head[0], tuple(b.get(t, t) for t in head[1]))
                if key not in layers:
                    layers[key] = layer
                    achievers[key] = (None if action is None else
                                      (action[0], tuple(b.get(t, t) for t in action[1])),
                                      [(p, tuple(b.get(t, t) for t in terms)) for p, terms in body])
                    changed = True
    return layers, achievers


def ff_reference(task: Task, state, actions=None) -> float:
    """The FF value of state, with the restriction transform to the action
    set `actions` (B, a list of applicable ground actions) when given: the
    number of distinct actions in the relaxed plan extracted from each
    reached atom's first achiever in `reference_reach`, inf if the goal is
    not reached."""
    layers, achievers = reference_reach(task, state, actions)
    if (GOAL, ()) not in layers:
        return math.inf
    plan, seen, stack = set(), set(), [(GOAL, ())]
    while stack:
        key = stack.pop()
        if key in seen or layers[key] == 0:
            continue
        seen.add(key)
        action, body = achievers[key]
        if action is not None:
            plan.add(action)
        stack.extend(body)
    return len(plan)


def fill_tables(atoms, tables_of, tables) -> None:
    """The reference index fill: append the args of (pred, args) atoms to
    the index tables of their predicate, in the atoms' order; `tables_of`
    maps a predicate to its [(table id, key positions)]. A table maps a key
    to the list of matching args: 0 without key positions, the value at a
    single position, else the tuple of the values."""
    for pred, args in atoms:
        for tid, positions in tables_of.get(pred, ()):
            table = tables[tid]
            values = tuple(args[pos] for pos in positions)
            key = 0 if not values else values[0] if len(values) == 1 else values
            matches = table.get(key)
            if matches is None:
                table[key] = [args]
            else:
                matches.append(args)


# ---------------------------------------------------------------------------
# ranking datasets

def dataset_size_closed_form(alpha: int, beta: int, k: int, n: int) -> int:
    """Tuple count on the synthetic family: alpha schemas of k parameters each,
    beta objects filling any parameter independently, a plan of n actions.

    Per step: 2(k+1) predecessor tuples, (alpha*beta^k - 1) action siblings,
    and sum_i (alpha*beta^i - 1) chain siblings; plus one cross-state
    predecessor tuple for every step after the first.
    """
    if n <= 0:
        return 0
    per_step = (
        2 * (k + 1)
        + (alpha * beta**k - 1)
        + sum(alpha * beta**i - 1 for i in range(k + 1))
    )
    return n * per_step + (n - 1)


# ---------------------------------------------------------------------------
# WL refinement on string keys


def edges(graph) -> list[tuple[int, int, int]]:
    """The labeled edges (fact vertex, object vertex, label) of a bipartite
    `graphs.LabeledGraph`, by fact vertex and then by label."""
    first = len(graph.colors) - len(graph.args)
    return [(v, u, label) for v, args in enumerate(graph.args, first)
            for label, u in enumerate(args, start=1)]


def string_wl_features(graph, iterations: int, dictionary) -> dict:
    """WL color counts with every color spelt out as a string: "c|<color>" at
    iteration 0, then "s|<own>|<label>,<color>;..." over the sorted pairs of
    (edge label, neighbor color), the graph taken as its plain edge list.
    `dictionary` is a `wl.ColorDictionary` that holds only such strings.
    Unknown colors get call-local negative ids and are never counted."""
    counts: dict[int, int] = {}
    temps: dict[str, int] = {}

    def resolve(key: str) -> int:
        idx = dictionary.lookup(key)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
            return idx
        return temps.setdefault(key, -1 - len(temps))

    current = [resolve("c|" + color) for color in graph.colors]
    adjacency: list[list[tuple[int, int]]] = [[] for _ in graph.colors]
    for u, v, label in edges(graph):
        adjacency[u].append((label, v))
        adjacency[v].append((label, u))
    for _ in range(iterations):
        refined = []
        for v in range(len(current)):
            pairs = sorted((label, current[u]) for label, u in adjacency[v])
            key = f"s|{current[v]}|" + ";".join(f"{l},{c}" for l, c in pairs)
            refined.append(resolve(key))
        current = refined
    return counts


# ---------------------------------------------------------------------------
# AOAG and AEG graphs, built straight from a node


def node_graph(task: Task, state, rho, kind: str):
    """The AOAG ("aoag") or AEG ("aeg") graph of the node (state, rho), by the
    definitions and without graph keys. B is every applicable grounding that
    extends rho's prefix, found by scanning every grounding, in schema order
    and then by object declaration index. The root and a B that covers A_s
    are plain; a singleton AOAG B is the instance graph after its action.
    Vertices: the objects in declaration order, the atoms by ascending atom
    id, then AOAG's action vertices in B's order."""
    from pslift.graphs import LabeledGraph

    index = task.object_index
    applicable = oracle_applicable_actions(task, state)
    actions = []
    if not rho.is_root:
        k = len(rho.args)
        actions = sorted(((s, a) for s, a in applicable
                          if s.name == rho.schema.name and a[:k] == rho.args),
                         key=lambda sa: [index[o] for o in sa[1]])
    plain = rho.is_root or {(s.name, a) for s, a in actions} >= {
        (s.name, a) for s, a in applicable}
    keys = state_to_keys(task, state)
    goal = frozenset((task.atom(g).pred, task.atom(g).args) for g in task.goal_fluent)
    opt_add = opt_del = frozenset()
    if kind == "aoag":
        if plain:
            actions = []
        elif len(actions) == 1:
            keys = oracle_apply(task, keys, *actions[0])
            actions = []
        atoms = keys | goal

        def color(key):
            tag = ("ag" if key in goal else "ap") if key in keys else "ug"
            return f"{tag}({key[0]})"
    else:
        if not plain:
            adds = [frozenset(ground_atoms(task, s, a, s.add)) for s, a in actions]
            dels = [frozenset(ground_atoms(task, s, a, s.delete)) for s, a in actions]
            unav_add, unav_del = frozenset.intersection(*adds), frozenset.intersection(*dels)
            opt_add = frozenset.union(*adds) - unav_add
            opt_del = frozenset.union(*dels) - unav_del
            keys = (keys - unav_del) | unav_add
        actions = []
        atoms = keys | goal | opt_add | opt_del

        def color(key):
            if key in opt_add:
                alpha = "oa"
            elif key in opt_del:
                alpha = "od"
            elif key in goal and key not in keys:
                alpha = "u"
            else:
                alpha = "a"
            return f"{alpha}:{'g' if key in goal else 'ng'}({key[0]})"

    unary: list[list[str]] = [[] for _ in task.objects]
    for pred, args in static_keys(task):
        if len(args) == 1:
            unary[index[args[0]]].append(pred)
    graph = LabeledGraph(["ob{" + ",".join(sorted(ps)) + "}" for ps in unary], [])
    for key in sorted(atoms, key=lambda key: task.intern(*key)):
        graph.colors.append(color(key))
        graph.args.append(tuple(index[obj] for obj in key[1]))
    for schema, args in actions:
        graph.colors.append(f"act({schema.name})")
        graph.args.append(tuple(index[obj] for obj in args))
    return graph


# ---------------------------------------------------------------------------
# PDDL round trip: a canonical (untyped) printer and a structural signature

def _var_list(arity: int) -> str:
    return " ".join(f"?x{i}" for i in range(arity))


def write_domain(task: Task) -> str:
    reqs = [":strips"]
    if any(s.equalities for s in task.schemas):
        reqs.append(":equality")
        if any(not pos for s in task.schemas for _, _, pos in s.equalities):
            reqs.append(":negative-preconditions")
    lines = [f"(define (domain {task.domain_name})"]
    lines.append(f"  (:requirements {' '.join(reqs)})")
    preds = "\n    ".join(
        f"({p.name}{' ' if p.arity else ''}{_var_list(p.arity)})"
        for p in sorted(task.predicates, key=lambda p: p.name)
    )
    lines.append(f"  (:predicates {preds})")
    for s in task.schemas:
        lines.append(f"  (:action {s.name}")
        lines.append(f"    :parameters ({' '.join(s.params)})")
        pre_parts = [a.to_sexpr() for a in s.pre]
        for x, y, pos in s.equalities:
            lit = f"(= {x} {y})"
            pre_parts.append(lit if pos else f"(not {lit})")
        lines.append(f"    :precondition (and {' '.join(pre_parts)})")
        eff_parts = [a.to_sexpr() for a in s.add]
        eff_parts.extend(f"(not {a.to_sexpr()})" for a in s.delete)
        lines.append(f"    :effect (and {' '.join(eff_parts)}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def write_problem(task: Task) -> str:
    lines = [f"(define (problem {task.problem_name or 'unnamed'})"]
    lines.append(f"  (:domain {task.domain_name})")
    lines.append(f"  (:objects {' '.join(task.objects)})")
    init_atoms = sorted(task.atom(i).to_sexpr() for i in task.init)
    lines.append("  (:init " + "\n         ".join(init_atoms) + ")")
    goal_atoms = sorted(task.atom(i).to_sexpr() for i in task.goal)
    lines.append("  (:goal (and " + " ".join(goal_atoms) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def signature(task: Task):
    """Canonical structural form of a task, for round-trip equality checks."""
    return (
        task.domain_name,
        tuple(sorted((p.name, p.arity, p.is_static) for p in task.predicates)),
        tuple(
            (s.name, s.params, s.pre, s.add, s.delete, s.equalities)
            for s in task.schemas
        ),
        task.objects,
        frozenset(task.atom(i) for i in task.init),
        frozenset(task.atom(i) for i in task.goal),
    )
