import random

import pytest

from pslift.generators import generate_task
from pslift.graphs import LabeledGraph, aeg, aoag, effect_partition, ilg
from pslift.lifted import ROOT, PartialAction, _apply_effects, apply, instantiations
from pslift.relaxation import EmptyActionSet

import oracles


def vertex_names(task, graph):
    """Names of a graph's vertices, derived from the vertex layout: the
    objects first, by declaration index; an atom as pred(args), with pred
    from its color and args ordered by edge label; an action as
    (schema args)."""
    args = [[] for _ in graph.colors]
    for u, v, label in graph.edges:
        args[u].append((label, task.objects[v]))
    names = list(task.objects)
    for v in range(len(task.objects), len(graph.colors)):
        color = graph.colors[v]
        head = color[color.index("(") + 1:-1]
        objs = [obj for _, obj in sorted(args[v])]
        if color.startswith("act("):
            names.append(f"({' '.join([head] + objs)})")
        else:
            names.append(f"{head}({','.join(objs)})")
    return names


def color_by_name(task, graph):
    return dict(zip(vertex_names(task, graph), graph.colors))


class TestIlg:
    def test_bw2_shape(self, bw2):
        g = ilg(bw2, bw2.initial_state)
        names = vertex_names(bw2, g)
        assert len(g.colors) == 8  # 2 objects + 5 state atoms + 1 goal atom
        assert len(g.edges) == 6  # four unary atoms + two arcs for on(a,b)
        colors = color_by_name(bw2, g)
        assert sum(1 for c in colors.values() if c.startswith("ap(")) == 5
        assert sum(1 for c in colors.values() if c.startswith("ug(")) == 1
        degree = {n: 0 for n in names}
        for u, v, _ in g.edges:
            degree[names[u]] += 1
            degree[names[v]] += 1
        assert degree["handempty()"] == 0
        labels = {(names[u], l) for u, v, l in g.edges if names[u] == "on(a,b)"}
        assert labels == {("on(a,b)", 1), ("on(a,b)", 2)}

    def test_empty_state_and_goal(self):
        from pslift.pddl import Atom, Task, ActionSchema
        schema = ActionSchema("touch", ("?x",), (), (Atom("p", ("?x",)),), ())
        task = Task("d", "q", [("p", 1)], [schema], ["o1", "o2"], [], [])
        g = ilg(task, task.initial_state)
        assert vertex_names(task, g) == ["o1", "o2"] and g.edges == []

    def test_static_unary_predicates_become_object_colors(self, typed_task):
        g = ilg(typed_task, typed_task.initial_state)
        colors = color_by_name(typed_task, g)
        assert colors["t1"] == "ob{shiny,truck,vehicle}"
        assert colors["c1"] == "ob{car,vehicle}"
        assert colors["depot"] == "ob{place}"
        # static atoms do not appear as vertices
        assert "shiny(t1)" not in colors

    def test_static_arity2_atoms_ignored(self, spanner_mini):
        g = ilg(spanner_mini, spanner_mini.initial_state)
        assert all(not n.startswith("link(") for n in vertex_names(spanner_mini, g))


class TestEffectPartition:
    def test_stack_choice_scenario(self, bw3_stack):
        s = bw3_stack.initial_state
        rho = PartialAction(bw3_stack.schema("stack"), ("b",))
        part, s_prime = effect_partition(bw3_stack, s, instantiations(bw3_stack, s, rho))

        def fmt(ids):
            return {str(bw3_stack.atom(i)) for i in ids}

        assert fmt(part.unav_add) == {"clear(b)", "handempty()"}
        assert fmt(part.unav_del) == {"holding(b)"}
        assert fmt(part.opt_add) == {"on(b,a)", "on(b,c)"}
        assert fmt(part.opt_del) == {"clear(a)", "clear(c)"}
        assert fmt(s_prime) == {"ontable(a)", "ontable(c)", "clear(a)", "clear(c)",
                                "clear(b)", "handempty()"}

    def test_full_action_set_is_empty_partition(self, bw3_stack):
        s = bw3_stack.initial_state
        part, s_prime = effect_partition(
            bw3_stack, s, instantiations(bw3_stack, s, ROOT))
        assert part.empty and s_prime == s

    def test_singleton_has_no_optional_effects(self, bw2):
        s = bw2.initial_state
        action = next(instantiations(bw2, s, ROOT))
        part, _ = effect_partition(bw2, s, [action])
        assert part.opt_add == frozenset() and part.opt_del == frozenset()
        assert len(part.unav_add) == len(action.schema.add)

    def test_empty_set_rejected(self, bw2):
        with pytest.raises(EmptyActionSet):
            effect_partition(bw2, bw2.initial_state, [])


class TestAoag:
    def test_root_equals_ilg(self, bw3_stack):
        s = bw3_stack.initial_state
        assert aoag(bw3_stack, s, ROOT) == ilg(bw3_stack, s)

    def test_singleton_equals_ilg_of_successor(self, bw2):
        s = bw2.initial_state
        rho = PartialAction(bw2.schema("pickup"), ("a",))
        action = next(instantiations(bw2, s, rho))
        assert aoag(bw2, s, rho) == ilg(bw2, apply(bw2, s, action))

    def test_stack_scenario_action_vertices(self, bw3_stack):
        s = bw3_stack.initial_state
        rho = PartialAction(bw3_stack.schema("stack"), ("b",))
        g = aoag(bw3_stack, s, rho)
        base = ilg(bw3_stack, s)
        assert len(g.colors) == len(base.colors) + 2
        act_vertices = [i for i, c in enumerate(g.colors) if c == "act(stack)"]
        assert len(act_vertices) == 2
        for v in act_vertices:
            incident = [(u2, v2, l) for u2, v2, l in g.edges if v in (u2, v2)]
            assert sorted(l for _, _, l in incident) == [1, 2]

    def test_random_special_cases(self):
        rng = random.Random(5)
        for seed in range(6):
            task = generate_task("blocksworld", seed=seed, blocks=4)
            state = task.initial_state
            for _ in range(4):
                actions = list(instantiations(task, state, ROOT))
                if not actions:
                    break
                assert aoag(task, state, ROOT) == ilg(task, state)
                action = rng.choice(actions)
                rho = PartialAction(action.schema, action.args)
                if len(actions) > 1:
                    assert aoag(task, state, rho) == ilg(
                        task, _apply_effects(task, state, action))
                state = _apply_effects(task, state, action)


class TestAeg:
    def test_root_is_state_goal_graph(self, bw3_stack):
        s = bw3_stack.initial_state
        g = aeg(bw3_stack, s, ROOT)
        colors = color_by_name(bw3_stack, g)
        assert set(colors) == {"a", "b", "c", "holding(b)", "ontable(a)", "ontable(c)",
                               "clear(a)", "clear(c)", "on(b,a)"}
        alphas = {c.split(":")[0] for n, c in colors.items() if "(" in n}
        assert alphas <= {"a", "u"}
        assert colors["on(b,a)"] == "u:g(on)"

    def test_stack_choice_scenario_colors(self, bw3_stack):
        s = bw3_stack.initial_state
        rho = PartialAction(bw3_stack.schema("stack"), ("b",))
        colors = color_by_name(bw3_stack, aeg(bw3_stack, s, rho))
        assert colors["on(b,a)"] == "oa:g(on)"
        assert colors["on(b,c)"] == "oa:ng(on)"
        assert colors["clear(a)"] == "od:ng(clear)"
        assert "holding(b)" not in colors  # deleted unavoidably

    def test_goal_atom_not_achievable_by_set_colored_unachieved(self, bw2):
        s = bw2.initial_state
        rho = PartialAction(bw2.schema("pickup"), ("b",))
        colors = color_by_name(bw2, aeg(bw2, s, rho))
        assert colors["on(a,b)"] == "u:g(on)"

    def test_od_only_if_deleted_by_some_not_all(self):
        for seed in range(4):
            task = generate_task("warehouse-like", seed=seed, stacks=3, boxes=4, marked=1)
            state = task.initial_state
            for rho in [PartialAction(s, ()) for s in task.schemas]:
                actions = list(instantiations(task, state, rho))
                if not actions or len(actions) > 20:
                    continue
                try:
                    part, _ = effect_partition(task, state, actions)
                except EmptyActionSet:
                    continue
                del_sets = [set(oracles.ground_atoms(task, a.schema, a.args, a.schema.delete))
                            for a in actions]
                for i in part.opt_del:
                    key = (task.atom(i).pred, task.atom(i).args)
                    hits = sum(1 for ds in del_sets if key in ds)
                    assert 0 < hits < len(actions)


class TestIsomorphismInvariance:
    def test_object_declaration_order_does_not_change_fingerprints(self):
        from pslift.pddl import load_task
        from pslift.wl import ColorDictionary, wl_features
        from conftest import BW_DOMAIN_TEXT

        problem = """(define (problem p) (:domain blocksworld)
          (:objects {objs})
          (:init (ontable a) (on b a) (clear b) (ontable c) (clear c) (handempty))
          (:goal (and (on a c))))"""
        d = ColorDictionary()
        fingerprints = []
        for objs in ("a b c", "c b a", "b a c"):
            task = load_task(BW_DOMAIN_TEXT, problem.format(objs=objs))
            state = task.initial_state
            rho = PartialAction(task.schema("pickup"), ())
            fingerprints.append((
                wl_features(ilg(task, state), 2, d),
                wl_features(aoag(task, state, rho), 2, d),
                wl_features(aeg(task, state, rho), 2, d),
            ))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]


class TestGraphEquality:
    def test_label_matters(self):
        g1 = LabeledGraph()
        g1.add_edge(g1.add_vertex("c"), g1.add_vertex("c"), 1)
        g2 = LabeledGraph()
        g2.add_edge(g2.add_vertex("c"), g2.add_vertex("c"), 2)
        assert g1 != g2

    def test_edge_labels_bounded_by_arity(self, bw3_stack):
        s = bw3_stack.initial_state
        rho = PartialAction(bw3_stack.schema("stack"), ("b",))

        def arity_of(name):
            if name.startswith("("):  # action vertex "(stack b a)"
                return len(name[1:-1].split()) - 1
            if "(" in name:  # atom vertex "on(b,a)"
                inner = name[name.index("(") + 1:-1]
                return len(inner.split(",")) if inner else 0
            return None  # object vertex

        for g in (ilg(bw3_stack, s), aoag(bw3_stack, s, rho), aeg(bw3_stack, s, rho)):
            names = vertex_names(bw3_stack, g)
            for u, v, label in g.edges:
                arity = arity_of(names[u])
                if arity is None:
                    arity = arity_of(names[v])
                assert arity is not None and 1 <= label <= arity
