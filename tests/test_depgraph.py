import time
from collections import Counter

import pytest

from aspback import (BackdoorQuery, GenConfig, TargetClass, build_ddg, build_udg,
                     child_seed, core, describe_witness, dot_ddg, dot_incidence,
                     dot_udg, find_backdoor, find_directed_cycle,
                     find_undirected_cycle, in_target_class, incidence_graph,
                     parse_program, random_program, witness_cycle)
from test_detect import _golden_corpus, _strong_corpus


def ids(p):
    return {p.atom_name(i): i for i in range(p.n_atoms)}


def test_ddg_edges_worked_example(ex1, ex1_ids):
    i = ex1_ids
    d = build_ddg(ex1)
    neg = {(ex1.atom_name(a), ex1.atom_name(b)) for a, b in d.negative}
    assert neg == {("t", "r"), ("q", "s"), ("w", "r")}
    # the good directed cycle (u, q, u)
    assert (i["u"], i["q"]) in d.edges and (i["q"], i["u"]) in d.edges
    assert (i["q"], i["u"]) not in d.negative


def test_ddg_disjunctive_head_pairs_negative():
    p = parse_program("a | b :- c.")
    i = ids(p)
    d = build_ddg(p)
    assert (i["a"], i["b"]) in d.negative and (i["b"], i["a"]) in d.negative
    assert (i["a"], i["c"]) in d.edges and (i["a"], i["c"]) not in d.negative


def test_ddg_built_from_all_rules():
    # no core(): tautological rules still contribute edges
    p = parse_program("a :- b, not b.")
    d = build_ddg(p)
    assert d.edges and d.negative


def test_udg_vertices_worked_example(ex1):
    g = build_udg(ex1)
    assert g.n_vertices == 6 + 3
    labels = {g.vertex_label(6 + k, ex1) for k in range(3)}
    assert labels == {"v_(t,r)", "v_(w,r)", "v_(q,s)"}


def test_udg_subdivided_negative_self_loop_is_cycle():
    p = parse_program("a :- not a.")
    g = build_udg(p)
    w = find_undirected_cycle(g, bad_only=True)
    assert w is not None and w.bad
    assert len(w.vertices) == 2  # atom and its negative vertex


def test_positive_two_cycle_collapses_in_udg():
    # x :- y. y :- x. gives one undirected edge, not a cycle
    p = parse_program("a :- b.  b :- a.")
    assert find_undirected_cycle(build_udg(p)) is None
    assert find_directed_cycle(build_ddg(p)) is not None


def test_find_directed_cycle_shortest_and_rotated():
    p = parse_program("a :- b.  b :- c.  c :- a.  d :- e.  e :- d.")
    w = find_directed_cycle(build_ddg(p))
    assert len(w.vertices) == 2  # the (d, e) two-cycle is shortest
    assert w.vertices[0] == min(w.vertices)
    assert not w.bad


def test_components_computed_on_demand(monkeypatch):
    # a loop is found before the search needs the components, so no Tarjan
    # pass runs and the deletion search branches on the loop whole; a cycle
    # that needs them runs one, which _branch_atoms then reads again
    import aspback.depgraph as dg
    from aspback.program import CompiledProgram
    calls = []
    monkeypatch.setattr(dg, "_components", lambda adj, undirected=False, fn=dg._components:
                        calls.append(undirected) or fn(adj, undirected))

    def closure(text, c):
        return dg.deletion_violation(CompiledProgram(parse_program(text)), c)
    assert find_directed_cycle(build_ddg(parse_program("a :- a.  b :- a."))).vertices == (0,)
    assert closure("a :- not a.  b :- a.", TargetClass.STRAT)(0) == (1, 1)
    assert calls == []
    # b and c, the only two-cycle, defer to each other: b is branched on
    assert closure("a :- b.  b :- c.  c :- a.  c :- b.", TargetClass.DC_ACYC)(0) == (6, 2)
    assert calls == [False]


def test_find_directed_cycle_bad_only():
    p = parse_program("a :- b.  b :- a.  c :- not d.  d :- c.")
    w = find_directed_cycle(build_ddg(p), bad_only=True)
    i = ids(p)
    assert set(w.vertices) == {i["c"], i["d"]}
    assert w.bad


def test_find_directed_cycle_allow_good_two_cycles():
    p = parse_program("a :- b.  b :- a.")
    assert find_directed_cycle(build_ddg(p), allow_good_two_cycles=True) is None
    q = parse_program("a :- b.  b :- not a.")
    w = find_directed_cycle(build_ddg(q), allow_good_two_cycles=True)
    assert w is not None and w.bad
    r = parse_program("a :- b.  b :- c.  c :- a.")
    w2 = find_directed_cycle(build_ddg(r), allow_good_two_cycles=True)
    assert w2 is not None and len(w2.vertices) == 3


def test_directed_self_loop():
    p = parse_program("a :- a, b.")  # tautological, but graphs see all rules
    w = find_directed_cycle(build_ddg(p))
    assert w.vertices == (0,)


def test_undirected_positive_loop_is_good():
    # graphs see all rules, so a tautological a :- a. leaves a positive loop
    w = find_undirected_cycle(build_udg(parse_program("a :- a.")))
    assert (w.kind, w.vertices, w.bad) == ("undirected", (0,), False)
    assert find_undirected_cycle(build_udg(parse_program("a :- a.")), bad_only=True) is None


def test_witness_cycle_applies_core():
    # the only cycle comes from a tautological rule: classes ignore it
    p = parse_program("a :- a, b.")
    for c in (TargetClass.C_ACYC, TargetClass.DC_ACYC, TargetClass.STRAT):
        assert witness_cycle(p, c) is None


def test_witness_cycle_per_class(ex1):
    for c, kind in ((TargetClass.C_ACYC, "undirected"),
                    (TargetClass.BC_ACYC, "undirected"),
                    (TargetClass.DC_ACYC, "directed"),
                    (TargetClass.DC2_ACYC, "directed"),
                    (TargetClass.STRAT, "directed")):
        w = witness_cycle(ex1, c)
        assert w is not None and w.kind == kind


def test_witness_cycle_rejects_horn():
    with pytest.raises(ValueError):
        witness_cycle(parse_program("a."), TargetClass.HORN)


def test_describe_witness_strat(ex1):
    w = witness_cycle(ex1, TargetClass.STRAT)
    assert describe_witness(ex1, w) == "(w, r)"


def test_describe_witness_undirected_negative_vertex():
    p = parse_program("a :- b.  b :- not a.")
    w = witness_cycle(p, TargetClass.C_ACYC)
    assert w is not None
    text = describe_witness(p, w)
    assert "v_(b,a)" in text


def test_bc_acyc_distinguishes_good_cycles():
    # purely positive undirected cycle: C-Acyc violated, BC-Acyc fine
    p = parse_program("a :- b.  b :- c.  a :- c.")
    assert witness_cycle(p, TargetClass.C_ACYC) is not None
    assert witness_cycle(p, TargetClass.BC_ACYC) is None


def test_incidence_graph_counts(ex1):
    g = incidence_graph(ex1)
    assert g.n_rules == 6 and g.n_atoms == 6
    assert len(g.edges) == 16  # 6 heads + 10 body literals


def test_dot_outputs(ex1):
    d = dot_ddg(ex1)
    assert d.startswith("digraph") and '"w" -> "r" [style=dashed];' in d
    u = dot_udg(ex1)
    assert '"v_(w,r)" [shape=box];' in u
    i = dot_incidence(ex1)
    assert '"r0" [shape=box];' in i and '"r0" -- "s";' in i


def test_dot_deterministic(ex1):
    assert dot_ddg(ex1) == dot_ddg(ex1)
    assert dot_udg(ex1) == dot_udg(ex1)


# witnesses recorded from the dict-graph search that the mask search
# replaced; each component here is one simple cycle, or a cycle plus a chord
CYCLE_CLASSES = (TargetClass.C_ACYC, TargetClass.BC_ACYC, TargetClass.DC_ACYC,
                 TargetClass.DC2_ACYC, TargetClass.STRAT)


def _witnesses(text):
    p = parse_program(text)
    out = []
    for c in CYCLE_CLASSES:
        w = witness_cycle(p, c)
        out.append((w.kind[0], w.vertices, w.bad, describe_witness(p, w)))
    return out


def test_long_negative_cycle_with_chord():
    # 13 edges on 12 atoms: not one simple cycle, so the chord's shortcut
    # must be found by search
    text = "".join(f"a{k} :- not a{(k + 1) % 12}.\n" for k in range(12)) + "a0 :- a6.\n"
    und = ("u", (0, 6, 17, 5, 16, 4, 15, 3, 14, 2, 13, 1, 12), True,
           "(a0, a6, v_(a5,a6), a5, v_(a4,a5), a4, v_(a3,a4), a3, v_(a2,a3), "
           "a2, v_(a1,a2), a1, v_(a0,a1))")
    short = ("d", (0, 6, 7, 8, 9, 10, 11), True, "(a0, a6, a7, a8, a9, a10, a11)")
    assert _witnesses(text) == [und, und, short, short, short]


def test_positive_two_cycle_beside_negative_cycle():
    # dc2-acyc permits the positive two-cycle component, so the longer
    # negative cycle is its witness; dc-acyc forbids the two-cycle
    text = "p :- q.\nq :- p.\n" + "".join(f"b{k} :- not b{(k + 1) % 4}.\n" for k in range(4))
    und = ("u", (2, 9, 5, 8, 4, 7, 3, 6), True,
           "(b0, v_(b3,b0), b3, v_(b2,b3), b2, v_(b1,b2), b1, v_(b0,b1))")
    bad4 = ("d", (2, 3, 4, 5), True, "(b0, b1, b2, b3)")
    assert _witnesses(text) == [und, und, ("d", (0, 1), False, "(p, q)"), bad4, bad4]


def test_disjoint_cycles_tie_goes_to_first_candidate():
    # cycles of 5, 3 and 3 atoms: the first of the two shortest wins
    text = "".join(f"{a}{k} :- not {a}{(k + 1) % m}.\n"
                   for a, m in (("a", 5), ("b", 3), ("c", 3)) for k in range(m))
    und = ("u", (5, 18, 7, 17, 6, 16), True,
           "(b0, v_(b2,b0), b2, v_(b1,b2), b1, v_(b0,b1))")
    three = ("d", (5, 6, 7), True, "(b0, b1, b2)")
    assert _witnesses(text) == [und, und, three, three, three]


def test_long_negative_cycle_witnesses():
    # one simple cycle: settled without a breadth-first search per edge, so
    # this runs in well under a second
    k = 3000
    p = parse_program("".join(f"a{j} :- not a{(j + 1) % k}.\n" for j in range(k)))
    for c in CYCLE_CLASSES:
        w = witness_cycle(p, c)
        assert w.bad and w.vertices[0] == 0
        assert len(w.vertices) == (2 * k if w.kind == "undirected" else k)


def _dependency_edges(p):
    """The directed dependency graph by its definition (module docstring),
    over p.rules: (edges, negative edges)."""
    edges, negative = set(), set()
    for r in p.rules:
        for x in r.head:
            edges |= {(x, y) for y in r.pos_body | r.neg_body}
            shared = {(x, y) for y in r.head if y != x}
            edges |= shared
            negative |= shared | {(x, y) for y in r.neg_body}
    return frozenset(edges), frozenset(negative)


def test_ddg_masks_match_definition():
    # the edge views against the definition, and the cycle search on the
    # digraph's masks against witness_cycle, which builds its own
    found = 0
    for i, p in enumerate(_golden_corpus() + _strong_corpus()):
        d = build_ddg(p)
        assert len(d.succ) == len(d.neg) == p.n_atoms, f"program {i}"
        assert (d.edges, d.negative) == _dependency_edges(p), f"program {i}"
        dc = build_ddg(core(p))
        for c, flags in ((TargetClass.DC_ACYC, {}),
                         (TargetClass.STRAT, {"bad_only": True}),
                         (TargetClass.DC2_ACYC, {"allow_good_two_cycles": True})):
            w = find_directed_cycle(dc, **flags)
            assert w == witness_cycle(p, c), f"program {i}, {c}"
            found += w is not None
    assert found >= 900


def _distance_without(edges, j):
    """Edges of a shortest path between the ends of edges[j] that does not
    take that edge, in the undirected multigraph edges (pairs), or None."""
    a, b = edges[j]
    adj = {}
    for k, (u, v) in enumerate(edges):
        if k != j:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    dist, todo = {a: 0}, [a]
    for u in todo:
        for w in adj.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                todo.append(w)
    return dist.get(b)


def _reference_lengths(g):
    """Lengths of a shortest positive cycle and of a shortest cycle through a
    negative vertex of g, by plain sets (None where there is none): a cycle
    through an edge is the edge and a path between its ends without it, a
    positive loop is a 1-cycle, a subdivided negative self-loop a 2-cycle."""
    n, pos = g.n_atoms, sorted(g.pos_pairs)
    # every cycle through negative vertex n + i takes its edge (x, n + i)
    into = [(x, n + i) for i, (x, _) in enumerate(g.neg_edges)]
    edges = pos + into + [(n + i, y) for i, (_, y) in enumerate(g.neg_edges)]

    def shortest(es, through):
        return min((d + 1 for j in through if (d := _distance_without(es, j)) is not None),
                   default=None)
    return shortest(pos, range(len(pos))), shortest(edges, range(len(pos), len(pos + into)))


def test_undirected_cycles_match_shortest_cycle_reference():
    # find_undirected_cycle is exact: the shortest cycle (a bad one on a tie,
    # as a positive cycle must be strictly shorter) and, with bad_only, the
    # shortest bad one; its vertices form a simple cycle on g's edges
    programs = [random_program(GenConfig(5 + i % 26, (0.7, 1.2, 1.8, 2.5)[i % 4],
                                         neg_prob=(0.1, 0.3, 0.5)[i % 3],
                                         seed=child_seed(23, i))) for i in range(320)]
    won = Counter()
    for i, p in enumerate(programs + _golden_corpus()):
        g = build_udg(p)
        good, bad = _reference_lengths(g)
        plain = (good, False) if good is not None and (bad is None or good < bad) else \
            None if bad is None else (bad, True)
        edges = Counter(frozenset((u, v)) for u, v in g.pos_pairs)
        edges.update(frozenset(e) for j, (x, y) in enumerate(g.neg_edges)
                     for e in ((x, g.n_atoms + j), (g.n_atoms + j, y)))
        for bad_only, want in ((False, plain), (True, None if bad is None else (bad, True))):
            w = find_undirected_cycle(g, bad_only=bad_only)
            assert (w and (len(w.vertices), w.bad)) == want, f"program {i}, {bad_only}"
            if w is None:
                continue
            verts = w.vertices
            steps = Counter(frozenset(e) for e in zip(verts, verts[1:] + verts[:1]))
            assert len(set(verts)) == len(verts) and steps <= edges, f"program {i}"
            assert w.bad == any(v >= g.n_atoms for v in verts)
            won[w.bad, bad_only] += 1
    assert min(won.values()) >= 100, won


def test_long_positive_cycle_settled_at_once():
    # a 3000-atom positive ring with a tail: its 2-edge-connected component
    # has degree two everywhere, so no breadth-first search runs per edge
    k = 3000
    p = parse_program("".join(f"a{j} :- a{(j + 1) % k}.\n" for j in range(k)) + "b :- a0.\n")
    t0 = time.perf_counter()
    w = witness_cycle(p, TargetClass.C_ACYC)
    assert len(w.vertices) == k and not w.bad
    assert in_target_class(p, TargetClass.BC_ACYC)
    r = find_backdoor(p, BackdoorQuery(TargetClass.C_ACYC, "deletion"))
    assert r.witness == {p.atom_id("a0")}
    assert time.perf_counter() - t0 < 5.0
