import random
import sys
import time
from itertools import combinations

import pytest

from aspback import (BackdoorQuery, ConflictGraph, GenConfig, ProgramBuilder,
                     TargetClass, brute_min_backdoor, child_seed, find_backdoor,
                     horn_conflict_graph, in_target_class, parse_program,
                     random_program, render_program, vertex_cover_min,
                     verify_backdoor, witness_cycle)
from aspback.depgraph import deletion_violation, violation
from aspback.oracle import reducts_in_class
from aspback.program import CompiledProgram, atom_mask, atoms_of, tautological
from conftest import corpus, names_of


def test_conflict_graph_worked_example(ex1):
    g = horn_conflict_graph(ex1)
    named = {tuple(sorted((ex1.atom_name(a), ex1.atom_name(b)))) for a, b in g.edges}
    assert named == {("r", "t"), ("q", "s"), ("r", "w")}


def test_conflict_graph_skips_tautologies():
    p = parse_program("a | b :- c, not c.")
    assert not horn_conflict_graph(p).edges


def test_conflict_graph_negative_self_edge():
    p = parse_program("a :- not a.")
    g = horn_conflict_graph(p)
    assert (0, 0) in g.edges


def _graph(n, edges):
    """The conflict graph on n atoms with the given (a, b) edges."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return ConflictGraph(tuple(adj))


def test_covered_by():
    g = _graph(3, {(0, 1), (1, 2)})
    assert g.covered_by({1})
    assert not g.covered_by({0})
    assert g.covered_by({0, 2})


def test_vc_triangle():
    g = _graph(3, {(0, 1), (1, 2), (0, 2)})
    c = vertex_cover_min(g)
    assert len(c) == 2 and c == frozenset({0, 1})  # lex-least pair


def test_vc_star_center():
    g = _graph(5, {(0, k) for k in range(1, 5)})
    assert vertex_cover_min(g) == frozenset({0})


def test_vc_path_lex():
    # P4 has minimum covers {0,2}, {1,2}, {1,3}; ties break lexicographically
    g = _graph(4, {(0, 1), (1, 2), (2, 3)})
    assert vertex_cover_min(g) == frozenset({0, 2})


def test_vc_self_loop_forced():
    g = _graph(3, {(1, 1), (0, 2)})
    c = vertex_cover_min(g)
    assert 1 in c and len(c) == 2


def test_vc_components_union():
    edges = {(0, 1), (2, 3), (4, 5), (4, 6), (5, 6)}
    g = _graph(7, edges)
    c = vertex_cover_min(g)
    assert len(c) == 4 and g.covered_by(c)


def test_vc_budget_none():
    g = _graph(6, {(0, 1), (2, 3), (4, 5)})
    assert vertex_cover_min(g, k=2) is None
    assert vertex_cover_min(g, k=3) == frozenset({0, 2, 4})


def test_vc_isolated_edges_take_one_node_each():
    # the kernel keeps the lower end of an isolated edge, so the
    # lexicographic pass has nothing left to test: one node per even loop
    p = parse_program("".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}.\n" for i in range(50)))
    r = find_backdoor(p, BackdoorQuery(TargetClass.HORN))
    assert r.witness == frozenset(p.atom_id(f"a{i}") for i in range(50))
    assert r.nodes_explored == 50


def test_vc_empty_graph():
    assert vertex_cover_min(_graph(4, ())) == frozenset()


def test_verify_backdoor_strong_and_deletion(ex1, ex1_ids):
    x = frozenset({ex1_ids["r"], ex1_ids["s"]})
    assert verify_backdoor(ex1, x, TargetClass.HORN, "strong")
    assert verify_backdoor(ex1, x, TargetClass.HORN, "deletion")
    assert not verify_backdoor(ex1, frozenset({ex1_ids["w"]}), TargetClass.HORN, "strong")
    assert verify_backdoor(ex1, frozenset({ex1_ids["w"]}), TargetClass.STRAT, "deletion")


def test_verify_backdoor_taut_corner():
    # strong holds, deletion fails: removing c turns the rule disjunctive
    p = parse_program("a | b :- c, not c.")
    x = frozenset({p.atom_id("c")})
    assert verify_backdoor(p, x, TargetClass.HORN, "strong")
    assert not verify_backdoor(p, x, TargetClass.HORN, "deletion")


def test_verify_backdoor_validation(ex1):
    with pytest.raises(ValueError):
        verify_backdoor(ex1, {99}, TargetClass.HORN, "strong")
    with pytest.raises(ValueError):
        verify_backdoor(ex1, {0}, TargetClass.HORN, "shrink")
    # past STRONG_ACYCLIC_SET_GUARD reducts a strong check is refused before
    # it enumerates them, although x is a backdoor
    p = parse_program("".join(f"a{i} :- not b{i}.\n" for i in range(31)))
    with pytest.raises(ValueError, match="too large"):
        verify_backdoor(p, [p.atom_id(f"b{i}") for i in range(31)], TargetClass.STRAT, "strong")


def test_strong_check_refused_at_once():
    # 2^30 reducts, every one in the class: a bound of 30 atoms let the check
    # walk them all
    p = parse_program("".join(f"a{i} :- not b{i}.\n" for i in range(31)))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        verify_backdoor(p, [p.atom_id(f"b{i}") for i in range(30)], TargetClass.STRAT, "strong")
    assert time.perf_counter() - t0 < 1.0


def test_strong_check_reduct_bound(monkeypatch):
    # three occurring atoms of x (z does not occur) give 8 reducts: a bound
    # of 7 refuses the check and 8 runs it
    import aspback.detect
    b = ProgramBuilder()
    for i in range(3):
        b.add_rule([f"a{i}"], [], [f"b{i}"])
    b.intern("z")
    p = b.build()
    x = [p.atom_id(name) for name in ("b0", "b1", "b2", "z")]
    monkeypatch.setattr(aspback.detect, "STRONG_ACYCLIC_SET_GUARD", 7)
    with pytest.raises(ValueError, match="> 7 reducts"):
        verify_backdoor(p, x, TargetClass.STRAT, "strong")
    monkeypatch.setattr(aspback.detect, "STRONG_ACYCLIC_SET_GUARD", 8)
    assert verify_backdoor(p, x, TargetClass.STRAT, "strong")


def test_violation_rejects_unknown_class():
    cp = CompiledProgram(parse_program("a :- not b."))
    for check in (lambda: violation(cp, "weak"), lambda: deletion_violation(cp, "weak")(0)):
        with pytest.raises(ValueError, match="unknown target class"):
            check()


def test_one_off_membership_never_builds_the_deletion_closure(monkeypatch, tmp_path, capsys):
    # in_target_class, verify_backdoor(..., "deletion") and classify mask the
    # rules; only the deletion search and its oracle build the closure
    import aspback.depgraph
    from aspback.cli import main
    programs = _golden_corpus()[:40]
    want = [[in_target_class(p, c) for c in TargetClass] for p in programs]
    xs = [sorted(p.occurring_atoms())[:2] for p in programs]
    ok = [[verify_backdoor(p, x, c, "deletion") for c in TargetClass] for p, x in zip(programs, xs)]
    f = tmp_path / "p.lp"
    f.write_text(render_program(programs[0]))
    assert main(["classify", str(f)]) == 0
    classified = capsys.readouterr().out

    def refuse(*_):
        raise AssertionError("deletion_violation built for a one-off query")
    monkeypatch.setattr(aspback.depgraph, "deletion_violation", refuse)
    assert [[in_target_class(p, c) for c in TargetClass] for p in programs] == want
    assert [[verify_backdoor(p, x, c, "deletion") for c in TargetClass]
            for p, x in zip(programs, xs)] == ok
    assert main(["classify", str(f)]) == 0 and capsys.readouterr().out == classified
    assert any(not all(row) for row in want) and any(any(row) for row in want)


def test_strong_horn_cover_check_matches_reducts():
    # the conflict-graph cover decides what the reduct enumeration decides
    rng = random.Random(2012)
    verdicts = []
    for i, p in enumerate(_golden_corpus()):
        occ = sorted(p.occurring_atoms())
        for _ in range(3):
            x = frozenset(rng.sample(occ, rng.randint(0, len(occ))))
            got = verify_backdoor(p, x, TargetClass.HORN, "strong")
            assert got == reducts_in_class(p, x, TargetClass.HORN), f"program {i}, {sorted(x)}"
            verdicts.append(got)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_strong_horn_check_builds_no_reducts(monkeypatch):
    # only a15 true keeps "c | d." in the reduct; the enumeration would build
    # 2^16 reducts, and refuse a set above the 30-atom guard
    import aspback.detect
    built = []
    monkeypatch.setattr(aspback.detect, "ta_reduct", lambda *a: built.append(a))
    p = parse_program("".join(f"b :- a{i}.\n" for i in range(40)) + "c | d :- a15.\n")
    x = [p.atom_id(f"a{i}") for i in range(16)]
    assert not verify_backdoor(p, x, TargetClass.HORN, "strong")
    assert verify_backdoor(p, x + [p.atom_id("c")], TargetClass.HORN, "strong")
    assert verify_backdoor(p, range(p.n_atoms), TargetClass.HORN, "strong")
    assert built == []


def test_query_validation():
    q = BackdoorQuery(TargetClass.HORN)
    assert q.k is None
    with pytest.raises(ValueError):
        BackdoorQuery(TargetClass.HORN, kind="weak")
    with pytest.raises(ValueError):
        BackdoorQuery(TargetClass.HORN, k=-1)


def test_find_backdoor_worked_example(ex1):
    r = find_backdoor(ex1, BackdoorQuery(TargetClass.HORN))
    assert names_of(ex1, r.witness) == {"r", "s"} and r.optimal
    r2 = find_backdoor(ex1, BackdoorQuery(TargetClass.STRAT, kind="deletion"))
    assert names_of(ex1, r2.witness) == {"w"}


def test_find_backdoor_budget_exceeded(ex1):
    r = find_backdoor(ex1, BackdoorQuery(TargetClass.HORN, k=1))
    assert r.witness is None
    r2 = find_backdoor(ex1, BackdoorQuery(TargetClass.HORN, k=2))
    assert r2.witness is not None and len(r2.witness) == 2


def test_find_backdoor_horn_program_is_empty():
    p = parse_program("a :- b.  b.")
    for kind in ("strong", "deletion"):
        r = find_backdoor(p, BackdoorQuery(TargetClass.HORN, kind=kind))
        assert r.witness == frozenset()


def test_find_backdoor_horn_deletion_taut_program():
    # tautological rules are invisible, so the empty set already works
    p = parse_program("a | b :- c, not c.")
    r = find_backdoor(p, BackdoorQuery(TargetClass.HORN, kind="deletion"))
    assert r.witness == frozenset()
    # with a real violation present, the witness must avoid c: deleting c
    # would wake the tautological rule up as a disjunction
    p2 = parse_program("a | b :- c, not c.  a | b.")
    r2 = find_backdoor(p2, BackdoorQuery(TargetClass.HORN, kind="deletion"))
    assert verify_backdoor(p2, r2.witness, TargetClass.HORN, "deletion")
    assert r2.witness == {p2.atom_id("a")}


def test_find_backdoor_strong_acyclic(ex1):
    r = find_backdoor(ex1, BackdoorQuery(TargetClass.DC_ACYC))
    assert r.witness is not None
    assert verify_backdoor(ex1, r.witness, TargetClass.DC_ACYC, "strong")
    assert len(r.witness) == len(brute_min_backdoor(ex1, TargetClass.DC_ACYC, "strong"))


@pytest.mark.parametrize("kind,target", [
    ("strong", TargetClass.HORN),
    ("deletion", TargetClass.HORN),
    ("deletion", TargetClass.C_ACYC),
    ("deletion", TargetClass.BC_ACYC),
    ("deletion", TargetClass.DC_ACYC),
    ("deletion", TargetClass.DC2_ACYC),
    ("deletion", TargetClass.STRAT),
    ("strong", TargetClass.C_ACYC),
    ("strong", TargetClass.BC_ACYC),
    ("strong", TargetClass.DC_ACYC),
    ("strong", TargetClass.DC2_ACYC),
    ("strong", TargetClass.STRAT),
])
def test_find_backdoor_matches_brute(kind, target):
    for p in corpus(12, seed=411, n_atoms=7, density=2.0):
        got = find_backdoor(p, BackdoorQuery(target, kind=kind)).witness
        want = brute_min_backdoor(p, target, kind)
        assert got == want  # identical witness, not just size


def test_deletion_search_skips_dominated_atoms_exactly():
    # normal programs without tautologies, where the directed searches branch
    # only on cycle atoms that defer to no other: the witness is still the
    # brute-force one, k = |w| finds it and k = |w| - 1 nothing
    targets = (TargetClass.STRAT, TargetClass.DC_ACYC, TargetClass.DC2_ACYC)
    skipped = 0
    for i in range(162):
        p = random_program(GenConfig(5 + i % 6, (1.0, 1.5, 2.0)[i // 6 % 3],
                                     seed=child_seed(2020, i)))
        cp = CompiledProgram(p)
        assert not cp.wake and all(len(r[0]) == 1 for r in p.rule_parts)
        for t in targets:
            v, branch = deletion_violation(cp, t)(0)
            assert branch & ~v == 0 and bool(branch) == bool(v)
            skipped += branch != v
            want = brute_min_backdoor(p, t, "deletion")
            for k in (None, len(want)):
                got = find_backdoor(p, BackdoorQuery(t, "deletion", k)).witness
                assert got == want, f"program {i}, {t}, k={k}"
            if want:
                assert find_backdoor(p, BackdoorQuery(t, "deletion", len(want) - 1)).witness \
                    is None, f"program {i}, {t}"
    assert skipped >= 100


def test_deletion_search_deep_witness_iterative():
    # a witness deeper than the default recursion limit: 1100 disjoint odd
    # loops, each needing its own deletion, one search node per level
    p = parse_program("".join(f"a{i} :- not a{i}.\n" for i in range(1100)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        r = find_backdoor(p, BackdoorQuery(TargetClass.STRAT, kind="deletion"))
    finally:
        sys.setrecursionlimit(old)
    assert r.witness == frozenset(range(1100)) and r.nodes_explored == 1101


def test_vertex_cover_rejects_negative_bound():
    with pytest.raises(ValueError, match="nonnegative"):
        vertex_cover_min(ConflictGraph((0b10, 0b01)), -1)


def test_strong_acyclic_search_set_bound(monkeypatch):
    # five occurring atoms and a size-2 witness: levels 0-1 test 6 sets and
    # level 2 would take up to 10 more, so a bound of 15 refuses before
    # level 2 and 16 lets the search find {a, b} as the 7th set; only the
    # sets bound k, so k = 13 runs as k = None does
    import aspback.detect
    p = parse_program("a :- not a.  b :- not b.  c.  d.  e.")
    q = BackdoorQuery(TargetClass.STRAT, "strong")
    monkeypatch.setattr(aspback.detect, "STRONG_ACYCLIC_SET_GUARD", 15)
    with pytest.raises(ValueError, match="--kind deletion"):
        find_backdoor(p, q)
    assert find_backdoor(p, BackdoorQuery(TargetClass.STRAT, "strong", 1)).witness is None
    monkeypatch.setattr(aspback.detect, "STRONG_ACYCLIC_SET_GUARD", 16)
    for k in (None, 13):
        r = find_backdoor(p, BackdoorQuery(TargetClass.STRAT, "strong", k))
        assert (names_of(p, r.witness), r.nodes_explored) == ({"a", "b"}, 7)


def test_vertex_cover_deep_inputs_iterative():
    # a 2100-atom conflict path and a 2101-atom conflict cycle: the search
    # neither recurses nor explores the many tied covers
    path = "".join(f"a{i} | a{i + 1}.\n" for i in range(2099))
    cycle = "".join(f"a{i} | a{i + 1}.\n" for i in range(2100)) + "a2100 | a0.\n"
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = [find_backdoor(parse_program(text), BackdoorQuery(TargetClass.HORN)).witness
               for text in (path, cycle)]
    finally:
        sys.setrecursionlimit(old)
    assert got[0] == frozenset(range(0, 2100, 2))
    assert got[1] == frozenset({0, *range(1, 2100, 2)})


def _brute_lex_cover(n, edges):
    # combinations come in ascending id order, so the first cover found is
    # the lexicographically smallest of the minimum ones
    for size in range(n + 1):
        for c in combinations(range(n), size):
            if all(a in c or b in c for a, b in edges):
                return frozenset(c)


def test_vertex_cover_matches_brute_lex_min():
    # components whose ids interleave, self-loops, every budget up to the
    # optimum; below it there is no cover
    rng = random.Random(2010)
    several = 0
    for i in range(500):
        n = rng.randint(1, 10)
        ids = rng.sample(range(n), n)
        edges, blocks_with_edges, start = set(), 0, 0
        while start < n:
            size = rng.randint(1, n - start)
            block, start = ids[start:start + size], start + size
            density, before = rng.random(), len(edges)
            for j, a in enumerate(block):
                for b in block[j:]:
                    if rng.random() < (density if a != b else 0.1):
                        edges.add((min(a, b), max(a, b)))
            blocks_with_edges += len(edges) > before
        several += blocks_with_edges >= 2
        g = _graph(n, edges)
        want = _brute_lex_cover(n, edges)
        for k in (None, *range(len(want) + 1)):
            expected = want if k is None or k == len(want) else None
            assert vertex_cover_min(g, k) == expected, f"graph {i}, k={k}"
    assert several >= 100
    # 2-4 connected components over atoms dealt out at random, so that each
    # component's ids interleave with another's
    interleaved = 0
    for i in range(300):
        parts = rng.randint(2, 4)
        n = rng.randint(2 * parts, 12)
        ids = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n // 2), parts - 1))
        blocks = [ids[2 * a:2 * b] for a, b in zip([0] + cuts, cuts + [n // 2])]
        blocks[-1] += ids[n // 2 * 2:]
        edges = set()
        for block in blocks:
            for j in range(1, len(block)):  # a random tree, then more edges
                a, b = block[j], rng.choice(block[:j])
                edges.add((min(a, b), max(a, b)))
            for a, b in combinations(block, 2):
                if rng.random() < 0.3:
                    edges.add((min(a, b), max(a, b)))
        spans = sorted((min(b), max(b)) for b in blocks)
        interleaved += any(lo2 < hi1 for (_, hi1), (lo2, _) in zip(spans, spans[1:]))
        g = _graph(n, edges)
        want = _brute_lex_cover(n, edges)
        for k in (None, *range(len(want) + 1)):
            expected = want if k is None or k == len(want) else None
            assert vertex_cover_min(g, k) == expected, f"components {i}, k={k}"
    assert interleaved >= 250


def _strong_corpus():
    """random_program inputs too large for the brute-force tests, then seeded
    programs whose heads hold up to four atoms and whose rules have negative
    bodies, so that conflict graphs get self-loops and cliques."""
    out = [random_program(GenConfig(40, 1.5, seed=child_seed(1, i))) for i in range(40)]
    rng = random.Random(2010)
    for _ in range(200):
        n = rng.randint(3, 16)
        atoms = [f"a{i}" for i in range(n)]
        b = ProgramBuilder()
        for _ in range(rng.randint(1, 2 * n)):
            head = rng.sample(atoms, rng.randint(0, min(4, n)))
            pos = rng.sample(atoms, rng.choice((0, 0, 1)))
            neg = rng.sample(atoms, rng.randint(0, min(3, n)))
            b.add_rule(head, pos, neg)
        out.append(b.build())
    return out


def _horn_witness(p, k=None):
    w = find_backdoor(p, BackdoorQuery(TargetClass.HORN, k=k)).witness
    return None if w is None else tuple(sorted(w))


def test_strong_horn_witnesses_match_golden_table():
    programs = _strong_corpus()
    graphs = [horn_conflict_graph(p) for p in programs]
    assert sum(any(a == b for a, b in g.edges) for g in graphs) >= 100
    assert sum(any(len(r.head) >= 3 and not r.tautological
                   for r in p.rules) for p in programs) >= 100
    assert len(programs) == len(STRONG_GOLDEN)
    for i, (p, want) in enumerate(zip(programs, STRONG_GOLDEN)):
        assert _horn_witness(p) == want, f"program {i}"
        assert _horn_witness(p, len(want)) == want, f"program {i}"
        if want:
            assert _horn_witness(p, len(want) - 1) is None, f"program {i}"


def _clash_edges(p):
    """The conflict graph by its definition, over p.rules: head pairs, and
    head atom with negative body atom, of the non-tautological rules."""
    edges = set()
    for r in p.rules:
        if not r.tautological:
            edges |= {(a, b) for a in r.head for b in r.head if a < b}
            edges |= {(min(a, b), max(a, b)) for a in r.head for b in r.neg_body}
    return frozenset(edges)


def test_conflict_graph_masks_match_definition():
    rng = random.Random(2017)
    loops, verdicts = 0, []
    for i, p in enumerate(_golden_corpus() + _strong_corpus()):
        g = horn_conflict_graph(p)  # from the id tuples, before p.rules is read
        want = _clash_edges(p)
        assert g.n_atoms == p.n_atoms and g.edges == want, f"program {i}"
        assert horn_conflict_graph(p) == g, f"program {i}"  # from the Rules
        loops += any(a == b for a, b in want)
        for _ in range(3):
            # a list with duplicates, negative ids and ids past the table
            x = [rng.randint(-2, p.n_atoms + 2) for _ in range(rng.randint(0, p.n_atoms + 2))]
            verdicts.append(g.covered_by(x))
            assert verdicts[-1] == all(a in x or b in x for a, b in want), f"program {i}, {x}"
    assert loops >= 200 and verdicts.count(True) >= 200 and verdicts.count(False) >= 200


DELETION_TARGETS = (TargetClass.HORN, TargetClass.C_ACYC, TargetClass.BC_ACYC,
                    TargetClass.DC_ACYC, TargetClass.DC2_ACYC, TargetClass.STRAT)
CYCLE_CLASSES = DELETION_TARGETS[1:]


def _golden_corpus():
    """Seeded programs with what random_program never emits: disjunctive
    heads, constraints, tautologies that deletion wakes up, and rules that
    deletion turns into constraints."""
    rng = random.Random(2011)
    out = []
    for _ in range(200):
        n = rng.randint(2, 10)
        neg_rate = rng.choice((0.1, 0.3, 0.6))
        disj_rate = rng.choice((0.0, 0.1, 0.25))
        atoms = [f"a{i}" for i in range(n)]
        b = ProgramBuilder()
        for _ in range(rng.randint(1, 3 * n)):
            roll = rng.random()
            size = 0 if roll < 0.07 else 1 if roll > disj_rate else rng.choice((2, 3))
            head = rng.sample(atoms, min(n, size))
            body = rng.sample(atoms, rng.randint(0, min(3, n)))
            pos = [a for a in body if rng.random() >= neg_rate]
            neg = [a for a in body if a not in pos]
            roll = rng.random()
            if roll < 0.1:
                t = rng.choice(atoms)
                pos.append(t)
                neg.append(t)
            elif roll < 0.2 and head:
                pos.append(head[0])
            b.add_rule(head, pos, neg)
        out.append(b.build())
    return out


def _golden_row(p):
    found = []
    for t in DELETION_TARGETS:
        r = find_backdoor(p, BackdoorQuery(t, kind="deletion"))
        found.append((tuple(sorted(r.witness)), r.nodes_explored))
    cycles = []
    for c in CYCLE_CLASSES:
        w = witness_cycle(p, c)
        cycles.append(None if w is None else (w.kind[0], w.vertices, w.bad))
    return tuple(found), tuple(cycles)


def test_deletion_search_and_witnesses_match_golden_table():
    programs = _golden_corpus()
    rules = [r for p in programs for r in p.rules]
    assert any(len(r.head) >= 2 for r in rules)
    assert any(not r.head for r in rules)
    assert any(r.pos_body & r.neg_body and r.head for r in rules)
    assert sum(r.tautological for r in rules) >= 100
    assert len(programs) == len(GOLDEN)
    for i, (p, want) in enumerate(zip(programs, GOLDEN)):
        assert _golden_row(p) == want, f"program {i}"
        # classify reads membership off the witness alone
        for c, w in zip(CYCLE_CLASSES, want[1]):
            assert in_target_class(p, c) == (w is None), f"program {i}, {c}"


def test_deletion_violation_matches_rule_masking():
    # 20 deletion masks per program: up to ten that delete an atom of
    # pos & (h | neg) of a tautological rule or all but one atom of a
    # disjunctive head (or nothing), the rest random sets joined to one of
    # them; one closure per program and class, so its one graph serves all,
    # against violation, which masks the rules of cp.core(x)
    rng = random.Random(2018)
    woken = one_left = checked = 0
    for i, p in enumerate(_golden_corpus() + _strong_corpus()):
        cp = CompiledProgram(p)
        closures = {c: deletion_violation(cp, c) for c in CYCLE_CLASSES}
        occ = atoms_of(cp.occurring)
        masks = [0]
        for h, pos, neg in cp.rules:
            if pos & (h | neg):  # tautological: delete a waking atom
                masks.append(1 << rng.choice(atoms_of(pos & (h | neg))))
            elif h & (h - 1):  # disjunctive: keep one head atom
                masks.append(h & ~(1 << rng.choice(atoms_of(h))))
        masks = rng.sample(masks, min(len(masks), 10))
        while len(masks) < 20:
            masks.append(atom_mask(rng.sample(occ, rng.randint(0, len(occ)))) | rng.choice(masks))
        for x in masks:
            woken += any(pos & (h | neg) and h & ~x and not pos & ~x & (h | neg) & ~x
                         for h, pos, neg in cp.rules)
            one_left += any(h & (h - 1) and not pos & (h | neg) and (h & ~x).bit_count() == 1
                            for h, pos, neg in cp.rules)
            for c in CYCLE_CLASSES:
                checked += 1
                assert closures[c](x)[0] == violation(cp, c, x), \
                    f"program {i}, x={atoms_of(x)}, {c}"
    assert woken >= 1000 and one_left >= 2000 and checked == 44000


def test_deletion_search_builds_one_graph(monkeypatch):
    # every node masks the search's one dependency graph: no rule is masked
    # per node and the per-atom masks are ORed once
    import aspback.depgraph
    calls = {"core": 0, "dep_masks": 0}

    def counted(key, fn):
        def wrapper(*a, **kw):
            calls[key] += 1
            return fn(*a, **kw)
        return wrapper
    monkeypatch.setattr(CompiledProgram, "core", counted("core", CompiledProgram.core))
    monkeypatch.setattr(aspback.depgraph, "_dep_masks",
                        counted("dep_masks", aspback.depgraph._dep_masks))
    p = random_program(GenConfig(30, 1.5, seed=1))
    assert not any(tautological(*r) for r in p.rule_parts)
    r = find_backdoor(p, BackdoorQuery(TargetClass.STRAT, "deletion"))
    assert r.nodes_explored >= 50 and calls == {"core": 0, "dep_masks": 1}


def test_bounded_deletion_queries_match_golden_witnesses():
    # k = |w| finds w and k = |w| - 1 nothing; the packing bound must stop
    # where its own deletions could wake a tautological rule, or it prunes
    # k = |w| wrongly (program 97, c-acyc, k = 1)
    for i, (p, want) in enumerate(zip(_golden_corpus(), GOLDEN)):
        for t, (w, _) in zip(DELETION_TARGETS, want[0]):
            def at(k):
                return find_backdoor(p, BackdoorQuery(t, kind="deletion", k=k)).witness
            assert at(len(w)) == frozenset(w), f"program {i}, {t}"
            if w:
                assert at(len(w) - 1) is None, f"program {i}, {t}"


# (witness, nodes_explored) of the deletion search per target in
# DELETION_TARGETS order, then witness_cycle per class in CYCLE_CLASSES order
# as (kind initial, vertices, bad), for each program of _golden_corpus();
# witnesses recorded before the deletion search was compiled into rule masks,
# node counts when it was split into a size pass and a lexicographic pass,
# except the horn counts of programs without tautologies, recorded when those
# queries moved to the vertex-cover search and lowered where the kernel began
# to keep the lower end of an isolated edge (programs 144, 161, 197: 2 -> 1),
# and the c-acyc witnesses (ties among good cycles) and c-acyc node counts of
# programs 83, 86, 138 and 176, recorded when positive cycles moved to the
# shared shortest-cycle search.
GOLDEN = (
    ((((2, 3, 4, 8), 99), ((2, 8), 20), ((2, 8), 20), ((2, 8), 20), ((2, 8), 20),
      ((2, 8), 20)),
     (("u", (8, 21), True), ("u", (8, 21), True), ("d", (8,), True), ("d", (8,), True),
      ("d", (8,), True))),
    ((((0, 4), 9), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 0), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 4), True), ("u", (1, 4), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((2,), 7), ((0, 2), 9), ((2,), 7), ((0, 2), 8), ((2,), 7), ((2,), 7)),
     (("u", (1, 2, 4), True), ("u", (1, 2, 4), True), ("d", (0, 3), False),
      ("d", (1, 2), True), ("d", (1, 2), True))),
    ((((1, 3), 12), ((1, 3), 9), ((1, 3), 9), ((1, 3), 9), ((1, 3), 9), ((1, 3), 9)),
     (("u", (3, 10), True), ("u", (3, 10), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((1,), 4), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 2, 3, 5), 26), ((0, 2, 3, 5), 21), ((0, 2, 3, 5), 18), ((2, 3), 10),
      ((2, 3), 10), ((2, 3), 10)),
     (("u", (3, 11), True), ("u", (3, 11), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 5), 9), ((0, 1, 5), 12), ((0, 1, 5), 9), ((0, 1), 3), ((0, 1), 3),
      ((0, 1), 3)),
     (("u", (0, 8), True), ("u", (0, 8), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((2, 3, 6, 7), 89), ((1, 5, 6), 57), ((1, 2, 6), 43), ((2, 6), 14), ((2,), 5),
      ((2,), 5)),
     (("u", (2, 12, 5), True), ("u", (2, 12, 5), True), ("d", (2, 5), True),
      ("d", (2, 5), True), ("d", (2, 5), True))),
    ((((1, 4, 5), 24), ((1,), 4), ((1,), 4), ((1,), 4), ((1,), 4), ((1,), 4)),
     (("u", (1, 11, 4, 8), True), ("u", (1, 11, 4, 8), True), ("d", (1, 4), True),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((1,), 4), ((0,), 5), ((0,), 5), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 2, 3, 5, 1), True), ("u", (0, 2, 3, 5, 1), True), None, None, None)),
    ((((0,), 0), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 2, 3, 5, 6, 9), 93), ((0, 1, 2, 3, 5, 6), 42), ((0, 1, 2, 3, 5, 6), 42),
      ((0, 2, 3, 5, 6), 39), ((0, 2, 3, 5, 6), 39), ((0, 2, 3, 5, 6), 39)),
     (("u", (0, 10), True), ("u", (0, 10), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((2, 5, 7), 40), ((2, 5, 7), 42), ((2, 5, 7), 42), ((2, 3, 7), 29),
      ((2, 3, 7), 29), ((2, 3, 7), 29)),
     (("u", (7, 18), True), ("u", (7, 18), True), ("d", (7,), True), ("d", (7,), True),
      ("d", (7,), True))),
    ((((2,), 6), ((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4)),
     (("u", (2, 5), True), ("u", (2, 5), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((), 0), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2, 3, 5, 6), 31), ((0, 2, 3, 6), 16), ((0, 2, 3, 6), 16), ((0, 2, 3, 6), 16),
      ((0, 2, 3, 6), 16), ((0, 2, 3, 6), 16)),
     (("u", (2, 10), True), ("u", (2, 10), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((0,), 2), ((0, 1, 3), 9), ((0,), 2), ((0, 4), 7), ((0,), 2), ((0,), 2)),
     (("u", (0, 8), True), ("u", (0, 8), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 0), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 3, 4, 7), 47), ((0, 1, 2, 3, 4), 37), ((0, 1, 4, 8), 27),
      ((0, 1, 2, 4), 17), ((0, 1, 2, 4), 20), ((0, 1, 2, 4), 20)),
     (("u", (0, 3, 7), False), ("u", (1, 17, 4, 10), True), ("d", (0, 7), False),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4)),
     (("u", (2, 7), True), ("u", (2, 7), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2,), 5), ((0, 2), 11), ((2,), 9), ((0,), 3), ((), 1), ((), 1)),
     (("u", (0, 1, 2), False), ("u", (0, 4, 5, 2), True), ("d", (0, 2), False), None,
      None)),
    ((((0, 1, 3), 10), ((0, 1, 2), 10), ((0, 1, 2), 10), ((0, 1), 6), ((0, 1), 6),
      ((0, 1), 6)),
     (("u", (0, 15, 3), True), ("u", (0, 15, 3), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((3, 4), 20), ((3, 4), 25), ((3, 4), 20), ((3, 4), 22), ((3, 4), 20),
      ((3, 4), 20)),
     (("u", (1, 3, 7, 2), True), ("u", (1, 3, 7, 2), True), ("d", (2, 3), True),
      ("d", (2, 3), True), ("d", (2, 3), True))),
    ((((), 0), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2), 7), ((0, 2), 7), ((0, 2), 7), ((0, 2), 7), ((0, 2), 7), ((0, 2), 7)),
     (("u", (0, 6, 2, 4), True), ("u", (0, 6, 2, 4), True), ("d", (0, 2), True),
      ("d", (0, 2), True), ("d", (0, 2), True))),
    ((((3, 4), 20), ((0, 3, 4), 12), ((3, 4), 9), ((3, 4), 9), ((3, 4), 9), ((3, 4), 9)),
     (("u", (4, 10), True), ("u", (4, 10), True), ("d", (4,), True), ("d", (4,), True),
      ("d", (4,), True))),
    ((((2, 3, 5), 9), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5)),
     (("u", (3, 8), True), ("u", (3, 8), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((1, 2, 3, 7), 30), ((0, 2, 6, 7), 33), ((2, 3, 7), 25), ((2, 3, 4, 7), 34),
      ((2, 3, 7), 25), ((2, 3, 7), 25)),
     (("u", (7, 16), True), ("u", (7, 16), True), ("d", (7,), True), ("d", (7,), True),
      ("d", (7,), True))),
    ((((0, 3), 6), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5)),
     (("u", (3, 5), True), ("u", (3, 5), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((0, 1, 3, 4), 17), ((0, 1, 3), 15), ((0, 1, 3), 15), ((0, 1, 3), 15),
      ((0, 1, 3), 15), ((0, 1, 3), 15)),
     (("u", (3, 4, 18), True), ("u", (3, 4, 18), True), ("d", (0, 1), False),
      ("d", (0, 2), True), ("d", (0, 2), True))),
    ((((0, 1), 6), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 2), 6), ((0, 2), 4), ((0, 2), 4), ((0, 2), 4), ((0, 2), 4), ((0, 2), 4)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((1, 2, 3, 6, 7, 8), 99), ((0, 1, 2, 3, 7), 29), ((0, 1, 2, 3, 7), 29),
      ((0, 1, 2, 3, 7), 29), ((0, 1, 2, 3, 7), 29), ((0, 1, 2, 3, 7), 29)),
     (("u", (2, 16), True), ("u", (2, 16), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((0, 4, 5), 25), ((1, 4), 12), ((1, 4), 12), ((1, 4), 11), ((1, 4), 11), ((1, 4), 11)),
     (("u", (4, 11), True), ("u", (4, 11), True), ("d", (4,), True), ("d", (4,), True),
      ("d", (4,), True))),
    ((((0, 3), 8), ((0, 3), 8), ((0, 3), 8), ((0, 3), 8), ((0, 3), 8), ((0, 3), 8)),
     (("u", (3, 10), True), ("u", (3, 10), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((0, 1, 5), 11), ((0, 1, 5), 12), ((0, 1, 5), 12), ((0, 1, 5), 12),
      ((0, 1, 5), 12), ((0, 1, 5), 12)),
     (("u", (0, 6), True), ("u", (0, 6), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((0,), 4), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 2, 4), False), None, None, None, None)),
    ((((0, 2, 6), 17), ((0,), 6), ((0,), 6), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 2, 3, 11, 6, 1, 9), True), ("u", (0, 2, 3, 11, 6, 1, 9), True), None,
      None, None)),
    ((((1, 4), 13), ((1, 4), 9), ((1, 4), 9), ((1, 4), 9), ((1, 4), 9), ((1, 4), 9)),
     (("u", (1, 6), True), ("u", (1, 6), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0, 3, 4, 8), 40), ((0, 1, 3, 4, 6), 45), ((0, 3, 4, 6), 38), ((0, 3, 4, 6), 38),
      ((0, 3, 4, 6), 38), ((0, 3, 4, 6), 38)),
     (("u", (1, 2, 5), False), ("u", (0, 1, 2, 10), True), ("d", (0, 2), True),
      ("d", (0, 2), True), ("d", (0, 2), True))),
    ((((0, 1, 9), 19), ((3, 5), 25), ((0, 1), 7), ((5,), 8), ((), 1), ((), 1)),
     (("u", (0, 3, 5), False), ("u", (1, 3, 4, 10), True), ("d", (5, 7), False), None,
      None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1, 3), 12), ((1, 3), 14), ((1, 3), 14), ((1, 3), 14), ((1, 3), 14),
      ((1, 3), 14)),
     (("u", (3, 14), True), ("u", (3, 14), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((0,), 4), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((6,), 9), ((0, 1, 2), 13), ((6,), 17), ((0, 3), 9), ((3,), 13), ((), 1)),
     (("u", (0, 1, 3), False), ("u", (0, 6, 8, 7), True), ("d", (0, 1), False),
      ("d", (0, 7, 3), False), None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 4), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 0), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1, 4), 7), ((1, 4), 7), ((1, 4), 7), ((1, 4), 7), ((1, 4), 7), ((1, 4), 7)),
     (("u", (1, 7), True), ("u", (1, 7), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2, 4), 18), ((0, 4), 13), ((0, 4), 13), ((0, 4), 12), ((4,), 11), ((4,), 11)),
     (("u", (1, 4, 6), True), ("u", (1, 4, 6), True), ("d", (0, 1), False),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((2, 4, 6), 26), ((2, 4, 6), 13), ((2, 4, 6), 13), ((0, 2, 4, 6), 12),
      ((2, 4, 6), 13), ((2, 4, 6), 13)),
     (("u", (2, 10), True), ("u", (2, 10), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((0, 6, 7), 22), ((3,), 10), ((3,), 10), ((0,), 3), ((), 1), ((), 1)),
     (("u", (0, 3, 8, 10), True), ("u", (0, 3, 8, 10), True), ("d", (0, 3), False),
      None, None)),
    ((((3,), 6), ((1, 3), 11), ((3,), 6), ((3,), 6), ((3,), 6), ((3,), 6)),
     (("u", (3, 9, 4), True), ("u", (3, 9, 4), True), ("d", (3, 4), True),
      ("d", (3, 4), True), ("d", (3, 4), True))),
    ((((0, 1, 4), 10), ((0, 1, 4), 6), ((0, 1, 4), 6), ((0, 1, 4), 6), ((0, 1, 4), 6),
      ((0, 1, 4), 6)),
     (("u", (0, 5), True), ("u", (0, 5), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((1,), 7), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 6, 1), True), ("u", (0, 6, 1), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5)),
     (("u", (3, 5), True), ("u", (3, 5), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 0), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 4), 2), ((1,), 4), ((1,), 4), ((1,), 4), ((1,), 4), ((1,), 4)),
     (("u", (1, 12, 4, 8), True), ("u", (1, 12, 4, 8), True), ("d", (1, 4), True),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((0, 3, 4, 7, 8), 53), ((0, 5, 6, 7), 37), ((0, 5, 6, 7), 37), ((0, 3, 7), 11),
      ((0, 3, 7), 11), ((0, 3, 7), 11)),
     (("u", (0, 10), True), ("u", (0, 10), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((1, 3), 13), ((1, 2), 14), ((1,), 8), ((1, 2), 8), ((1,), 4), ((1,), 4)),
     (("u", (2, 3, 6), False), ("u", (0, 3, 1, 8), True), ("d", (1, 7), True),
      ("d", (1, 7), True), ("d", (1, 7), True))),
    ((((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 5, 6, 8), True), ("u", (0, 5, 6, 8), True), ("d", (0, 6), True),
      ("d", (0, 6), True), ("d", (0, 6), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1,), 4), ((1,), 8), ((1,), 5), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 1, 3), False), ("u", (1, 3, 4, 5), True), None, None, None)),
    ((((0, 6, 7), 15), ((6,), 8), ((6,), 8), ((6,), 8), ((6,), 8), ((6,), 8)),
     (("u", (6, 11), True), ("u", (6, 11), True), ("d", (6,), True), ("d", (6,), True),
      ("d", (6,), True))),
    ((((), 1), ((), 1), ((), 1), ((0,), 3), ((), 1), ((), 1)),
     (None, None, ("d", (0, 1), False), None, None)),
    ((((0,), 3), ((0,), 5), ((0,), 5), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 2, 1, 6), False), ("u", (0, 2, 1, 3, 8), True), None, None, None)),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 2, 3, 5, 8), 54), ((1, 2, 4, 8), 32), ((1, 2, 4, 8), 34), ((1, 2, 8), 20),
      ((1, 2, 8), 20), ((1, 2, 8), 20)),
     (("u", (8, 24), True), ("u", (8, 24), True), ("d", (8,), True), ("d", (8,), True),
      ("d", (8,), True))),
    ((((3,), 6), ((2,), 13), ((), 1), ((2,), 5), ((2,), 9), ((), 1)),
     (("u", (1, 2, 4), False), None, ("d", (2, 4), False), ("d", (1, 4, 2), False),
      None)),
    ((((0,), 3), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 3), 6), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5)),
     (("u", (3, 5), True), ("u", (3, 5), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 0), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 1), True), ("u", (0, 1), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 2), 5), ((0, 2), 8), ((0, 2), 8), ((0, 2), 8), ((0, 2), 8), ((0, 2), 8)),
     (("u", (2, 9), True), ("u", (2, 9), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((1,), 7), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 4), 13), ((0, 4), 9), ((0, 4), 9), ((4,), 6), ((4,), 6), ((4,), 6)),
     (("u", (4, 11), True), ("u", (4, 11), True), ("d", (4,), True), ("d", (4,), True),
      ("d", (4,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 0), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((3,), 12), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 3, 4), False), None, None, None, None)),
    ((((0, 1, 2), 7), ((2, 3), 10), ((2, 3), 10), ((2, 3), 10), ((2, 3), 10), ((2, 3), 10)),
     (("u", (2, 4), True), ("u", (2, 4), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 2), 10), ((0, 1), 5), ((0, 1), 5), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 7), True), ("u", (0, 7), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1, 2, 5), 9), ((1, 2, 5), 14), ((1, 2, 5), 14), ((1, 2, 3), 6), ((1, 2), 4),
      ((1, 2), 4)),
     (("u", (1, 11), True), ("u", (1, 11), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2), 1), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((3,), 6), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2, 5), 19), ((1, 5), 23), ((1, 5), 20), ((3,), 6), ((), 1), ((), 1)),
     (("u", (0, 1, 4), False), ("u", (3, 6, 9, 5), True), ("d", (3, 4), False), None,
      None)),
    ((((0, 1), 5), ((0, 1), 6), ((0, 1), 6), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 5), True), ("u", (0, 5), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((1, 2), 10), ((1, 2), 10), ((1, 2), 10), ((1, 2), 10), ((1, 2), 10), ((1, 2), 10)),
     (("u", (0, 2, 5, 1), True), ("u", (0, 2, 5, 1), True), ("d", (1, 2), True),
      ("d", (1, 2), True), ("d", (1, 2), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 5), True), ("u", (1, 5), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((3, 5), 23), ((0, 1), 8), ((0, 1), 8), ((3,), 6), ((0,), 4), ((0,), 4)),
     (("u", (0, 3, 6, 2), True), ("u", (0, 3, 6, 2), True), ("d", (3, 5), False),
      ("d", (0, 3, 5), True), ("d", (0, 3, 5), True))),
    ((((0,), 3), ((0,), 5), ((0,), 5), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 1, 3, 2, 4), True), ("u", (0, 1, 3, 2, 4), True), None, None, None)),
    ((((0,), 2), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 2), 8), ((0, 1), 4), ((0, 1), 4), ((0, 1), 4), ((0, 1), 4), ((0, 1), 4)),
     (("u", (1, 8), True), ("u", (1, 8), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 3), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2,), 5), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2,), 5), ((0, 2), 11), ((2,), 9), ((0, 2), 6), ((0,), 4), ((0,), 4)),
     (("u", (0, 1, 2), False), ("u", (0, 3, 6, 2), True), ("d", (0, 3), False),
      ("d", (0, 2, 3), True), ("d", (0, 2, 3), True))),
    ((((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((5,), 7), ((5,), 7), ((5,), 7), ((5,), 7), ((5,), 7), ((5,), 7)),
     (("u", (5, 6), True), ("u", (5, 6), True), ("d", (5,), True), ("d", (5,), True),
      ("d", (5,), True))),
    ((((0,), 3), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 6), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2, 4, 5), 20), ((2, 3, 5), 13), ((2, 3, 5), 13), ((2, 5), 9), ((2, 5), 9),
      ((2, 5), 9)),
     (("u", (2, 10), True), ("u", (2, 10), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((3, 4, 5, 7), 62), ((0, 1, 4), 13), ((0, 1, 4), 13), ((0, 4), 9), ((0, 4), 9),
      ((0, 4), 9)),
     (("u", (4, 16), True), ("u", (4, 16), True), ("d", (4,), True), ("d", (4,), True),
      ("d", (4,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2), 7), ((2,), 6), ((2,), 6), ((), 1), ((), 1), ((), 1)),
     (("u", (2, 11, 5, 3, 8), True), ("u", (2, 11, 5, 3, 8), True), None, None, None)),
    ((((), 1), ((0,), 5), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 2, 1, 3), False), None, None, None, None)),
    ((((0,), 3), ((0,), 4), ((0,), 4), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 7, 1, 4, 8), True), ("u", (0, 7, 1, 4, 8), True), None, None, None)),
    ((((0, 1, 3, 4, 5), 34), ((1, 2, 3, 4), 13), ((1, 2, 3, 4), 13), ((1, 3, 4), 8),
      ((1, 3, 4), 8), ((1, 3, 4), 8)),
     (("u", (1, 8), True), ("u", (1, 8), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4)),
     (("u", (2, 3), True), ("u", (2, 3), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((1, 2, 4, 5, 6), 78), ((1, 2, 3, 5, 6), 53), ((1, 2, 3, 5, 6), 53),
      ((1, 2, 3, 5, 6), 53), ((1, 2, 3, 5, 6), 53), ((1, 2, 3, 5, 6), 53)),
     (("u", (1, 4, 13), True), ("u", (1, 4, 13), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((0, 1, 2, 3), 22), ((0, 1, 2, 3), 11), ((0, 1, 2, 3), 11), ((0, 1, 2, 3), 11),
      ((0, 1, 2, 3), 11), ((0, 1, 2, 3), 11)),
     (("u", (0, 7), True), ("u", (0, 7), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0,), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((1,), 5), ((), 1), ((1,), 4), ((), 1), ((), 1)),
     (("u", (1, 2, 3), False), None, ("d", (1, 2), False), None, None)),
    ((((0,), 3), ((0, 2), 7), ((0,), 4), ((1, 2), 6), ((), 1), ((), 1)),
     (("u", (2, 4, 5), False), ("u", (0, 7, 1, 6), True), ("d", (1, 6), False), None,
      None)),
    ((((0, 1), 4), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 3, 4), 22), ((1, 3, 4), 27), ((1, 3, 4), 27), ((1, 3, 4), 27),
      ((1, 3, 4), 27), ((1, 3, 4), 27)),
     (("u", (0, 10, 1, 8), True), ("u", (0, 10, 1, 8), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((2,), 6), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (2, 3, 4), False), None, None, None, None)),
    ((((0,), 0), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1), 5), ((1,), 4), ((1,), 4), ((1,), 4), ((1,), 4), ((1,), 4)),
     (("u", (1, 4, 8), True), ("u", (1, 4, 8), True), ("d", (1, 4), True),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((0, 1), 5), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 5), True), ("u", (1, 5), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((1,), 6), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 6), True), ("u", (1, 6), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0, 1, 3, 4, 5), 30), ((0, 1, 2, 3, 4), 8), ((0, 1, 2, 3, 4), 8),
      ((0, 1, 3, 4), 7), ((0, 1, 3, 4), 7), ((0, 1, 3, 4), 7)),
     (("u", (0, 9), True), ("u", (0, 9), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 2), 7), ((0, 2), 4), ((0, 2), 4), ((0, 2), 4), ((0, 2), 4), ((0, 2), 4)),
     (("u", (0, 5), True), ("u", (0, 5), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 6), ((0, 1), 6), ((0, 1), 6), ((0, 1), 6), ((0, 1), 6), ((0, 1), 6)),
     (("u", (0, 3, 1, 5), True), ("u", (0, 3, 1, 5), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((0, 6), 12), ((0, 5, 6), 27), ((0, 6), 17), ((0, 5), 11), ((0, 5), 10),
      ((0, 5), 10)),
     (("u", (5, 6, 10), True), ("u", (5, 6, 10), True), ("d", (0, 2), False),
      ("d", (5, 6), True), ("d", (5, 6), True))),
    ((((0,), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 5), ((0, 1, 5), 20), ((0, 1), 6), ((0, 1, 5), 12), ((1, 4), 11),
      ((1,), 4)),
     (("u", (1, 3, 11), True), ("u", (1, 3, 11), True), ("d", (0, 4), False),
      ("d", (1, 3), True), ("d", (1, 3), True))),
    ((((0,), 3), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((0,), 4), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 1, 3), False), None, None, None, None)),
    ((((3,), 7), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5)),
     (("u", (3, 6), True), ("u", (3, 6), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 2, 4), 18), ((0, 1, 2, 4), 22), ((0, 1, 2, 4), 22), ((0, 2), 6),
      ((0, 2), 6), ((0, 2), 6)),
     (("u", (0, 5, 10), True), ("u", (0, 5, 10), True), ("d", (0, 5), True),
      ("d", (0, 5), True), ("d", (0, 5), True))),
    ((((0, 1, 3), 10), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 11), True), ("u", (1, 11), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 0), ((0,), 4), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 1, 4), False), None, None, None, None)),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 3, 4), 20), ((0, 1, 3), 7), ((0, 1, 3), 7), ((1, 3), 5), ((1, 3), 5),
      ((1, 3), 5)),
     (("u", (1, 7), True), ("u", (1, 7), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0, 3), 7), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5)),
     (("u", (3, 8), True), ("u", (3, 8), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((4, 9), 23), ((2, 6, 9), 91), ((4, 9), 46), ((0, 2, 3), 12), ((0, 2), 8),
      ((2,), 8)),
     (("u", (0, 1, 6), False), ("u", (2, 4, 10, 6), True), ("d", (2, 3), False),
      ("d", (0, 1, 9), False), ("d", (2, 3, 7, 9, 5), True))),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((2,), 6), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (2, 4, 5), False), None, None, None, None)),
    ((((1, 3), 9), ((0, 2), 8), ((0, 2), 8), ((0,), 3), ((0,), 4), ((), 1)),
     (("u", (0, 2, 4), False), ("u", (0, 2, 3, 5), True), ("d", (0, 4), False),
      ("d", (0, 2, 4), False), None)),
    ((((3,), 6), ((3,), 6), ((3,), 6), ((3,), 6), ((3,), 6), ((3,), 6)),
     (("u", (3, 7, 4, 6), True), ("u", (3, 7, 4, 6), True), ("d", (3, 4), True),
      ("d", (3, 4), True), ("d", (3, 4), True))),
    ((((), 0), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 2), 10), ((1, 3), 13), ((1, 3), 13), ((1,), 4), ((1,), 4), ((1,), 4)),
     (("u", (1, 2, 5), True), ("u", (1, 2, 5), True), ("d", (1, 2), True),
      ("d", (1, 2), True), ("d", (1, 2), True))),
    ((((1,), 4), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2), 6), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 0), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 2, 4, 6), 29), ((0, 1, 2, 4), 12), ((0, 1, 2, 4), 12), ((0, 1, 2), 7),
      ((0, 1, 2), 7), ((0, 1, 2), 7)),
     (("u", (1, 11), True), ("u", (1, 11), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0, 2, 3), 13), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5), ((3,), 5)),
     (("u", (3, 11), True), ("u", (3, 11), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((0,), 4), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 5), True), ("u", (0, 5), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 10, 1), True), ("u", (0, 10, 1), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((0, 1, 2, 5, 6), 43), ((0, 1, 2, 6), 15), ((0, 1, 2, 6), 15), ((0, 5, 6), 16),
      ((0, 5, 6), 14), ((0, 5, 6), 20)),
     (("u", (1, 5, 11), True), ("u", (1, 5, 11), True), ("d", (0, 1), False),
      ("d", (0, 3), True), ("d", (1, 5), True))),
    ((((2, 4, 6), 25), ((2, 4, 6), 29), ((2, 4, 6), 29), ((1, 4, 6), 21),
      ((1, 4, 6), 21), ((1, 4, 6), 21)),
     (("u", (1, 2, 10), True), ("u", (1, 2, 10), True), ("d", (1, 2), True),
      ("d", (1, 2), True), ("d", (1, 2), True))),
    ((((0, 1, 2, 3, 9), 36), ((0, 1, 3, 9), 27), ((0, 1, 3, 9), 27),
      ((0, 1, 3, 4, 9), 42), ((0, 1, 3, 9), 27), ((0, 1, 3, 9), 27)),
     (("u", (0, 1, 2), False), ("u", (0, 1, 4, 10), True), ("d", (0, 4), True),
      ("d", (0, 4), True), ("d", (0, 4), True))),
    ((((0, 2, 3, 5, 6), 40), ((0, 1, 2, 5), 22), ((0, 1, 2, 5), 20), ((1, 2, 7), 17),
      ((1, 2, 7), 17), ((1, 2, 7), 17)),
     (("u", (2, 16), True), ("u", (2, 16), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((0,), 4), ((), 1), ((0,), 3), ((), 1), ((), 1)),
     (("u", (0, 1, 2), False), None, ("d", (0, 1), False), None, None)),
    ((((0,), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2,), 6), ((2,), 6), ((2,), 6), ((2,), 6), ((2,), 6), ((2,), 6)),
     (("u", (2, 8), True), ("u", (2, 8), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((1,), 4), ((0,), 4), ((0,), 4), ((0,), 3), ((), 1), ((), 1)),
     (("u", (0, 4, 1, 2), True), ("u", (0, 4, 1, 2), True), ("d", (0, 3), False), None,
      None)),
)


# the strong Horn witness of each program of _strong_corpus(), recorded
# before the vertex-cover search lost its clique bound, greedy seed and
# forced inclusions; k = |w| gives the same witness and k = |w| - 1 none
STRONG_GOLDEN = (
    (3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16, 17, 18, 20, 24, 25, 29, 33, 35, 38),
    (0, 1, 2, 3, 5, 6, 8, 9, 11, 17, 22, 23, 25, 27, 29, 31, 37, 38),
    (1, 3, 5, 6, 8, 9, 12, 13, 15, 17, 18, 21, 24, 27, 33, 35, 37),
    (0, 1, 2, 3, 4, 7, 10, 11, 13, 14, 15, 16, 20, 22, 27, 31, 32, 33, 36),
    (1, 2, 3, 4, 5, 7, 8, 11, 12, 14, 15, 16, 18, 21, 22, 23, 32, 33, 36),
    (1, 2, 3, 4, 6, 11, 18, 20, 23, 28, 30, 31, 32, 33, 34, 36, 38),
    (0, 1, 4, 6, 7, 8, 9, 10, 13, 15, 16, 17, 18, 20, 23, 25, 27, 31, 32, 36, 37),
    (2, 3, 7, 9, 15, 22, 23, 24, 26, 27, 29, 31, 32, 33, 34, 36),
    (1, 2, 4, 5, 6, 8, 12, 15, 21, 22, 23, 26, 27, 32, 34, 36, 38, 39),
    (0, 1, 3, 4, 5, 8, 9, 11, 18, 19, 23, 30, 31, 36, 37, 39),
    (0, 1, 3, 4, 5, 8, 12, 15, 16, 21, 24, 27, 29, 33, 34, 35, 36, 37, 39),
    (1, 5, 8, 9, 10, 14, 17, 21, 26, 27, 28, 29, 30, 36, 39),
    (0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 18, 19, 21, 27, 30, 31, 32, 36, 37),
    (0, 2, 3, 4, 5, 8, 11, 15, 19, 20, 23, 24, 26, 28, 30, 33, 34, 38),
    (0, 1, 3, 6, 9, 10, 11, 14, 15, 16, 17, 18, 19, 21, 24, 26, 34, 35, 37, 39),
    (2, 4, 5, 7, 10, 11, 12, 16, 18, 21, 22, 23, 24, 25, 26, 27, 33, 36, 38),
    (2, 3, 4, 5, 6, 7, 8, 13, 14, 16, 18, 20, 22, 23, 27, 30, 32, 39),
    (0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 16, 18, 21, 22, 28, 35, 38),
    (0, 1, 3, 4, 6, 8, 10, 13, 14, 16, 17, 19, 23, 28, 31, 32),
    (2, 4, 5, 7, 8, 11, 22, 25, 26, 27, 29, 32, 33, 37, 39),
    (0, 2, 3, 4, 5, 6, 7, 9, 10, 11, 16, 18, 19, 24, 29, 36, 39),
    (0, 1, 2, 5, 6, 16, 18, 19, 23, 25, 28, 29, 30, 35, 36, 37, 38, 39),
    (2, 3, 4, 5, 9, 11, 12, 13, 16, 24, 25, 26, 28, 30, 33, 36),
    (0, 4, 5, 7, 8, 9, 13, 17, 18, 19, 20, 24, 25, 26, 30, 34, 38, 39),
    (0, 1, 4, 6, 10, 11, 12, 17, 18, 19, 21, 24, 27, 30, 32, 33, 34, 36, 37),
    (0, 3, 7, 10, 11, 13, 14, 15, 16, 22, 25, 27, 28, 30, 32, 33, 35, 36, 37, 38),
    (0, 2, 3, 11, 14, 15, 19, 21, 24, 25, 27, 29, 30, 31, 32, 36, 39),
    (0, 1, 3, 6, 7, 8, 9, 10, 12, 13, 18, 19, 22, 25, 29, 31, 33, 34, 36),
    (0, 1, 3, 4, 10, 15, 16, 18, 21, 22, 23, 24, 25, 28, 33, 34, 35, 36),
    (0, 2, 3, 4, 5, 7, 9, 15, 17, 18, 19, 20, 23, 25, 28, 29, 33, 39),
    (1, 4, 5, 6, 7, 8, 13, 14, 15, 16, 20, 22, 25, 26, 28, 30, 33, 34, 36, 39),
    (4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 22, 29, 35, 39),
    (1, 2, 5, 6, 7, 10, 11, 13, 14, 16, 17, 22, 28, 29, 34, 37, 38),
    (0, 1, 2, 3, 4, 5, 6, 9, 10, 13, 14, 15, 16, 17, 18, 25, 27, 28, 29, 31),
    (6, 7, 9, 11, 12, 14, 18, 19, 23, 24, 25, 27, 28, 30, 32, 33, 36, 37),
    (0, 2, 3, 4, 8, 9, 11, 16, 17, 18, 22, 24, 29, 31, 34, 36, 37),
    (1, 2, 3, 5, 6, 9, 10, 11, 12, 15, 16, 18, 19, 23, 24, 25, 26, 27, 34),
    (0, 1, 2, 4, 5, 8, 9, 11, 13, 14, 16, 17, 23, 24, 25, 27, 34, 39),
    (0, 1, 3, 8, 9, 10, 11, 12, 14, 15, 17, 20, 23, 25, 27, 28, 31, 32),
    (2, 3, 6, 7, 10, 11, 12, 13, 14, 16, 17, 23, 24, 25, 26, 28, 29, 33, 39),
    (0, 1, 2, 3), (0, 1, 2, 3), (0, 2), (0, 1, 2, 4), (0, 1, 2, 4, 5),
    (0, 2, 3, 4, 6, 7), (0, 2, 3, 4, 5, 6, 7, 8, 11, 13, 14), (0, 1), (0, 1, 2, 4, 5),
    (0, 1, 2, 3, 4), (0, 1, 2, 4, 6), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4),
    (0, 2, 3, 4, 5, 6, 7, 9), (0, 1, 2), (0, 1, 2, 3, 4),
    (0, 1, 2, 4, 6, 7, 8, 9, 10, 11), (0, 1, 3, 4, 5, 9, 10, 11), (0, 1, 2, 3, 4, 5),
    (0, 4), (0, 1), (0, 1, 2, 3, 6), (0, 1, 3, 4, 5, 6, 7, 12), (1, 2),
    (0, 2, 3, 4, 6, 7, 9, 10, 12), (1, 2, 3, 4, 5, 6, 7, 9), (1, 2, 3, 4, 9),
    (0, 2, 3, 4, 5, 7), (0, 2, 3, 5), (0, 1, 2, 3, 4, 5, 6, 8, 10), (0, 2, 4, 5, 6),
    (0,), (0, 1, 2, 4, 5), (0, 1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 15),
    (0, 2, 4, 5, 6, 7, 8, 10, 14), (0, 1, 2), (1, 4, 5, 6, 7),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12), (0, 1, 2), (), (0, 1, 2, 3, 4, 5, 6, 9, 13),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 10), (0, 1, 2, 4, 5), (1, 2, 3, 4, 6),
    (0, 2, 3, 4, 5, 7, 8, 9, 10, 12), (0, 1, 4, 5, 6, 8), (0, 1),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14), (0, 1, 2, 3, 4, 5, 8),
    (0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12), (0, 1, 2, 3, 7, 8, 9, 10, 11),
    (0, 1, 2, 4, 5, 6, 7, 9), (0, 1, 2, 4, 5, 6, 7), (0, 1, 3, 4, 5, 7, 8),
    (0, 1, 4, 5, 6, 7, 9, 10, 12), (0, 1, 2, 3), (0, 1), (0, 1), (1, 3, 5),
    (0, 1, 2, 3, 5, 7, 8, 9, 11, 12), (0, 1, 2, 3, 5, 6), (0, 1), (0, 2, 3), (),
    (0, 2, 3, 7), (0, 1, 2), (0, 2), (1, 2, 3, 4, 5, 7), (0, 1, 2, 3), (0, 1, 2, 3),
    (0, 1, 2, 3, 4, 8, 9, 10, 11, 12), (1, 2, 3, 4, 7, 8, 9, 10, 11, 13),
    (0, 1, 2, 5, 6, 7, 10, 12, 13), (0, 1, 2, 3, 6, 7, 9, 10, 11), (0, 1, 2, 5),
    (0, 1, 2), (0, 3, 4, 5, 6, 7, 8, 9), (0, 1, 2, 3, 4, 5, 6), (0, 2, 4, 5, 8, 9, 10),
    (0, 1, 2, 3, 5), (0, 1, 2, 3, 5), (2, 3, 4, 5, 7),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11), (0, 1, 2, 3, 4, 5, 7, 10), (0, 1),
    (0, 1, 3, 4, 5, 6, 7, 12), (0, 1, 3), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 6, 7, 8, 10),
    (1, 2, 3), (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14), (1, 2, 4),
    (0, 1, 2, 3, 4, 8, 10), (0, 1, 3), (0, 1, 2), (0, 1, 2, 5),
    (0, 2, 3, 5, 6, 8, 9, 11, 12, 14), (0, 1, 2), (0, 1, 3, 4, 6),
    (0, 1, 3, 4, 5, 6, 7, 8, 9, 13), (0, 2, 3, 4, 5), (0, 2), (0, 1, 2), (0, 2, 3, 4),
    (), (0, 1, 4, 5), (1, 5), (0,), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3), (),
    (0, 1, 2, 7, 8, 9), (0, 3), (0, 1, 2, 3, 4, 6, 7, 8, 10), (1, 2, 4, 5, 6, 8, 9),
    (0, 1, 2, 5, 6, 8, 10, 11), (0, 1, 3, 5, 6, 9), (0, 1, 2), (0, 2, 4, 7),
    (0, 1, 2, 3), (0, 1, 2), (0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 15),
    (0, 1, 2, 3, 5, 6, 7, 8, 9, 10), (0, 1, 2, 3, 5, 6, 8, 10, 11, 12, 13),
    (0, 1, 3, 8, 10), (0, 1, 2, 5, 6, 7, 8, 9), (1, 3, 4), (0, 2), (0, 1, 2, 3),
    (0, 2, 3), (1, 2, 3, 5, 6, 8), (0, 1, 2, 3, 5, 6, 8, 10), (2, 3, 4, 5, 7, 8), (),
    (0, 1, 2, 3, 4, 5, 6, 7, 10, 12, 14), (0, 1, 2), (0, 1, 2, 3, 4, 5, 7, 9),
    (0, 2, 3, 4, 5), (0, 2, 3, 4, 6), (0, 1, 2, 3, 4, 5, 7, 8, 10),
    (0, 1, 2, 3, 4, 6, 7, 8, 9), (0, 2, 3, 4, 5, 8, 9, 11, 13), (0, 1, 2, 4, 5, 8, 9),
    (0, 1), (0, 1, 2, 3, 5, 6, 7, 8, 10, 12), (0, 2), (0, 2, 3, 4, 8), (0, 2, 3),
    (0, 1, 3, 4, 7, 8, 9, 10), (0, 2, 3, 4, 5, 6, 8, 9, 10),
    (0, 1, 2, 3, 4, 5, 7, 8, 9, 10), (2,), (0, 1, 3, 5, 6),
    (0, 1, 3, 4, 5, 7, 8, 9, 10, 11, 12, 14), (0, 1, 2, 3, 5, 6), (0, 1, 2, 3, 5, 7, 8),
    (0, 1, 2), (0, 1, 2), (0, 2, 3, 4, 6), (3,), (0, 1, 2, 4),
    (0, 1, 2, 3, 5, 7, 8, 9, 11), (0, 1, 2), (0, 1, 2, 3, 8, 9), (0, 1, 2),
    (0, 2, 3, 4, 5, 6, 9), (0, 2), (0, 1, 4, 5, 6, 7, 8, 10, 11, 12), (0, 1, 2, 3, 5),
    (0, 1, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15), (0, 2, 3), (0, 1, 2, 5, 6, 7, 8),
    (0, 1, 3), (0, 1, 3), (0, 1, 3, 4, 5, 6, 9), (0, 2, 5, 6, 7, 10), (0, 1, 3, 4, 5),
    (0, 1, 2, 5, 6, 9), (0, 1, 2, 3, 4, 5), (1, 2, 4, 6), (0, 1, 3, 4, 6, 12),
    (0, 1, 2, 3), (0, 1, 3, 4), (1, 3, 4, 5, 6, 7), (0, 1, 2, 3, 5), (0, 1, 3, 4, 5, 6),
    (0, 4, 5, 6, 7, 9), (0, 2, 3), (0, 1, 3, 4, 5, 6), (2, 3, 4, 7, 8, 9, 10, 12),
    (0, 1, 2, 5, 6), (0, 1, 2, 3, 5, 6, 7), (2,), (0, 1), (0, 1, 2, 3, 5, 6, 7, 8, 10),
    (0, 1), (0, 1, 2, 4), (0, 1, 2, 3, 4, 5, 10, 11, 12), (0, 1, 2, 4, 6, 7, 8, 9),
)
