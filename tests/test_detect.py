import random
import sys

import pytest

from aspback import (BackdoorQuery, ConflictGraph, ProgramBuilder, TargetClass,
                     brute_min_backdoor, find_backdoor, horn_conflict_graph,
                     in_target_class, parse_program, rule_flags,
                     vertex_cover_min, verify_backdoor, witness_cycle)
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


def test_covered_by():
    g = ConflictGraph(3, frozenset({(0, 1), (1, 2)}))
    assert g.covered_by({1})
    assert not g.covered_by({0})
    assert g.covered_by({0, 2})


def test_vc_triangle():
    g = ConflictGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    c = vertex_cover_min(g)
    assert len(c) == 2 and c == frozenset({0, 1})  # lex-least pair


def test_vc_star_center():
    g = ConflictGraph(5, frozenset({(0, k) for k in range(1, 5)}))
    assert vertex_cover_min(g) == frozenset({0})


def test_vc_path_lex():
    # P4 has minimum covers {0,2}, {1,2}, {1,3}; ties break lexicographically
    g = ConflictGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert vertex_cover_min(g) == frozenset({0, 2})


def test_vc_self_loop_forced():
    g = ConflictGraph(3, frozenset({(1, 1), (0, 2)}))
    c = vertex_cover_min(g)
    assert 1 in c and len(c) == 2


def test_vc_components_union():
    edges = {(0, 1), (2, 3), (4, 5), (4, 6), (5, 6)}
    g = ConflictGraph(7, frozenset(edges))
    c = vertex_cover_min(g)
    assert len(c) == 4 and g.covered_by(c)


def test_vc_budget_none():
    g = ConflictGraph(6, frozenset({(0, 1), (2, 3), (4, 5)}))
    assert vertex_cover_min(g, k=2) is None
    assert vertex_cover_min(g, k=3) == frozenset({0, 2, 4})


def test_vc_empty_graph():
    assert vertex_cover_min(ConflictGraph(4, frozenset())) == frozenset()


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
    ("deletion", TargetClass.STRAT),
    ("strong", TargetClass.DC2_ACYC),
])
def test_find_backdoor_matches_brute(kind, target):
    for p in corpus(12, seed=411, n_atoms=7, density=2.0):
        got = find_backdoor(p, BackdoorQuery(target, kind=kind)).witness
        want = brute_min_backdoor(p, target, kind)
        assert got == want  # identical witness, not just size


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
    assert sum(rule_flags(r).tautological for r in rules) >= 100
    assert len(programs) == len(GOLDEN)
    for i, (p, want) in enumerate(zip(programs, GOLDEN)):
        assert _golden_row(p) == want, f"program {i}"
        # classify reads membership off the witness alone
        for c, w in zip(CYCLE_CLASSES, want[1]):
            assert in_target_class(p, c) == (w is None), f"program {i}, {c}"


# (witness, nodes_explored) of the deletion search per target in
# DELETION_TARGETS order, then witness_cycle per class in CYCLE_CLASSES order
# as (kind initial, vertices, bad), for each program of _golden_corpus();
# recorded before the deletion search was compiled into rule masks.
GOLDEN = (
    ((((2, 3, 4, 8), 82), ((2, 8), 8), ((2, 8), 8), ((2, 8), 8), ((2, 8), 8),
      ((2, 8), 8)),
     (("u", (8, 21), True), ("u", (8, 21), True), ("d", (8,), True), ("d", (8,), True),
      ("d", (8,), True))),
    ((((0, 4), 6), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2)),
     (("u", (1, 4), True), ("u", (1, 4), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((2,), 5), ((0, 2), 7), ((2,), 5), ((0, 2), 9), ((2,), 5), ((2,), 5)),
     (("u", (1, 2, 4), True), ("u", (1, 2, 4), True), ("d", (0, 3), False),
      ("d", (1, 2), True), ("d", (1, 2), True))),
    ((((1, 3), 8), ((1, 3), 8), ((1, 3), 8), ((1, 3), 8), ((1, 3), 8), ((1, 3), 8)),
     (("u", (3, 10), True), ("u", (3, 10), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((1,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 2, 3, 5), 24), ((0, 2, 3, 5), 20), ((0, 2, 3, 5), 18), ((2, 3), 4),
      ((2, 3), 4), ((2, 3), 4)),
     (("u", (3, 11), True), ("u", (3, 11), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 5), 8), ((0, 1, 5), 9), ((0, 1, 5), 6), ((0, 1), 3), ((0, 1), 3),
      ((0, 1), 3)),
     (("u", (0, 8), True), ("u", (0, 8), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((2, 3, 6, 7), 71), ((1, 5, 6), 74), ((1, 2, 6), 50), ((2, 6), 7), ((2,), 3),
      ((2,), 3)),
     (("u", (2, 12, 5), True), ("u", (2, 12, 5), True), ("d", (2, 5), True),
      ("d", (2, 5), True), ("d", (2, 5), True))),
    ((((1, 4, 5), 16), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 11, 4, 8), True), ("u", (1, 11, 4, 8), True), ("d", (1, 4), True),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((1,), 3), ((0,), 5), ((0,), 5), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 2, 3, 5, 1), True), ("u", (0, 2, 3, 5, 1), True), None, None, None)),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 2, 3, 5, 6, 9), 95), ((0, 1, 2, 3, 5, 6), 44), ((0, 1, 2, 3, 5, 6), 44),
      ((0, 2, 3, 5, 6), 28), ((0, 2, 3, 5, 6), 28), ((0, 2, 3, 5, 6), 28)),
     (("u", (0, 10), True), ("u", (0, 10), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((2, 5, 7), 21), ((2, 5, 7), 26), ((2, 5, 7), 26), ((2, 3, 7), 15),
      ((2, 3, 7), 15), ((2, 3, 7), 15)),
     (("u", (7, 18), True), ("u", (7, 18), True), ("d", (7,), True), ("d", (7,), True),
      ("d", (7,), True))),
    ((((2,), 4), ((2,), 2), ((2,), 2), ((2,), 2), ((2,), 2), ((2,), 2)),
     (("u", (2, 5), True), ("u", (2, 5), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2, 3, 5, 6), 17), ((0, 2, 3, 6), 7), ((0, 2, 3, 6), 7), ((0, 2, 3, 6), 7),
      ((0, 2, 3, 6), 7), ((0, 2, 3, 6), 7)),
     (("u", (2, 10), True), ("u", (2, 10), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((0,), 2), ((0, 1, 3), 11), ((0,), 2), ((0, 4), 4), ((0,), 2), ((0,), 2)),
     (("u", (0, 8), True), ("u", (0, 8), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 3, 4, 7), 63), ((0, 1, 2, 3, 4), 64), ((0, 1, 4, 8), 39),
      ((0, 1, 2, 4), 25), ((0, 1, 2, 4), 34), ((0, 1, 2, 4), 37)),
     (("u", (0, 3, 7), False), ("u", (1, 17, 4, 10), True), ("d", (0, 7), False),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((2,), 2), ((2,), 2), ((2,), 2), ((2,), 2), ((2,), 2), ((2,), 2)),
     (("u", (2, 7), True), ("u", (2, 7), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2,), 3), ((0, 2), 13), ((2,), 7), ((0,), 3), ((), 1), ((), 1)),
     (("u", (0, 1, 2), False), ("u", (0, 4, 5, 2), True), ("d", (0, 2), False), None,
      None)),
    ((((0, 1, 3), 12), ((0, 1, 2), 12), ((0, 1, 2), 12), ((0, 1), 7), ((0, 1), 7),
      ((0, 1), 7)),
     (("u", (0, 15, 3), True), ("u", (0, 15, 3), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((3, 4), 11), ((3, 4), 16), ((3, 4), 11), ((3, 4), 13), ((3, 4), 11),
      ((3, 4), 11)),
     (("u", (1, 3, 7, 2), True), ("u", (1, 3, 7, 2), True), ("d", (2, 3), True),
      ("d", (2, 3), True), ("d", (2, 3), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2), 7), ((0, 2), 7), ((0, 2), 7), ((0, 2), 7), ((0, 2), 7), ((0, 2), 7)),
     (("u", (0, 6, 2, 4), True), ("u", (0, 6, 2, 4), True), ("d", (0, 2), True),
      ("d", (0, 2), True), ("d", (0, 2), True))),
    ((((3, 4), 11), ((0, 3, 4), 9), ((3, 4), 6), ((3, 4), 6), ((3, 4), 6), ((3, 4), 6)),
     (("u", (4, 10), True), ("u", (4, 10), True), ("d", (4,), True), ("d", (4,), True),
      ("d", (4,), True))),
    ((((2, 3, 5), 9), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2)),
     (("u", (3, 8), True), ("u", (3, 8), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((1, 2, 3, 7), 18), ((0, 2, 6, 7), 22), ((2, 3, 7), 9), ((2, 3, 4, 7), 16),
      ((2, 3, 7), 10), ((2, 3, 7), 10)),
     (("u", (7, 16), True), ("u", (7, 16), True), ("d", (7,), True), ("d", (7,), True),
      ("d", (7,), True))),
    ((((0, 3), 5), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2)),
     (("u", (3, 5), True), ("u", (3, 5), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((0, 1, 3, 4), 20), ((0, 1, 3), 17), ((0, 1, 3), 17), ((0, 1, 3), 17),
      ((0, 1, 3), 17), ((0, 1, 3), 17)),
     (("u", (3, 4, 18), True), ("u", (3, 4, 18), True), ("d", (0, 1), False),
      ("d", (0, 2), True), ("d", (0, 2), True))),
    ((((0, 1), 7), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 2), 5), ((0, 2), 3), ((0, 2), 3), ((0, 2), 3), ((0, 2), 3), ((0, 2), 3)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((1, 2, 3, 6, 7, 8), 58), ((0, 1, 2, 3, 7), 26), ((0, 1, 2, 3, 7), 26),
      ((0, 1, 2, 3, 7), 26), ((0, 1, 2, 3, 7), 26), ((0, 1, 2, 3, 7), 26)),
     (("u", (2, 16), True), ("u", (2, 16), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((0, 4, 5), 15), ((1, 4), 8), ((1, 4), 8), ((1, 4), 7), ((1, 4), 7), ((1, 4), 7)),
     (("u", (4, 11), True), ("u", (4, 11), True), ("d", (4,), True), ("d", (4,), True),
      ("d", (4,), True))),
    ((((0, 3), 7), ((0, 3), 7), ((0, 3), 7), ((0, 3), 7), ((0, 3), 7), ((0, 3), 7)),
     (("u", (3, 10), True), ("u", (3, 10), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((0, 1, 5), 8), ((0, 1, 5), 11), ((0, 1, 5), 11), ((0, 1, 5), 11),
      ((0, 1, 5), 11), ((0, 1, 5), 11)),
     (("u", (0, 6), True), ("u", (0, 6), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((0,), 4), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 2, 4), False), None, None, None, None)),
    ((((0, 2, 6), 17), ((0,), 6), ((0,), 6), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 2, 3, 11, 6, 1, 9), True), ("u", (0, 2, 3, 11, 6, 1, 9), True), None,
      None, None)),
    ((((1, 4), 8), ((1, 4), 6), ((1, 4), 6), ((1, 4), 6), ((1, 4), 6), ((1, 4), 6)),
     (("u", (1, 6), True), ("u", (1, 6), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0, 3, 4, 8), 28), ((0, 1, 3, 4, 6), 53), ((0, 3, 4, 6), 32), ((0, 3, 4, 6), 32),
      ((0, 3, 4, 6), 32), ((0, 3, 4, 6), 32)),
     (("u", (1, 2, 5), False), ("u", (0, 1, 2, 10), True), ("d", (0, 2), True),
      ("d", (0, 2), True), ("d", (0, 2), True))),
    ((((0, 1, 9), 22), ((3, 5), 20), ((0, 1), 13), ((5,), 3), ((), 1), ((), 1)),
     (("u", (0, 3, 5), False), ("u", (1, 3, 4, 10), True), ("d", (5, 7), False), None,
      None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1, 3), 9), ((1, 3), 11), ((1, 3), 11), ((1, 3), 11), ((1, 3), 11),
      ((1, 3), 11)),
     (("u", (3, 14), True), ("u", (3, 14), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((0,), 4), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((6,), 3), ((0, 1, 2), 23), ((6,), 11), ((0, 3), 9), ((3,), 10), ((), 1)),
     (("u", (0, 1, 3), False), ("u", (0, 6, 8, 7), True), ("d", (0, 1), False),
      ("d", (0, 7, 3), False), None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 4), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1, 4), 4), ((1, 4), 3), ((1, 4), 3), ((1, 4), 3), ((1, 4), 3), ((1, 4), 3)),
     (("u", (1, 7), True), ("u", (1, 7), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2, 4), 13), ((0, 4), 10), ((0, 4), 10), ((0, 4), 11), ((4,), 7), ((4,), 7)),
     (("u", (1, 4, 6), True), ("u", (1, 4, 6), True), ("d", (0, 1), False),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((2, 4, 6), 14), ((2, 4, 6), 4), ((2, 4, 6), 4), ((0, 2, 4, 6), 6),
      ((2, 4, 6), 4), ((2, 4, 6), 4)),
     (("u", (2, 10), True), ("u", (2, 10), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((0, 6, 7), 23), ((3,), 7), ((3,), 7), ((0,), 3), ((), 1), ((), 1)),
     (("u", (0, 3, 8, 10), True), ("u", (0, 3, 8, 10), True), ("d", (0, 3), False),
      None, None)),
    ((((3,), 3), ((1, 3), 9), ((3,), 3), ((3,), 3), ((3,), 3), ((3,), 3)),
     (("u", (3, 9, 4), True), ("u", (3, 9, 4), True), ("d", (3, 4), True),
      ("d", (3, 4), True), ("d", (3, 4), True))),
    ((((0, 1, 4), 7), ((0, 1, 4), 4), ((0, 1, 4), 4), ((0, 1, 4), 4), ((0, 1, 4), 4),
      ((0, 1, 4), 4)),
     (("u", (0, 5), True), ("u", (0, 5), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((1,), 6), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 6, 1), True), ("u", (0, 6, 1), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2)),
     (("u", (3, 5), True), ("u", (3, 5), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 4), 20), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 12, 4, 8), True), ("u", (1, 12, 4, 8), True), ("d", (1, 4), True),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((0, 3, 4, 7, 8), 32), ((0, 5, 6, 7), 29), ((0, 5, 6, 7), 29), ((0, 3, 7), 6),
      ((0, 3, 7), 6), ((0, 3, 7), 6)),
     (("u", (0, 10), True), ("u", (0, 10), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((1, 3), 11), ((1, 2), 16), ((1,), 7), ((1, 2), 7), ((1,), 3), ((1,), 3)),
     (("u", (2, 3, 6), False), ("u", (0, 3, 1, 8), True), ("d", (1, 7), True),
      ("d", (1, 7), True), ("d", (1, 7), True))),
    ((((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 5, 6, 8), True), ("u", (0, 5, 6, 8), True), ("d", (0, 6), True),
      ("d", (0, 6), True), ("d", (0, 6), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1,), 3), ((1,), 7), ((1,), 4), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 1, 3), False), ("u", (1, 3, 4, 5), True), None, None, None)),
    ((((0, 6, 7), 14), ((6,), 2), ((6,), 2), ((6,), 2), ((6,), 2), ((6,), 2)),
     (("u", (6, 11), True), ("u", (6, 11), True), ("d", (6,), True), ("d", (6,), True),
      ("d", (6,), True))),
    ((((), 1), ((), 1), ((), 1), ((0,), 3), ((), 1), ((), 1)),
     (None, None, ("d", (0, 1), False), None, None)),
    ((((0,), 3), ((0,), 5), ((0,), 5), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 6, 1, 2), False), ("u", (0, 2, 1, 3, 8), True), None, None, None)),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 2, 3, 5, 8), 65), ((1, 2, 4, 8), 20), ((1, 2, 4, 8), 21), ((1, 2, 8), 9),
      ((1, 2, 8), 9), ((1, 2, 8), 9)),
     (("u", (8, 24), True), ("u", (8, 24), True), ("d", (8,), True), ("d", (8,), True),
      ("d", (8,), True))),
    ((((3,), 3), ((2,), 4), ((), 1), ((2,), 3), ((2,), 7), ((), 1)),
     (("u", (2, 4, 5), False), None, ("d", (2, 4), False), ("d", (1, 4, 2), False),
      None)),
    ((((0,), 3), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 3), 5), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2)),
     (("u", (3, 5), True), ("u", (3, 5), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 1), True), ("u", (0, 1), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 2), 4), ((0, 2), 8), ((0, 2), 8), ((0, 2), 8), ((0, 2), 8), ((0, 2), 8)),
     (("u", (2, 9), True), ("u", (2, 9), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((1,), 6), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 4), 17), ((0, 4), 6), ((0, 4), 6), ((4,), 2), ((4,), 2), ((4,), 2)),
     (("u", (4, 11), True), ("u", (4, 11), True), ("d", (4,), True), ("d", (4,), True),
      ("d", (4,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((3,), 9), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 3, 4), False), None, None, None, None)),
    ((((0, 1, 2), 8), ((2, 3), 6), ((2, 3), 6), ((2, 3), 6), ((2, 3), 6), ((2, 3), 6)),
     (("u", (2, 4), True), ("u", (2, 4), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 2), 11), ((0, 1), 5), ((0, 1), 5), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 7), True), ("u", (0, 7), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1, 2, 5), 6), ((1, 2, 5), 11), ((1, 2, 5), 11), ((1, 2, 3), 5), ((1, 2), 3),
      ((1, 2), 3)),
     (("u", (1, 11), True), ("u", (1, 11), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2), 8), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((3,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2, 5), 11), ((1, 5), 29), ((1, 5), 16), ((3,), 3), ((), 1), ((), 1)),
     (("u", (0, 1, 4), False), ("u", (3, 6, 9, 5), True), ("d", (3, 4), False), None,
      None)),
    ((((0, 1), 5), ((0, 1), 6), ((0, 1), 6), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 5), True), ("u", (0, 5), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((1, 2), 7), ((1, 2), 7), ((1, 2), 7), ((1, 2), 7), ((1, 2), 7), ((1, 2), 7)),
     (("u", (0, 2, 5, 1), True), ("u", (0, 2, 5, 1), True), ("d", (1, 2), True),
      ("d", (1, 2), True), ("d", (1, 2), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2)),
     (("u", (1, 5), True), ("u", (1, 5), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 3), True), ("u", (0, 3), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((3, 5), 20), ((0, 1), 12), ((0, 1), 12), ((3,), 3), ((0,), 4), ((0,), 4)),
     (("u", (0, 3, 6, 2), True), ("u", (0, 3, 6, 2), True), ("d", (3, 5), False),
      ("d", (0, 3, 5), True), ("d", (0, 3, 5), True))),
    ((((0,), 3), ((0,), 5), ((0,), 5), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 1, 3, 2, 4), True), ("u", (0, 1, 3, 2, 4), True), None, None, None)),
    ((((0,), 2), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 2), 10), ((0, 1), 4), ((0, 1), 4), ((0, 1), 4), ((0, 1), 4), ((0, 1), 4)),
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
    ((((2,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2,), 3), ((0, 2), 14), ((2,), 7), ((0, 2), 7), ((0,), 4), ((0,), 4)),
     (("u", (0, 1, 2), False), ("u", (0, 3, 6, 2), True), ("d", (0, 3), False),
      ("d", (0, 2, 3), True), ("d", (0, 2, 3), True))),
    ((((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((5,), 2), ((5,), 2), ((5,), 2), ((5,), 2), ((5,), 2), ((5,), 2)),
     (("u", (5, 6), True), ("u", (5, 6), True), ("d", (5,), True), ("d", (5,), True),
      ("d", (5,), True))),
    ((((0,), 3), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 6), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2, 4, 5), 15), ((2, 3, 5), 6), ((2, 3, 5), 6), ((2, 5), 3), ((2, 5), 3),
      ((2, 5), 3)),
     (("u", (2, 10), True), ("u", (2, 10), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((3, 4, 5, 7), 33), ((0, 1, 4), 14), ((0, 1, 4), 14), ((0, 4), 7), ((0, 4), 7),
      ((0, 4), 7)),
     (("u", (4, 16), True), ("u", (4, 16), True), ("d", (4,), True), ("d", (4,), True),
      ("d", (4,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2), 6), ((2,), 4), ((2,), 4), ((), 1), ((), 1), ((), 1)),
     (("u", (2, 11, 5, 3, 8), True), ("u", (2, 11, 5, 3, 8), True), None, None, None)),
    ((((), 1), ((0,), 5), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 3, 1, 2), False), None, None, None, None)),
    ((((0,), 3), ((0,), 4), ((0,), 4), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 7, 1, 4, 8), True), ("u", (0, 7, 1, 4, 8), True), None, None, None)),
    ((((0, 1, 3, 4, 5), 34), ((1, 2, 3, 4), 11), ((1, 2, 3, 4), 11), ((1, 3, 4), 5),
      ((1, 3, 4), 5), ((1, 3, 4), 5)),
     (("u", (1, 8), True), ("u", (1, 8), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((2,), 2), ((2,), 2), ((2,), 2), ((2,), 2), ((2,), 2), ((2,), 2)),
     (("u", (2, 3), True), ("u", (2, 3), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((1, 2, 4, 5, 6), 48), ((1, 2, 3, 5, 6), 39), ((1, 2, 3, 5, 6), 39),
      ((1, 2, 3, 5, 6), 39), ((1, 2, 3, 5, 6), 39), ((1, 2, 3, 5, 6), 39)),
     (("u", (1, 4, 13), True), ("u", (1, 4, 13), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((0, 1, 2, 3), 20), ((0, 1, 2, 3), 13), ((0, 1, 2, 3), 13), ((0, 1, 2, 3), 14),
      ((0, 1, 2, 3), 13), ((0, 1, 2, 3), 13)),
     (("u", (0, 7), True), ("u", (0, 7), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((1,), 4), ((), 1), ((1,), 3), ((), 1), ((), 1)),
     (("u", (1, 2, 3), False), None, ("d", (1, 2), False), None, None)),
    ((((0,), 3), ((0, 2), 12), ((0,), 4), ((1, 2), 5), ((), 1), ((), 1)),
     (("u", (2, 4, 5), False), ("u", (0, 7, 1, 6), True), ("d", (1, 6), False), None,
      None)),
    ((((0, 1), 4), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3), ((0, 1), 3)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 3, 4), 22), ((1, 3, 4), 22), ((1, 3, 4), 22), ((1, 3, 4), 22),
      ((1, 3, 4), 22), ((1, 3, 4), 22)),
     (("u", (0, 10, 1, 8), True), ("u", (0, 10, 1, 8), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((2,), 4), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (2, 3, 4), False), None, None, None, None)),
    ((((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3), ((0,), 3)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 4), True), ("u", (0, 4), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1), 7), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 4, 8), True), ("u", (1, 4, 8), True), ("d", (1, 4), True),
      ("d", (1, 4), True), ("d", (1, 4), True))),
    ((((0, 1), 7), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2)),
     (("u", (1, 5), True), ("u", (1, 5), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((1,), 5), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2)),
     (("u", (1, 6), True), ("u", (1, 6), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0, 1, 3, 4, 5), 29), ((0, 1, 2, 3, 4), 8), ((0, 1, 2, 3, 4), 8),
      ((0, 1, 3, 4), 5), ((0, 1, 3, 4), 5), ((0, 1, 3, 4), 5)),
     (("u", (0, 9), True), ("u", (0, 9), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 2), 9), ((0, 2), 3), ((0, 2), 3), ((0, 2), 3), ((0, 2), 3), ((0, 2), 3)),
     (("u", (0, 5), True), ("u", (0, 5), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 8), ((0, 1), 8), ((0, 1), 8), ((0, 1), 8), ((0, 1), 8), ((0, 1), 8)),
     (("u", (0, 3, 1, 5), True), ("u", (0, 3, 1, 5), True), ("d", (0, 1), True),
      ("d", (0, 1), True), ("d", (0, 1), True))),
    ((((0, 6), 9), ((0, 5, 6), 23), ((0, 6), 16), ((0, 5), 7), ((0, 5), 9),
      ((0, 5), 8)),
     (("u", (5, 6, 10), True), ("u", (5, 6, 10), True), ("d", (0, 2), False),
      ("d", (5, 6), True), ("d", (5, 6), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1), 6), ((0, 1, 5), 21), ((0, 1), 8), ((0, 1, 5), 11), ((1, 4), 8),
      ((1,), 3)),
     (("u", (1, 3, 11), True), ("u", (1, 3, 11), True), ("d", (0, 4), False),
      ("d", (1, 3), True), ("d", (1, 3), True))),
    ((((0,), 3), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((0,), 4), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 1, 3), False), None, None, None, None)),
    ((((3,), 4), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2)),
     (("u", (3, 6), True), ("u", (3, 6), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 2, 4), 27), ((0, 1, 2, 4), 45), ((0, 1, 2, 4), 45), ((0, 2), 7),
      ((0, 2), 7), ((0, 2), 7)),
     (("u", (0, 5, 10), True), ("u", (0, 5, 10), True), ("d", (0, 5), True),
      ("d", (0, 5), True), ("d", (0, 5), True))),
    ((((0, 1, 3), 12), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2), ((1,), 2)),
     (("u", (1, 11), True), ("u", (1, 11), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((0,), 4), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (0, 1, 4), False), None, None, None, None)),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 3, 4), 16), ((0, 1, 3), 6), ((0, 1, 3), 6), ((1, 3), 3), ((1, 3), 3),
      ((1, 3), 3)),
     (("u", (1, 7), True), ("u", (1, 7), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0, 3), 8), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2)),
     (("u", (3, 8), True), ("u", (3, 8), True), ("d", (3,), True), ("d", (3,), True),
      ("d", (3,), True))),
    ((((4, 9), 9), ((2, 6, 9), 78), ((4, 9), 46), ((0, 2, 3), 15), ((0, 2), 13),
      ((2,), 6)),
     (("u", (0, 1, 6), False), ("u", (2, 4, 10, 6), True), ("d", (2, 3), False),
      ("d", (0, 1, 9), False), ("d", (2, 3, 7, 9, 5), True))),
    ((((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((), 1), ((2,), 4), ((), 1), ((), 1), ((), 1), ((), 1)),
     (("u", (2, 4, 5), False), None, None, None, None)),
    ((((1, 3), 8), ((0, 2), 10), ((0, 2), 11), ((0,), 3), ((0,), 4), ((), 1)),
     (("u", (0, 2, 4), False), ("u", (0, 2, 3, 5), True), ("d", (0, 4), False),
      ("d", (0, 2, 4), False), None)),
    ((((3,), 3), ((3,), 3), ((3,), 3), ((3,), 3), ((3,), 3), ((3,), 3)),
     (("u", (3, 7, 4, 6), True), ("u", (3, 7, 4, 6), True), ("d", (3, 4), True),
      ("d", (3, 4), True), ("d", (3, 4), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 1, 2), 14), ((1, 3), 9), ((1, 3), 9), ((1,), 3), ((1,), 3), ((1,), 3)),
     (("u", (1, 2, 5), True), ("u", (1, 2, 5), True), ("d", (1, 2), True),
      ("d", (1, 2), True), ("d", (1, 2), True))),
    ((((1,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0, 2), 7), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((0,), 3), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2), ((0,), 2)),
     (("u", (0, 2), True), ("u", (0, 2), True), ("d", (0,), True), ("d", (0,), True),
      ("d", (0,), True))),
    ((((0, 1, 2, 4, 6), 33), ((0, 1, 2, 4), 19), ((0, 1, 2, 4), 19), ((0, 1, 2), 8),
      ((0, 1, 2), 8), ((0, 1, 2), 8)),
     (("u", (1, 11), True), ("u", (1, 11), True), ("d", (1,), True), ("d", (1,), True),
      ("d", (1,), True))),
    ((((0, 2, 3), 11), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2), ((3,), 2)),
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
    ((((0, 1, 2, 5, 6), 59), ((0, 1, 2, 6), 35), ((0, 1, 2, 6), 35), ((0, 5, 6), 16),
      ((0, 5, 6), 18), ((0, 5, 6), 18)),
     (("u", (1, 5, 11), True), ("u", (1, 5, 11), True), ("d", (0, 1), False),
      ("d", (0, 3), True), ("d", (1, 5), True))),
    ((((2, 4, 6), 13), ((2, 4, 6), 24), ((2, 4, 6), 24), ((1, 4, 6), 17),
      ((1, 4, 6), 17), ((1, 4, 6), 17)),
     (("u", (1, 2, 10), True), ("u", (1, 2, 10), True), ("d", (1, 2), True),
      ("d", (1, 2), True), ("d", (1, 2), True))),
    ((((0, 1, 2, 3, 9), 47), ((0, 1, 3, 9), 17), ((0, 1, 3, 9), 19),
      ((0, 1, 3, 4, 9), 38), ((0, 1, 3, 9), 17), ((0, 1, 3, 9), 19)),
     (("u", (0, 1, 2), False), ("u", (0, 1, 4, 10), True), ("d", (0, 4), True),
      ("d", (0, 4), True), ("d", (0, 4), True))),
    ((((0, 2, 3, 5, 6), 45), ((0, 1, 2, 5), 21), ((0, 1, 2, 5), 20), ((1, 2, 7), 12),
      ((1, 2, 7), 12), ((1, 2, 7), 12)),
     (("u", (2, 16), True), ("u", (2, 16), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((), 1), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((), 1), ((0,), 4), ((), 1), ((0,), 3), ((), 1), ((), 1)),
     (("u", (0, 1, 2), False), None, ("d", (0, 1), False), None, None)),
    ((((0,), 3), ((), 1), ((), 1), ((), 1), ((), 1), ((), 1)),
     (None, None, None, None, None)),
    ((((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4), ((2,), 4)),
     (("u", (2, 8), True), ("u", (2, 8), True), ("d", (2,), True), ("d", (2,), True),
      ("d", (2,), True))),
    ((((1,), 3), ((0,), 4), ((0,), 4), ((0,), 3), ((), 1), ((), 1)),
     (("u", (0, 4, 1, 2), True), ("u", (0, 4, 1, 2), True), ("d", (0, 3), False), None,
      None)),
)
