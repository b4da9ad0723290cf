"""Invariant checks over generated programs.

The class-inclusion chains, the strong/deletion relationships, and the
candidate-set bounds each get hammered on larger corpora in the acceptance
suite; here hypothesis shrinks any counterexample to something readable.
"""

import random

from hypothesis import given, settings, strategies as st

from aspback import (ACYCLIC_CLASSES, TargetClass, brute_answer_sets, build_udg,
                     candidate_sets, core, delete_atoms, find_directed_cycle,
                     find_undirected_cycle, gl_reduct, horn_conflict_graph,
                     in_target_class, parse_program, random_program, render_program,
                     ta_reduct, verify_backdoor, witness_cycle,
                     GenConfig, TruthAssignment, assignments_over, build_ddg)
from aspback.program import CompiledProgram
from conftest import check_witness

NAMES = [f"a{i}" for i in range(6)]

literals = st.lists(st.sampled_from(NAMES), min_size=0, max_size=3)
heads = st.lists(st.sampled_from(NAMES), min_size=0, max_size=2)


@st.composite
def rule_texts(draw):
    head = draw(heads)
    pos = draw(literals)
    neg = draw(literals)
    body = ", ".join([*pos, *(f"not {a}" for a in neg)])
    if not head and not body:
        return "a0."
    if not head:
        return f":- {body}."
    if not body:
        return " | ".join(head) + "."
    return " | ".join(head) + " :- " + body + "."


programs = st.lists(rule_texts(), min_size=0, max_size=8).map("\n".join)


@st.composite
def seeded_programs(draw):
    cfg = GenConfig(n_atoms=draw(st.integers(3, 8)),
                    density=draw(st.floats(0.5, 4.0)),
                    neg_prob=draw(st.floats(0.0, 1.0)),
                    seed=draw(st.integers(0, 2 ** 32)))
    return random_program(cfg)


@given(programs)
def test_parse_render_fixpoint(text):
    p = parse_program(text)
    q = parse_program(render_program(p))
    assert q == p and render_program(q) == render_program(p)


@given(programs)
def test_core_idempotent_and_sound(text):
    p = parse_program(text)
    c = core(p)
    assert core(c) == c
    assert all(not r.tautological and r.head for r in c.rules)
    assert c.n_atoms == p.n_atoms
    assert ([r.tautological for r in p.rules]
            == [bool(pos & (h | neg)) for h, pos, neg in CompiledProgram(p).rules])


@given(programs, st.integers(0, 63))
def test_gl_reduct_negation_free(text, mask):
    p = parse_program(text)
    m = {i for i in range(p.n_atoms) if mask >> i & 1}
    g = gl_reduct(p, m)
    assert all(not r.neg_body for r in g.rules)
    assert g.n_atoms == p.n_atoms


@given(programs, st.integers(0, 63), st.integers(0, 63))
def test_ta_reduct_erases_domain(text, xmask, vmask):
    p = parse_program(text)
    x = {i for i in range(p.n_atoms) if xmask >> i & 1}
    tau = TruthAssignment({a: vmask >> a & 1 for a in x})
    r = ta_reduct(p, tau)
    assert all(not r.atoms & x for r in r.rules)
    assert all(rr.head for rr in r.rules)


@given(programs, st.integers(0, 63))
def test_delete_atoms_keeps_rule_count(text, xmask):
    p = parse_program(text)
    x = {i for i in range(p.n_atoms) if xmask >> i & 1}
    d = delete_atoms(p, x)
    assert len(d.rules) == len(p.rules)
    assert all(not r.atoms & x for r in d.rules)


@given(seeded_programs())
@settings(max_examples=60)
def test_class_inclusion_chains(p):
    member = {c: in_target_class(p, c) for c in ACYCLIC_CLASSES}
    if member[TargetClass.C_ACYC]:
        assert member[TargetClass.BC_ACYC] and member[TargetClass.DC2_ACYC]
    if member[TargetClass.BC_ACYC]:
        assert member[TargetClass.STRAT]
    if member[TargetClass.DC_ACYC]:
        assert member[TargetClass.DC2_ACYC]
    if member[TargetClass.DC2_ACYC]:
        assert member[TargetClass.STRAT]


@given(seeded_programs())
@settings(max_examples=60)
def test_witness_chains_match_membership(p):
    for c in ACYCLIC_CLASSES:
        w = witness_cycle(p, c)
        assert (w is None) == in_target_class(p, c)
        if w is not None:
            check_witness(p, c, w)


@given(seeded_programs(), st.integers(0, 2 ** 8))
@settings(max_examples=80)
def test_strong_iff_deletion_horn_without_tautologies(p, xmask):
    # generated rules never overlap head and body, so no rule is tautological
    assert all(not r.tautological for r in p.rules)
    x = {a for a in range(p.n_atoms) if xmask >> a & 1}
    assert (verify_backdoor(p, x, TargetClass.HORN, "strong")
            == verify_backdoor(p, x, TargetClass.HORN, "deletion"))


def test_strong_deletion_split_on_tautology():
    # the equivalence needs tautology-freeness: deleting c below wakes the
    # rule up as a disjunction, while every truth assignment keeps it inert
    p = parse_program("a | b :- c, not c.")
    x = {p.atom_id("c")}
    assert verify_backdoor(p, x, TargetClass.HORN, "strong")
    assert not verify_backdoor(p, x, TargetClass.HORN, "deletion")


@given(seeded_programs(), st.integers(0, 2 ** 8))
@settings(max_examples=60)
def test_deletion_implies_strong_all_classes(p, xmask):
    x = {a for a in range(p.n_atoms) if xmask >> a & 1}
    if len(x) > 6:
        x = set(sorted(x)[:6])
    for target in TargetClass:
        if verify_backdoor(p, x, target, "deletion"):
            assert verify_backdoor(p, x, target, "strong")


@given(seeded_programs(), st.integers(0, 2 ** 8))
@settings(max_examples=80)
def test_conflict_cover_iff_deletion_horn(p, xmask):
    x = {a for a in range(p.n_atoms) if xmask >> a & 1}
    g = horn_conflict_graph(p)
    assert g.covered_by(x) == verify_backdoor(p, x, TargetClass.HORN, "deletion")


@given(seeded_programs())
@settings(max_examples=40)
def test_candidates_cover_brute(p):
    from aspback import BackdoorQuery, find_backdoor
    x = find_backdoor(p, BackdoorQuery(TargetClass.HORN)).witness
    cands = candidate_sets(p, x)
    combined = {c.combined for c in cands}
    assert len(combined) == len(cands)
    assert brute_answer_sets(p) <= combined
    # each combined set restricted to the backdoor matches its assignment
    for c in cands:
        assert c.combined & frozenset(x) == c.tau.true_atoms


@given(seeded_programs())
@settings(max_examples=40)
def test_udg_negative_vertex_degrees(p):
    g = build_udg(p)
    assert g.n_vertices == p.n_atoms + len(g.neg_edges)
    # the i-th extra vertex subdivides the i-th negative edge exactly
    for i, (a, b) in enumerate(g.neg_edges):
        assert sorted(g.adj[p.n_atoms + i]) == sorted((a, b))


def test_udg_self_loop_adjacency():
    p = parse_program("a :- not a.")
    g = build_udg(p)
    assert sorted(g.adj[1]) == [0, 0]


@given(seeded_programs())
@settings(max_examples=30)
def test_assignment_count(p):
    atoms = sorted(p.occurring_atoms())[:5]
    taus = list(assignments_over(atoms))
    assert len(taus) == 2 ** len(atoms)
    assert len({tuple(sorted(t.items())) for t in taus}) == len(taus)
