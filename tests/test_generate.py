import math

import pytest

from aspback import (GenConfig, HittingSetInstance, TargetClass, brute_answer_sets,
                     child_seed, disjoint_copies, from_hitting_set, parse_hitting_set,
                     parse_program, random_program, render_program,
                     in_target_class, vertex_cover_min, horn_conflict_graph)
from conftest import program_sigs


def test_deterministic_per_seed():
    cfg = GenConfig(n_atoms=9, density=3.0, seed=17)
    assert render_program(random_program(cfg)) == render_program(random_program(cfg))
    other = GenConfig(n_atoms=9, density=3.0, seed=18)
    assert render_program(random_program(cfg)) != render_program(random_program(other))


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n_atoms=0, density=1.0)
    with pytest.raises(ValueError):
        GenConfig(n_atoms=5, density=-0.5)
    for density in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            GenConfig(n_atoms=5, density=density)
    # finite, but the rule count density * n_atoms overflows to inf
    with pytest.raises(ValueError, match="rule count"):
        GenConfig(n_atoms=5, density=1e308)
    assert GenConfig(n_atoms=1, density=1e308, body_len=0).density == 1e308
    # an atom count beyond the float range, even with no rules to count
    with pytest.raises(ValueError, match="n_atoms"):
        GenConfig(n_atoms=10**400, density=0)
    with pytest.raises(ValueError):
        GenConfig(n_atoms=5, density=1.0, body_len=5)
    with pytest.raises(ValueError):
        GenConfig(n_atoms=5, density=1.0, neg_prob=1.5)


def test_rule_count_and_shape():
    cfg = GenConfig(n_atoms=10, density=2.5, body_len=3, seed=2)
    p = random_program(cfg)
    assert len(p.rules) == math.ceil(2.5 * 10)
    for r in p.rules:
        assert len(r.head) == 1
        assert len(r.pos_body) + len(r.neg_body) == 3
        assert not r.head & r.body
        assert not r.pos_body & r.neg_body
        assert not r.tautological


def test_neg_prob_extremes():
    allpos = random_program(GenConfig(n_atoms=8, density=3.0, neg_prob=0.0, seed=5))
    assert all(not r.neg_body for r in allpos.rules)
    assert in_target_class(allpos, TargetClass.HORN)
    allneg = random_program(GenConfig(n_atoms=8, density=3.0, neg_prob=1.0, seed=5))
    assert all(not r.pos_body for r in allneg.rules)


def test_atom_names():
    p = random_program(GenConfig(n_atoms=4, density=1.0, seed=0))
    assert [p.atom_name(i) for i in range(4)] == ["x0", "x1", "x2", "x3"]


def test_child_seed_spreads():
    seeds = {child_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert child_seed(1, 0) != child_seed(0, 1)


def test_hitting_instance_validation():
    with pytest.raises(ValueError):
        HittingSetInstance((frozenset({"e1"}),), -1)
    with pytest.raises(ValueError):
        HittingSetInstance((frozenset(),), 1)
    with pytest.raises(ValueError):
        HittingSetInstance((frozenset({"not"}),), 1)
    with pytest.raises(ValueError):
        HittingSetInstance((frozenset({"1bad"}),), 1)


def test_hitting_elements_never_named_like_aux_atoms():
    # the encoding names its own atoms a_i_j and b_i_j: an element a_1_1
    # would silently become the auxiliary atom of set 1, copy 1
    for e in ("a_1_1", "b_1_1", "a_12_3"):
        with pytest.raises(ValueError, match="auxiliary"):
            HittingSetInstance((frozenset({e}),), 0)
    for e in ("a_1", "a1_1_1", "c_1_1", "a_1_x"):
        HittingSetInstance((frozenset({e}),), 0)


def test_hitting_from_ints_and_hit_by():
    inst = HittingSetInstance.from_ints([[1, 2], [2, 3]], 1)
    assert inst.sets == (frozenset({"e1", "e2"}), frozenset({"e2", "e3"}))
    assert inst.hit_by({"e2"})
    assert not inst.hit_by({"e1"})
    assert inst.elements() == ["e1", "e2", "e2", "e3"][:3] or inst.elements() == ["e1", "e2", "e3"]


def test_parse_hitting_set():
    text = "% toy instance\nk = 2\n1 2 3\nfoo bar\n"
    inst = parse_hitting_set(text)
    assert inst.k == 2
    assert inst.sets == (frozenset({"e1", "e2", "e3"}), frozenset({"foo", "bar"}))
    with pytest.raises(ValueError):
        parse_hitting_set("1 2\n")  # missing k line
    with pytest.raises(ValueError):
        parse_hitting_set("k = -1\n1 2\n")
    with pytest.raises(ValueError, match="bad k line"):
        parse_hitting_set("k = two\n1 2\n")
    with pytest.raises(ValueError, match="at least one set"):
        parse_hitting_set("k = 1\n% no sets\n")


def test_encoding_shape():
    inst = HittingSetInstance.from_ints([[1, 2], [3]], 1)
    for variant in ("taut", "full"):
        p = from_hitting_set(inst, variant)
        assert len(p.rules) == 2 * 2 * (1 + 1)
        # elements claim the low atom ids, in first-occurrence order
        assert [p.atom_name(i) for i in range(3)] == ["e1", "e2", "e3"]
    with pytest.raises(ValueError):
        from_hitting_set(inst, "short")


def test_encoding_tautology_split():
    inst = HittingSetInstance.from_ints([[1, 2]], 1)
    taut = from_hitting_set(inst, "taut")
    a_rules = [r for r in taut.rules if len(r.pos_body) > 1]
    assert a_rules and all(r.tautological for r in a_rules)
    full = from_hitting_set(inst, "full")
    assert all(not r.tautological for r in full.rules)


def test_full_encoding_backdoor_equivalence_small():
    # hitting sets of size <= k match strong backdoors of size <= k: each
    # truth value of a hit element kills one rule of every pair it touches
    from aspback import BackdoorQuery, find_backdoor
    inst = HittingSetInstance.from_ints([[1, 2], [2, 3], [1, 3]], 1)
    p = from_hitting_set(inst, "full")
    r = find_backdoor(p, BackdoorQuery(TargetClass.STRAT, k=1))
    assert r.witness is None  # needs two elements to hit a triangle
    inst2 = HittingSetInstance.from_ints([[1, 2], [2, 3]], 1)
    p2 = from_hitting_set(inst2, "full")
    r2 = find_backdoor(p2, BackdoorQuery(TargetClass.STRAT, k=1))
    assert r2.witness == frozenset({p2.atom_id("e2")})


def test_disjoint_copies_structure():
    p = parse_program("a :- not b.  b :- not a.")
    q = disjoint_copies(p, 3)
    assert q.n_atoms == 6 and len(q.rules) == 6
    names = {q.atom_name(i) for i in range(6)}
    assert names == {"a_c1", "b_c1", "a_c2", "b_c2", "a_c3", "b_c3"}
    assert program_sigs(parse_program("a_c1 :- not b_c1. b_c1 :- not a_c1.")) <= program_sigs(q)


def test_disjoint_copies_answer_sets_multiply():
    p = parse_program("a :- not b.  b :- not a.")
    q = disjoint_copies(p, 3)
    assert len(brute_answer_sets(q)) == 2 ** 3


def test_disjoint_copies_backdoors_add():
    p = parse_program("a | b.")
    q = disjoint_copies(p, 4)
    cover = vertex_cover_min(horn_conflict_graph(q))
    assert len(cover) == 4


def test_disjoint_copies_validation():
    p = parse_program("a.")
    with pytest.raises(ValueError):
        disjoint_copies(p, 0)
