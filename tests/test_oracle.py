import pytest

import aspback.depgraph
from aspback import (GenConfig, TargetClass, brute_answer_sets, brute_min_backdoor,
                     is_answer_set_direct, parse_program, random_program)
from aspback.program import CompiledProgram
from conftest import names_of


def sets_of(p, families):
    return {names_of(p, m) for m in families}


def test_fact():
    p = parse_program("a.")
    assert sets_of(p, brute_answer_sets(p)) == {frozenset({"a"})}


def test_odd_loop_inconsistent():
    assert brute_answer_sets(parse_program("a :- not a.")) == set()


def test_even_loop_two_sets():
    p = parse_program("a :- not b.  b :- not a.")
    assert sets_of(p, brute_answer_sets(p)) == {frozenset({"a"}), frozenset({"b"})}


def test_disjunction_splits():
    p = parse_program("a | b.")
    assert sets_of(p, brute_answer_sets(p)) == {frozenset({"a"}), frozenset({"b"})}


def test_positive_loop_unfounded():
    # a :- a. supports nothing: the empty set is the single answer set
    p = parse_program("a :- a.")
    assert brute_answer_sets(p) == {frozenset()}


def test_constraint_filters():
    p = parse_program("a | b.  :- a.")
    assert sets_of(p, brute_answer_sets(p)) == {frozenset({"b"})}
    assert brute_answer_sets(parse_program("a.  :- a.")) == set()


def test_empty_program():
    assert brute_answer_sets(parse_program("")) == {frozenset()}


def test_minimality_across_disjuncts():
    # mutual implication forces both disjuncts; {a, b} is the minimal model
    p = parse_program("a | b.  a :- b.  b :- a.")
    assert sets_of(p, brute_answer_sets(p)) == {frozenset({"a", "b"})}
    # without the implications each singleton is minimal and {a, b} is not
    q = parse_program("a | b.")
    assert not is_answer_set_direct(q, {0, 1})


def test_direct_check_agrees(ex1, ex1_ids):
    assert is_answer_set_direct(ex1, {ex1_ids["t"]})
    assert not is_answer_set_direct(ex1, set())
    assert not is_answer_set_direct(ex1, {ex1_ids["r"], ex1_ids["s"]})


def test_direct_check_validates_ids(ex1):
    with pytest.raises(ValueError):
        is_answer_set_direct(ex1, {42})


def test_atom_guard():
    text = "\n".join(f"x{i}." for i in range(21))
    p = parse_program(text)
    with pytest.raises(ValueError):
        brute_answer_sets(p)
    assert len(brute_answer_sets(p, max_atoms=21)) == 1
    with pytest.raises(ValueError, match="is_answer_set_direct guard"):
        is_answer_set_direct(p, set(), max_atoms=20)
    with pytest.raises(ValueError, match="brute_min_backdoor guard"):
        brute_min_backdoor(p, TargetClass.HORN, "strong", max_atoms=20)


def test_brute_min_backdoor_trivial():
    p = parse_program("a :- b.")
    for kind in ("strong", "deletion"):
        assert brute_min_backdoor(p, TargetClass.HORN, kind) == frozenset()


def test_brute_min_backdoor_worked_example(ex1):
    x = brute_min_backdoor(ex1, TargetClass.HORN, "strong")
    assert names_of(ex1, x) == {"r", "s"}
    assert names_of(ex1, brute_min_backdoor(ex1, TargetClass.STRAT, "deletion")) == {"w"}


def test_brute_min_backdoor_size_then_lex():
    # two singleton strong Horn backdoors {a} and {b}; lex picks the smaller id
    p = parse_program("a | b.")
    assert brute_min_backdoor(p, TargetClass.HORN, "strong") == {p.atom_id("a")}


def test_brute_min_backdoor_deletion_compiles_once(monkeypatch):
    # every subset is tested on one CompiledProgram and its one graph
    calls = {"compile": 0, "dep_masks": 0}

    def counted(key, fn):
        def wrapper(*a, **kw):
            calls[key] += 1
            return fn(*a, **kw)
        return wrapper
    monkeypatch.setattr(CompiledProgram, "__init__",
                        counted("compile", CompiledProgram.__init__))
    monkeypatch.setattr(aspback.depgraph, "_dep_masks",
                        counted("dep_masks", aspback.depgraph._dep_masks))
    p = random_program(GenConfig(10, 1.5, seed=1))
    assert len(brute_min_backdoor(p, TargetClass.STRAT, "deletion")) == 3
    assert calls == {"compile": 1, "dep_masks": 1}


def test_brute_min_backdoor_rejects_unknown_kind():
    p = parse_program("a :- not a.")
    with pytest.raises(ValueError):
        brute_min_backdoor(p, TargetClass.STRAT, "Strong")
