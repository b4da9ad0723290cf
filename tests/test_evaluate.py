import os
import random
from types import SimpleNamespace

import pytest

from aspback import (BackdoorQuery, EvalReport, ProgramBuilder, TargetClass,
                     answer_sets, brute_answer_sets, candidate_sets,
                     check_answer_set, find_backdoor, horn_star_answer_sets,
                     in_target_class, is_answer_set_direct, is_model,
                     mode_result, parse_program)
from aspback import evaluate
from aspback.evaluate import _Evaluator
from conftest import corpus, names_of


def test_candidates_worked_example(ex1, ex1_ids):
    x = {ex1_ids["r"], ex1_ids["s"]}
    cands = candidate_sets(ex1, x)
    assert len(cands) == 4
    # assignments walk a bitmask over the id-sorted domain [s, r]
    combos = [names_of(ex1, c.combined) for c in cands]
    assert combos == [{"t"}, {"t", "s"}, {"r"}, {"r", "s"}]
    assert [names_of(ex1, c.m_reduct) for c in cands] == [{"t"}, {"t"}, set(), set()]


def test_candidates_invalid_backdoor(ex1, ex1_ids):
    with pytest.raises(ValueError):
        candidate_sets(ex1, {ex1_ids["w"]})


def test_answer_sets_worked_example(ex1, ex1_ids):
    rep = answer_sets(ex1, {ex1_ids["r"], ex1_ids["s"]})
    assert isinstance(rep, EvalReport)
    assert {names_of(ex1, m) for m in rep.answer_sets} == {frozenset({"t"})}
    assert rep.candidates_total == 4 and rep.candidates_rejected == 3
    assert (rep.failed_model, rep.failed_minimal) == (0, 3)
    assert names_of(ex1, rep.backdoor) == {"r", "s"}


def test_backdoor_restricted_to_occurring():
    # atoms outside the program contribute no assignments
    p = parse_program("a :- not b.")
    rep = answer_sets(p, {0, 1})
    assert rep.candidates_total == 4
    cands = candidate_sets(p, {1})
    assert len(cands) == 2


def test_unknown_atom_rejected(ex1):
    with pytest.raises(ValueError):
        answer_sets(ex1, {77})
    with pytest.raises(ValueError):
        check_answer_set(ex1, {0}, {77})


def test_check_answer_set_worked_example(ex1, ex1_ids):
    x = {ex1_ids["r"], ex1_ids["s"]}
    assert check_answer_set(ex1, x, {ex1_ids["t"]})
    assert not check_answer_set(ex1, x, {ex1_ids["t"], ex1_ids["s"]})
    assert not check_answer_set(ex1, x, {ex1_ids["r"]})
    assert not check_answer_set(ex1, x, {ex1_ids["r"], ex1_ids["s"]})


def test_check_rejects_non_models(ex1, ex1_ids):
    assert not check_answer_set(ex1, {ex1_ids["r"], ex1_ids["s"]}, set())


def test_bound_on_answer_set_count():
    for p in corpus(40, seed=93, n_atoms=8, density=3.0):
        from aspback import BackdoorQuery, TargetClass, find_backdoor
        x = find_backdoor(p, BackdoorQuery(TargetClass.HORN)).witness
        rep = answer_sets(p, x)
        assert len(rep.answer_sets) <= 2 ** len(rep.backdoor)
        assert rep.candidates_total == 2 ** len(rep.backdoor)


def test_matches_brute_on_corpus():
    from aspback import BackdoorQuery, TargetClass, find_backdoor
    for p in corpus(60, seed=7, n_atoms=8, density=2.5):
        x = find_backdoor(p, BackdoorQuery(TargetClass.HORN)).witness
        rep = answer_sets(p, x)
        assert rep.answer_sets == frozenset(brute_answer_sets(p))


def test_check_agrees_with_direct_everywhere():
    from itertools import combinations
    from aspback import BackdoorQuery, TargetClass, find_backdoor
    for p in corpus(15, seed=55, n_atoms=6, density=2.0):
        x = find_backdoor(p, BackdoorQuery(TargetClass.HORN)).witness
        atoms = sorted(p.occurring_atoms())
        for r in range(len(atoms) + 1):
            for m in combinations(atoms, r):
                assert check_answer_set(p, x, set(m)) == is_answer_set_direct(p, set(m))


def test_parallel_matches_serial(ex1, ex1_ids):
    x = {ex1_ids["r"], ex1_ids["s"]}
    a = answer_sets(ex1, x, jobs=1)
    b = answer_sets(ex1, x, jobs=2)
    assert a == b


class FakePool:
    """A pool that records its size, runs its initializer and maps inline, so
    no process starts."""

    sizes: list[int] = []

    def __init__(self, n, initializer, initargs):
        self.sizes.append(n)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args):
        return [fn(*a) for a in args]


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(evaluate.multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=FakePool))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(evaluate, "_forked", {})  # the initializer runs in this process
    return FakePool.sizes


def test_jobs_capped_at_cpu_count(fake_pool):
    # 2^14 assignments are two blocks, so the pool really splits them
    k = 14
    p = parse_program(_loops(k, "g{i} :- not g{i}."))
    x = {p.atom_id(f"g{i}") for i in range(k)}
    rep = answer_sets(p, x, jobs=10000)
    assert fake_pool == [2]
    assert rep == answer_sets(p, x, jobs=1)
    assert (rep.failed_model, rep.failed_minimal) == (2 ** k - 1, 1)


def test_no_fork_within_one_block(fake_pool):
    k = 13
    p = parse_program(_loops(k, "g{i} :- not g{i}."))
    rep = answer_sets(p, {p.atom_id(f"g{i}") for i in range(k)}, jobs=2)
    assert fake_pool == []
    assert (rep.failed_model, rep.failed_minimal) == (2 ** k - 1, 1)


def test_minimality_scan_matches_definition(ex1, ex1_ids):
    # scan(m) decides minimality of any model m, not only of candidates
    x = {ex1_ids["r"], ex1_ids["s"]}
    ev = _Evaluator(ex1, x)
    verdicts = []
    for bits in range(1 << ex1.n_atoms):
        m = frozenset(a for a in range(ex1.n_atoms) if bits >> a & 1)
        if is_model(ex1, m):
            verdicts.append(ev.scan(m))
            assert verdicts[-1] == is_answer_set_direct(ex1, m)
    assert (len(verdicts), sum(verdicts)) == (21, 1)  # 21 models, one answer set


def test_materialize_guard():
    text = " ".join(f"a{i} | b{i}." for i in range(21))
    p = parse_program(text)
    x = {p.atom_id(f"a{i}") for i in range(21)}
    with pytest.raises(ValueError):
        candidate_sets(p, x)


def _modes(p, x, mode, atom=None):
    return mode_result(answer_sets(p, x).answer_sets, mode, atom)


def test_reason_modes(ex1, ex1_ids):
    x = {ex1_ids["r"], ex1_ids["s"]}
    assert _modes(ex1, x, "consistency") is True
    assert _modes(ex1, x, "count") == 1
    assert _modes(ex1, x, "brave", atom=ex1_ids["t"]) is True
    assert _modes(ex1, x, "brave", atom=ex1_ids["r"]) is False
    assert _modes(ex1, x, "cautious", atom=ex1_ids["t"]) is True
    sets = _modes(ex1, x, "enumerate")
    assert [names_of(ex1, m) for m in sets] == [{"t"}]


def test_reason_cautious_vacuous():
    p = parse_program("a :- not a.")
    x = {p.atom_id("a")}
    assert _modes(p, x, "consistency") is False
    assert _modes(p, x, "count") == 0
    assert _modes(p, x, "cautious", atom=0) is True
    assert _modes(p, x, "brave", atom=0) is False


def test_reason_validation():
    sets = {frozenset({0})}
    with pytest.raises(ValueError, match="mode must be one of"):
        mode_result(sets, "guess", 0)
    for mode in ("brave", "cautious"):
        with pytest.raises(ValueError, match="needs an atom"):
            mode_result(sets, mode)
        with pytest.raises(ValueError, match="needs an atom"):
            mode_result(frozenset(), mode)


def test_reason_enumerate_order():
    p = parse_program("a | b.  c :- b.")
    x = {p.atom_id("a"), p.atom_id("b")}
    sets = _modes(p, x, "enumerate")
    assert [sorted(m) for m in sets] == [[0], [1, 2]]


def _loops(k: int, gadget: str) -> str:
    chain = ["c0."] + [f"c{i + 1} :- c{i}." for i in range(20)]
    return "\n".join([gadget.format(i=i) for i in range(k)] + chain)


@pytest.mark.parametrize("jobs", [1, 2])
def test_rejection_split_odd_loops(jobs):
    # every assignment but the all-true one leaves some g_i :- not g_i false;
    # the all-true one is a model whose reduct derives only the chain; 2^14
    # assignments are two blocks, which jobs=2 splits over two workers
    k = 14
    p = parse_program(_loops(k, "g{i} :- not g{i}."))
    x = {p.atom_id(f"g{i}") for i in range(k)}
    rep = answer_sets(p, x, jobs=jobs)
    assert rep.answer_sets == frozenset()
    assert (rep.failed_model, rep.failed_minimal) == (2 ** k - 1, 1)
    assert rep.candidates_rejected == 2 ** k


def test_odd_loops_settled_in_one_block(monkeypatch):
    # g_i :- not g_i lies inside x: one block of all 2^9 assignments settles
    # them, and the one model among them fails minimality by the least model
    # of its reduct, so no candidate is ever extracted
    blocks, extracted = [], []
    block, candidate = _Evaluator.block, _Evaluator.candidate
    monkeypatch.setattr(_Evaluator, "block",
                        lambda self, lo, w: blocks.append((lo, w)) or block(self, lo, w))
    monkeypatch.setattr(_Evaluator, "candidate",
                        lambda self, val, j: extracted.append(j) or candidate(self, val, j))
    k = 9
    p = parse_program(_loops(k, "g{i} :- not g{i}."))
    rep = answer_sets(p, {p.atom_id(f"g{i}") for i in range(k)})
    assert blocks == [(0, 2 ** k)]
    assert extracted == []
    assert (rep.failed_model, rep.failed_minimal) == (2 ** k - 1, 1)
    # an even loop accepts every candidate: each is extracted once
    p = parse_program(_loops(k, "a{i} :- not b{i}.\nb{i} :- not a{i}."))
    rep = answer_sets(p, {p.atom_id(f"a{i}") for i in range(k)})
    assert len(rep.answer_sets) == len(extracted) == 2 ** k


def test_rejection_split_even_loops():
    k = 5
    p = parse_program(_loops(k, "a{i} :- not b{i}.\nb{i} :- not a{i}."))
    x = {p.atom_id(f"a{i}") for i in range(k)}
    rep = answer_sets(p, x)
    assert len(rep.answer_sets) == 2 ** k
    assert (rep.failed_model, rep.failed_minimal) == (0, 0)


def _mixed_program(rng: random.Random, n: int):
    """Random rules with disjunctive heads, constraints and tautologies."""
    b = ProgramBuilder()
    atoms = [f"a{i}" for i in range(n)]
    for _ in range(rng.randint(1, 3 * n)):
        head = rng.sample(atoms, min(n, rng.choice((0, 1, 1, 1, 2, 2, 3))))
        pos = rng.sample(atoms, rng.randint(0, min(2, n)))
        neg = rng.sample(atoms, rng.randint(0, min(2, n)))
        if head and rng.random() < 0.1:
            pos.append(head[0])
        b.add_rule(head, pos, neg)
    return b.build()


def test_matches_brute_on_disjunctive_corpus(monkeypatch):
    # random_program output is always normal; this corpus reaches the minimality
    # scan, which only reducts with two or more head atoms still need; a random
    # superset of the witness puts more atoms into M n x, so scans look at more subsets
    scans = []
    scan = _Evaluator.scan
    monkeypatch.setattr(_Evaluator, "scan",
                        lambda self, mm: scans.append(len(mm & self.xset)) or scan(self, mm))
    rng, pick = random.Random(2013), random.Random(2015)
    for _ in range(300):
        p = _mixed_program(rng, rng.randint(1, 10))
        x = find_backdoor(p, BackdoorQuery(TargetClass.HORN)).witness
        rep = answer_sets(p, x)
        assert rep.answer_sets == frozenset(brute_answer_sets(p))
        occ = sorted(p.occurring_atoms())
        wide = x | set(pick.sample(occ, pick.randint(0, len(occ))))
        assert answer_sets(p, wide).answer_sets == rep.answer_sets
        non_models = 0
        for c in candidate_sets(p, x):
            assert check_answer_set(p, x, c.combined) == is_answer_set_direct(p, c.combined)
            non_models += not is_model(p, c.combined)
        assert rep.failed_model == non_models
    assert len(scans) > 500 and max(scans) >= 3


@pytest.mark.parametrize("block", [1, 2, 8])
def test_block_boundaries(monkeypatch, fake_pool, block):
    # narrow blocks cut every program's assignments at other places, and
    # jobs=2 splits the blocks over the (inline) pool
    rng = random.Random(2014)
    programs = [_mixed_program(rng, rng.randint(1, 9)) for _ in range(80)]
    programs += corpus(60, seed=31, n_atoms=9, density=2.0)
    cases = []
    for p in programs:
        x = find_backdoor(p, BackdoorQuery(TargetClass.HORN)).witness
        cases.append((p, x, answer_sets(p, x), candidate_sets(p, x)))
    monkeypatch.setattr(evaluate, "BLOCK", block)
    for p, x, want, cands in cases:
        assert want.answer_sets == frozenset(brute_answer_sets(p))
        for jobs in (1, 2):
            assert answer_sets(p, x, jobs=jobs) == want
        assert candidate_sets(p, x) == cands
        for c in cands:
            assert check_answer_set(p, x, c.combined) == is_answer_set_direct(p, c.combined)
    assert fake_pool  # some program had more than one block


def test_one_propagation_matches_subset_scan(monkeypatch):
    scans = []
    scan = _Evaluator.scan
    monkeypatch.setattr(_Evaluator, "scan",
                        lambda self, mm: scans.append(mm) or scan(self, mm))
    checked = 0
    for p in corpus(60, seed=31, n_atoms=9, density=2.0):
        x = find_backdoor(p, BackdoorQuery(TargetClass.HORN)).witness
        ev = _Evaluator(p, x)
        for c in candidate_sets(p, x):
            if is_model(p, c.combined):
                fast = check_answer_set(p, x, c.combined)
                assert not scans
                assert fast == ev.scan(c.combined)
                scans.clear()
                checked += 1
    assert checked > 50


def _horn_star_program(rng: random.Random, n: int):
    """Random Horn* rules: facts, definite rules, constraints with negative
    bodies and tautological rules, some of them disjunctive."""
    b = ProgramBuilder()
    atoms = [f"a{i}" for i in range(n)]
    for _ in range(rng.randint(1, 3 * n)):
        pos = rng.sample(atoms, rng.randint(0, min(2, n)))
        neg = rng.sample(atoms, rng.randint(0, min(2, n)))
        kind = rng.random()
        if kind < 0.2:
            b.add_rule([rng.choice(atoms)])
        elif kind < 0.4:
            b.add_rule([], pos, neg)
        elif kind < 0.55:
            head = rng.sample(atoms, rng.randint(1, min(3, n)))
            b.add_rule(head, pos + [rng.choice(head + neg)], neg)
        else:
            b.add_rule([rng.choice(atoms)], pos)
    return b.build()


def test_horn_star_matches_brute_on_corpus():
    rng = random.Random(2011)
    for _ in range(200):
        p = _horn_star_program(rng, rng.randint(1, 10))
        assert in_target_class(p, TargetClass.HORN)
        assert horn_star_answer_sets(p) == brute_answer_sets(p)


def test_horn_star_raises_exactly_outside_class():
    rng = random.Random(2012)
    members = 0
    for _ in range(300):
        p = _mixed_program(rng, rng.randint(1, 8))
        if in_target_class(p, TargetClass.HORN):
            members += 1
            assert horn_star_answer_sets(p) == brute_answer_sets(p)
        else:
            with pytest.raises(ValueError):
                horn_star_answer_sets(p)
    assert 0 < members < 300
