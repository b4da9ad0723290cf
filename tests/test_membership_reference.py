"""Class membership from the definitions, as a reference for the cycle search.

The deletion search and its oracle (brute_min_backdoor -> verify_backdoor ->
violation) share one cycle search, and the strong check masks its reducts
the same way.  Here each acyclicity class is
decided from its definition on the rules of core(delete_atoms(p, x)) and
of core(ta_reduct(p, tau)), with plain sets and no call into depgraph or
violation:

* strat: no negative edge (x, y) with x reachable from y;
* dc-acyc: no edge (x, y) with x reachable from y;
* dc2-acyc: no self-loop, no two-cycle with a negative edge, and no simple
  cycle of three or more atoms (enumerated);
* c-acyc: the undirected graph with subdivided negative edges is a forest
  (union-find);
* bc-acyc: no negative vertex whose two ends stay connected without it.

A non-normal rule in the core puts the program outside every class.
"""

import random

from aspback import (TargetClass, TruthAssignment, core, delete_atoms,
                     in_target_class, ta_reduct, verify_backdoor, witness_cycle)
from aspback.program import CompiledProgram, atom_mask, violation
from conftest import check_witness
from test_detect import CYCLE_CLASSES, GOLDEN, _golden_corpus


def _edges(q):
    """Directed dependency edges and the negative ones of a normal program."""
    edges, negative = set(), set()
    for r in q.rules:
        (x,) = r.head
        edges |= {(x, y) for y in r.pos_body | r.neg_body}
        negative |= {(x, y) for y in r.neg_body}
    return edges, negative


def _reach(succ, s):
    seen, todo = {s}, [s]
    while todo:
        for w in succ.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _long_cycle(succ):
    """A simple directed cycle of three or more atoms, each searched from its
    least atom through greater ones only."""
    def walk(s, path):
        for w in succ.get(path[-1], ()):
            if w == s and len(path) >= 3:
                return True
            if w > s and w not in path and walk(s, path + [w]):
                return True
        return False
    return any(walk(s, [s]) for s in succ)


def _forest(vertices, pairs):
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return True


def reference_member(q, c):
    """Membership of the core program q in acyclicity class c."""
    if any(len(r.head) > 1 for r in q.rules):
        return False
    edges, negative = _edges(q)
    succ = {}
    for x, y in edges:
        succ.setdefault(x, set()).add(y)
    if c is TargetClass.STRAT:
        return not any(x in _reach(succ, y) for x, y in negative)
    if c is TargetClass.DC_ACYC:
        return not any(x in _reach(succ, y) for x, y in edges)
    if c is TargetClass.DC2_ACYC:
        return not (any(x == y for x, y in edges)
                    or any((y, x) in edges for x, y in negative)
                    or _long_cycle(succ))
    # the undirected graph: one vertex per negative edge, positive pairs once
    pos = {frozenset(e) for e in edges - negative}
    links = [(x, ("v", x, y)) for x, y in negative]
    links += [(("v", x, y), y) for x, y in negative]
    if c is TargetClass.C_ACYC:
        if any(len(e) == 1 for e in pos):
            return False  # a positive loop
        vertices = {a for a, _ in links} | {b for _, b in links}
        vertices |= {a for e in pos for a in e}
        return _forest(vertices, links + [tuple(e) for e in pos])
    adj = {}
    for a, b in links + [tuple(e) for e in pos if len(e) == 2]:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for x, y in negative:
        v = ("v", x, y)
        if x == y:
            return False
        cut = {a: ns - {v} for a, ns in adj.items() if a != v}
        if y in _reach(cut, x):
            return False
    return True


def test_reference_matches_membership_under_deletion():
    # each x also gets a truth-assignment reduct, its true atoms drawn from
    # a second stream so that the deletion inputs stay as they were
    rng, rng_true = random.Random(13), random.Random(14)
    checked = {c: [0, 0] for c in CYCLE_CLASSES}
    reducts = {c: [0, 0] for c in CYCLE_CLASSES}
    for i, p in enumerate(_golden_corpus()):
        cp = CompiledProgram(p)
        masks = {()} | {tuple(sorted(a for a in range(p.n_atoms) if rng.random() < 0.25))
                        for _ in range(5)}
        for x in sorted(masks):
            q = delete_atoms(p, x)
            true = [a for a in x if rng_true.random() < 0.5]
            r = core(ta_reduct(p, TruthAssignment({a: int(a in true) for a in x})))
            for c in CYCLE_CLASSES:
                want = reference_member(core(q), c)
                assert in_target_class(q, c) == want, f"program {i}, x={x}, {c}"
                assert verify_backdoor(p, x, c, "deletion") == want, f"program {i}, x={x}, {c}"
                assert (violation(cp, c, atom_mask(x)) == 0) == want, f"program {i}, x={x}, {c}"
                checked[c][want] += 1
                got = violation(cp, c, atom_mask(x), atom_mask(true)) == 0
                assert got == reference_member(r, c), f"program {i}, x={x}, true={true}, {c}"
                reducts[c][got] += 1
    # both verdicts occur often for every class
    assert all(no >= 100 and yes >= 100 for no, yes in checked.values()), checked
    assert all(no >= 100 and yes >= 100 for no, yes in reducts.values()), reducts


def test_golden_cycle_witnesses_are_cycles():
    count = 0
    for p, want in zip(_golden_corpus(), GOLDEN):
        for c, w in zip(CYCLE_CLASSES, want[1]):
            if w is not None:
                check_witness(p, c, witness_cycle(p, c))
                count += 1
    assert count >= 500
