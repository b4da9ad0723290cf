"""Reference implementations, used as oracles in the test suite.

The brute-force ones enumerate bitmask-encoded interpretations exhaustively
and are guarded against accidental use on large inputs.  The Horn ones (model
check, least model) read the rules' atom-id tuples, not the evaluator's masks.
The deletion-backdoor oracle shares the search's deletion_violation closure;
its independence comes from tests/test_membership_reference.py, which checks
that closure against the class definitions.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Collection, Iterable

from .depgraph import deletion_violation, in_target_class
from .program import CompiledProgram, Program, TargetClass, atom_mask, atoms_of
from .reducts import assignments_over, check_atoms, ta_reduct

BRUTE_ATOM_GUARD = 20
BRUTE_BACKDOOR_GUARD = 16


def is_model(p: Program, m: Iterable[int]) -> bool:
    """Classical satisfaction: every rule r has (H u B-) meeting M or B+ \\ M nonempty."""
    mm = frozenset(m)
    return not any(mm.isdisjoint(h) and mm.isdisjoint(neg) and mm.issuperset(pos)
                   for h, pos, neg in p.rule_parts)


def propagate_definite(definite: list[tuple[int, Collection[int]]]) -> frozenset[int]:
    """Least model of (head, positive body) pairs by counting unit propagation:
    a rule fires when its count of underived body atoms reaches zero."""
    count = [len(body) for _, body in definite]
    occ: dict[int, list[int]] = {}
    for i, (_, body) in enumerate(definite):
        for a in body:
            occ.setdefault(a, []).append(i)

    derived: set[int] = set()
    fired = deque(i for i, c in enumerate(count) if c == 0)
    while fired:
        h = definite[fired.popleft()][0]
        if h not in derived:
            derived.add(h)
            for i in occ.get(h, ()):
                count[i] -= 1
                if count[i] == 0:
                    fired.append(i)
    return frozenset(derived)


def least_model(p: Program) -> tuple[frozenset[int], bool]:
    """(lm, sat): the least model of the definite rules of a Horn program, by
    counting propagation in linear time, and whether it satisfies every
    constraint, as it does iff the program has a model.  Raises on non-Horn
    input."""
    if any(neg or len(h) > 1 for h, _, neg in p.rule_parts):
        raise ValueError("least_model requires a Horn program")
    lm = propagate_definite([(h[0], pos) for h, pos, _ in p.rule_parts if h])
    sat = not any(lm.issuperset(pos) for h, pos, _ in p.rule_parts if not h)
    return lm, sat


def _is_answer_mask(masks: tuple[tuple[int, int, int], ...], m: int,
                    full: int) -> bool:
    notm = full ^ m
    surv = []
    for h, bp, bn in masks:
        if bn & m:
            continue
        surv.append((h, bp))
        if not h & m and not bp & notm:
            return False
    if m == 0:
        return True  # no proper subsets
    sub = (m - 1) & m
    while True:
        nsub = full ^ sub
        for h, bp in surv:
            if not h & sub and not bp & nsub:
                break
        else:
            return False  # proper submodel of the reduct
        if sub == 0:
            return True
        sub = (sub - 1) & m


def brute_answer_sets(p: Program, max_atoms: int = BRUTE_ATOM_GUARD) -> set[frozenset[int]]:
    """All answer sets by checking every interpretation against its reduct."""
    n = p.n_atoms
    if n > max_atoms:
        raise ValueError(f"brute_answer_sets guard: {n} atoms > {max_atoms}")
    masks = CompiledProgram(p).rules
    full = (1 << n) - 1
    out: set[frozenset[int]] = set()
    for m in range(1 << n):
        if _is_answer_mask(masks, m, full):
            out.add(frozenset(atoms_of(m)))
    return out


def is_answer_set_direct(p: Program, m, max_atoms: int = BRUTE_ATOM_GUARD) -> bool:
    """Definitional answer set test for a single interpretation."""
    n = p.n_atoms
    if n > max_atoms:
        raise ValueError(f"is_answer_set_direct guard: {n} atoms > {max_atoms}")
    mask = atom_mask(check_atoms(p, m, "interpretation"))
    return _is_answer_mask(CompiledProgram(p).rules, mask, (1 << n) - 1)


def reducts_in_class(p: Program, x: frozenset[int], target: TargetClass) -> bool:
    """The definition of a strong backdoor: every truth-assignment reduct
    over the occurring atoms of x lies in the target class (unguarded)."""
    return all(in_target_class(ta_reduct(p, tau), target)
               for tau in assignments_over(x & p.occurring_atoms()))


def brute_min_backdoor(p: Program, target: TargetClass, kind: str,
                       max_atoms: int = BRUTE_BACKDOOR_GUARD) -> frozenset[int]:
    """Smallest backdoor by subset enumeration, size then lexicographic order;
    strong ones by their definition (all truth-assignment reducts), Horn too."""
    if kind not in ("strong", "deletion"):
        raise ValueError("kind must be one of ('strong', 'deletion')")
    occ = sorted(p.occurring_atoms())
    if len(occ) > max_atoms:
        raise ValueError(f"brute_min_backdoor guard: {len(occ)} atoms > {max_atoms}")
    viol = deletion_violation(CompiledProgram(p), target) if kind == "deletion" else None
    for size in range(len(occ) + 1):
        for combo in combinations(occ, size):
            if (not viol(atom_mask(combo))[0] if viol
                    else reducts_in_class(p, frozenset(combo), target)):
                return frozenset(combo)
    raise AssertionError("occurring atoms always form a backdoor")
