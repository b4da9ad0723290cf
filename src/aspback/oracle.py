"""Brute-force reference implementations, used as oracles in the test suite.

Everything here enumerates exhaustively over bitmask-encoded interpretations
and is guarded against accidental use on large inputs.
"""

from __future__ import annotations

from itertools import combinations

from .detect import verify_backdoor
from .program import (CompiledProgram, Program, TargetClass, atom_mask,
                      atoms_of, in_target_class)
from .reducts import assignments_over, check_atoms, ta_reduct

BRUTE_ATOM_GUARD = 20
BRUTE_BACKDOOR_GUARD = 16


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
    occ = sorted(p.occurring_atoms())
    if len(occ) > max_atoms:
        raise ValueError(f"brute_min_backdoor guard: {len(occ)} atoms > {max_atoms}")
    for size in range(len(occ) + 1):
        for combo in combinations(occ, size):
            if (reducts_in_class(p, frozenset(combo), target) if kind == "strong"
                    else verify_backdoor(p, combo, target, kind)):
                return frozenset(combo)
    raise AssertionError("occurring atoms always form a backdoor")
