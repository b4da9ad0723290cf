"""Evaluation through a strong Horn backdoor x, with the program compiled once per x.

Each truth assignment tau over x gives a Horn* reduct whose only possible answer
set is the least model L of its definite core: the candidates are M = L u tau^-1(1).
The rules without atoms of x are closed once into a shared least model B; per tau
only the surviving rules that touch x are switched on and propagation goes on from
B.  Only rules with their head inside x (constraints too) can fail the model test.
If no surviving rule of the GL reduct P^M keeps two head atoms (true of every normal
program), M is minimal iff it is the least model of P^M's definite part, one more
propagation; otherwise subsets of M n x are scanned, one Horn propagation each.
A Horn* program is the case x = {}: its one candidate is the least model of its core.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from itertools import combinations

from .horn import propagate_definite
from .program import Program, rule_flags
from .reducts import TruthAssignment, check_atoms
# not called here, but perfbench/tracer.py wraps evaluate.is_model by this name
from .horn import is_model  # noqa: F401

ENUM_GUARD = 30
MATERIALIZE_GUARD = 20

ACCEPTED, FAILED_MODEL, FAILED_MINIMAL = range(3)


@dataclass(frozen=True)
class Candidate:
    """One candidate per truth assignment: reduct answer set and its lift."""

    tau: TruthAssignment
    m_reduct: frozenset[int]
    combined: frozenset[int]


@dataclass(frozen=True)
class EvalReport:
    backdoor: frozenset[int]
    answer_sets: frozenset[frozenset[int]]
    candidates_total: int
    failed_model: int
    failed_minimal: int

    @property
    def candidates_rejected(self) -> int:
        return self.failed_model + self.failed_minimal


class _Evaluator:
    """p compiled for evaluation through the strong Horn backdoor x.

    Propagation rules are the non-tautological rules whose head leaves x and
    those with one head atom inside x, each with a counter of its positive
    body plus one while it is switched off.  Mask bit i stands for dom[i].
    """

    def __init__(self, p: Program, x):
        self.xset = check_atoms(p, x, "backdoor") & p.occurring_atoms()
        self.dom = sorted(self.xset)
        if len(self.dom) > ENUM_GUARD:
            raise ValueError(f"backdoor too large to enumerate (> {ENUM_GUARD} atoms)")
        bit = {a: 1 << i for i, a in enumerate(self.dom)}

        def mask(atoms) -> int:
            return sum(bit[a] for a in atoms if a in bit)

        self.rules = [r for r in p.rules if not rule_flags(r).tautological]
        self.heads: list[int] = []
        self.occ: list[list[int]] = [[] for _ in range(p.n_atoms)]
        self.gated: list[tuple[int, int, int]] = []  # (rule, head mask, neg mask)
        self.counts: list[int] = []
        checks, free = [], []
        for r in self.rules:
            i, hm, nm = len(self.heads), mask(r.head), mask(r.neg_body)
            if r.head <= self.xset:
                checks.append((hm, mask(r.pos_body), nm, r.pos_body - self.xset,
                               r.neg_body - self.xset, i if len(r.head) == 1 else None))
                if len(r.head) != 1:
                    continue
            elif len(r.head - self.xset) != 1 or r.neg_body - self.xset:
                raise ValueError("the atoms are not a strong horn backdoor: "
                                 "some truth assignment reduct is not Horn*")
            else:
                (self.gated if hm | nm else free).append((i, hm, nm))
            for a in r.pos_body:
                self.occ[a].append(i)
            self.heads.extend(r.head - self.xset or r.head)  # its one head atom
            self.counts.append(len(r.pos_body) + 1)
        # B: the rules that mention no atom of x, closed once and for all
        self.base: frozenset[int] = frozenset()
        self.base = frozenset(self._close([i for i, _, _ in free], [], self.counts))
        # (head, pos, neg masks, pos and neg atoms outside x and B, rule or None);
        # a negative body meeting B satisfies the rule and drops it from P^M
        self.checks = [(hm, pm, nm, pos - self.base, neg, i)
                       for hm, pm, nm, pos, neg, i in checks if self.base.isdisjoint(neg)]

    def _close(self, on: list[int], seeds: list[int], counts=None) -> set[int]:
        """Atoms derived outside B once the rules `on` are switched on and the
        atoms `seeds` are true, from a copy of the counters after B by default."""
        heads, occ, base = self.heads, self.occ, self.base
        counts = self.counts.copy() if counts is None else counts
        for i in on:
            counts[i] -= 1
        stack = seeds + [heads[i] for i in on if not counts[i]]
        new: set[int] = set()
        while stack:
            a = stack.pop()
            if a in new or a in base:
                continue
            new.add(a)
            for i in occ[a]:
                counts[i] -= 1
                if not counts[i]:
                    stack.append(heads[i])
        return new

    def true_atoms(self, t: int) -> list[int]:
        return [a for i, a in enumerate(self.dom) if t >> i & 1]

    def closure(self, t: int) -> set[int]:
        """M \\ B for the candidate M = L u tau^-1(1) of the assignment t."""
        on = [i for i, hm, nm in self.gated if not (hm | nm) & t]
        return self._close(on, self.true_atoms(t))

    def models(self, t: int, new: set[int]) -> bool:
        """Does the candidate B u new of t satisfy the rules with head inside x?"""
        for hm, pm, nm, pos, neg, _ in self.checks:
            if not (hm | nm) & t and not pm & ~t and pos <= new and new.isdisjoint(neg):
                return False
        return True

    def minimal(self, t: int, new: set[int]) -> bool:
        """Is the model M = B u new of p, with M n x = tau^-1(1), minimal for P^M?"""
        on = []
        for i, hm, nm in self.gated:
            if not nm & t:
                if hm:  # the rule keeps two head atoms in P^M
                    return self.scan(self.base | new, None)
                on.append(i)
        for hm, _, nm, _, neg, i in self.checks:
            if not nm & t and new.isdisjoint(neg):
                if hm & (hm - 1):
                    return self.scan(self.base | new, None)
                if i is not None:
                    on.append(i)
        return self._close(on, []) == new

    def scan(self, mm: frozenset[int], order) -> bool:
        """Minimality of the model mm by scanning subsets X1 of mm n x.

        The default order is size-then-lexicographic; the scan stops at the
        first X1 that exposes a proper submodel of the GL reduct.
        """
        # non-tautological GL reduct survivors; their erased negative bodies and
        # the dropped tautological rules are satisfied by every subset of mm
        surv = [(r.head, r.pos_body) for r in self.rules if not r.neg_body & mm]
        if order is None:
            inter = sorted(mm & self.xset)
            order = (frozenset(c) for size in range(len(inter) + 1)
                     for c in combinations(inter, size))
        m_minus_x = mm - self.xset
        return not any(_submodel_at(surv, self.xset, mm, m_minus_x, x1) for x1 in order)

    def run(self, lo: int, hi: int):
        """(t, M \\ B, verdict) for every assignment t in [lo, hi), in order."""
        for t in range(lo, hi):
            new = self.closure(t)
            yield t, new, (FAILED_MODEL if not self.models(t, new) else
                           FAILED_MINIMAL if not self.minimal(t, new) else ACCEPTED)


def candidate_sets(p: Program, x) -> tuple[Candidate, ...]:
    """All candidates in truth assignment order (mask bit i = i-th domain atom)."""
    ev = _Evaluator(p, x)
    if len(ev.dom) > MATERIALIZE_GUARD:
        raise ValueError(f"refusing to materialize 2^{len(ev.dom)} candidates")
    out = []
    for t, new, _ in ev.run(0, 1 << len(ev.dom)):
        tau = TruthAssignment({a: t >> i & 1 for i, a in enumerate(ev.dom)})
        combined = ev.base | new
        out.append(Candidate(tau, combined.difference(ev.true_atoms(t)), combined))
    return tuple(out)


def check_answer_set(p: Program, x, m) -> bool:
    """Is m an answer set of p?  Fixed-parameter in |x| for Horn backdoors x.

    m must be the candidate of its own assignment over x, model p and be minimal.
    """
    ev = _Evaluator(p, x)
    mm = check_atoms(p, m, "interpretation")
    t = sum(1 << i for i, a in enumerate(ev.dom) if a in mm)
    new = ev.closure(t)
    return ev.base | new == mm and ev.models(t, new) and ev.minimal(t, new)


def _submodel_at(surv, xx, mm, m_minus_x, x1) -> bool:
    """Does the Horn propagation at X1 expose a proper submodel of the reduct?"""
    # a strong Horn backdoor leaves at most one head atom outside xx
    lm = propagate_definite([(a, bp - x1) for h, bp in surv if not h & x1 for a in h - xx])
    cand = lm | x1
    return lm <= m_minus_x and cand != mm and all(h & cand or bp - cand for h, bp in surv)


def _tally(ev: _Evaluator, lo: int, hi: int) -> tuple[int, int, list[frozenset[int]]]:
    """Model failures, minimality failures and answer sets over [lo, hi)."""
    failed = [0, 0, 0]
    accepted = []
    for _, new, verdict in ev.run(lo, hi):
        failed[verdict] += 1
        if verdict == ACCEPTED:
            accepted.append(ev.base | new)
    return failed[FAILED_MODEL], failed[FAILED_MINIMAL], accepted


def answer_sets(p: Program, x, jobs: int = 1) -> EvalReport:
    """Evaluate p through the backdoor x, streaming over truth assignments.

    Candidates are never materialized as a whole; jobs > 1 forks workers over
    contiguous assignment ranges and aggregates in range order.
    """
    ev = _Evaluator(p, x)
    total = 1 << len(ev.dom)
    if jobs <= 1 or total < 256:
        parts = [_tally(ev, 0, total)]
    else:
        jobs = min(jobs, total)
        bounds = [total * i // (jobs * 4) for i in range(jobs * 4 + 1)]
        ranges = [(ev, lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs) as pool:
            parts = pool.starmap(_tally, ranges)
    sets = frozenset(s for _, _, chunk in parts for s in chunk)
    return EvalReport(frozenset(ev.dom), sets, total,
                      sum(part[0] for part in parts), sum(part[1] for part in parts))


def horn_star_answer_sets(p: Program) -> set[frozenset[int]]:
    """Answer sets of a Horn* program: evaluation through the empty backdoor.

    At most one exists; raises ValueError when p is not Horn*.
    """
    return set(answer_sets(p, ()).answer_sets)


REASON_MODES = ("consistency", "brave", "cautious", "count", "enumerate")


def mode_result(sets, mode: str, atom: int | None = None):
    """The answer of one reasoning mode over a collection of answer sets.

    consistency -> bool; count -> int; enumerate -> list of answer sets sorted
    by their sorted id-vectors; brave -> atom in some answer set; cautious ->
    atom in every answer set (vacuously true when there are none).
    """
    if mode not in REASON_MODES:
        raise ValueError(f"mode must be one of {REASON_MODES}")
    if mode == "consistency":
        return bool(sets)
    if mode == "count":
        return len(sets)
    if mode == "enumerate":
        return sorted(sets, key=sorted)
    if atom is None:
        raise ValueError(f"mode {mode!r} needs an atom")
    if mode == "brave":
        return any(atom in s for s in sets)
    return all(atom in s for s in sets)
