"""Evaluation through a strong Horn backdoor x, a block of truth assignments at a time.

Each truth assignment tau over x gives a Horn* reduct whose only possible answer
set is the least model L of its definite core: the candidates are M = L u tau^-1(1).
The program is compiled once, from the (head, pos, neg) atom ids of its rules,
with no per-rule mask: one pass drops the tautological rules and closes the definite
rules without atoms of x into a shared least model B, and only the live rules, whose
head B leaves open, reach the blocks.  A block evaluates the assignments
lo .. lo + w - 1 (w a power of two, lo a multiple of w) together: each atom holds one
int whose bit j says whether it lies in the candidate of lo + j, the i-th atom of x
holding bit i of lo + j, and a gate is a list of atoms that switch a rule off where
one is true.  A block runs two fixpoints:
- the closure, where a rule fires unless a head atom in x or a negative atom is true;
  only rules with their head inside x (constraints too) can then fail the model
  test, and each ORs its violations into the block's failed mask;
- the least model of the GL reduct P^M of each candidate M, which is minimal iff
  that least model holds all of M, unless a surviving rule of P^M keeps two head
  atoms (never in a normal program).  Only those candidates go through scan: the
  closures of one more evaluator, of P'_M, built from the live rules alone.
A Horn* program is the case x = {}: its one candidate is the least model of its core.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .program import Program, tautological
from .reducts import TruthAssignment, check_atoms
# not called here, but perfbench/tracer.py wraps these names in evaluate
from .oracle import is_model, propagate_definite  # noqa: F401

ENUM_GUARD = 30
MATERIALIZE_GUARD = 20
BLOCK = 1 << 13  # the most assignments one block evaluates, a power of two

_forked: dict[str, _Evaluator] = {}  # filled once per forked pool worker, by its initializer


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
    """A sequence of rules (head, pos, neg) of atom ids over n_atoms atoms, compiled
    for block evaluation through the strong Horn backdoor x, a frozenset of atom ids,
    less the atoms that no rule mentions (tautological rules count).

    Propagation rules are the live rules with a head outside B that leaves x or is
    their one head atom in x, kept as that atom, their body (positive, outside B)
    and two gates, None where the rule never fires: its head atoms in x and its
    negative body in the closure, and its negative body in P^M."""

    def __init__(self, n_atoms: int, rules, x: frozenset[int]):
        self.n_atoms = n_atoms
        x = self.x = x and x.intersection(chain.from_iterable(chain.from_iterable(rules)))
        self.dom = sorted(x)
        if len(self.dom) > ENUM_GUARD:
            raise ValueError(f"backdoor too large to enumerate (> {ENUM_GUARD} atoms)")
        # B, the least model of the definite rules without atoms of x, holds in every candidate
        definite, rest = [], []
        for r in rules:
            h, pos, neg = r
            if pos and tautological(h, pos, neg):
                continue
            if len(h) == 1 and not neg and x.isdisjoint(h) and x.isdisjoint(pos):
                definite.append((*h, pos, None, None))
            else:
                rest.append(r)
        in_base = [0] * n_atoms
        self._index(definite)
        self._fix([1] * len(definite), in_base, ())
        rest += [((a,), pos, ()) for a, pos, _, _ in definite if not in_base[a]]
        self.base = frozenset(a for a, _, _, _ in definite if in_base[a])
        # checks: (head + neg, body) of the rules that can fail the model test; disj: the
        # negative bodies of the live rules with two head atoms; live: (head, body, neg)
        props, self.checks, self.disj, self.live = [], [], [], []
        for h, pos, neg in rest:
            out = [a for a in h if a not in x]
            if len(out) > 1 or out and not x.issuperset(neg):
                raise ValueError("the atoms are not a strong horn backdoor: "
                                 "some truth assignment reduct is not Horn*")
            if in_base[out[0]] if out else any(in_base[a] for a in neg):
                continue  # the rule holds in every model of P^M, or it never fires nor fails
            if len(h) > 1:  # two head atoms, one in x at least, may both stay in P^M
                self.disj.append(neg)
            body = [a for a in pos if not in_base[a]]
            self.live.append((h, body, neg))
            if out:  # neg lies inside x
                props.append((out[0], body, neg, neg) if len(h) == 1 else
                             (out[0], body, [a for a in h if a in x] + [*neg], None))
            else:
                self.checks.append(([*h, *neg], body))
                if len(h) == 1:
                    props.append((*h, body, None, neg))
        self._index(props)
        self.derivable = sorted({*self.dom, *(h for h, _, _, _ in props)})

    def _index(self, props) -> None:
        self.props, self.occ = props, {}
        for i, (_, body, _, _) in enumerate(props):
            for a in body:
                self.occ.setdefault(a, []).append(i)
        self.facts = [i for i, (_, body, _, _) in enumerate(props) if not body]

    def _fix(self, fire: list[int], val: list[int], seeds) -> list[int]:
        """Close val under the rules: rule i adds fire[i] & AND(val of its body) to its head."""
        props, occ = self.props, self.occ
        stack, todo = list(seeds), self.facts
        while True:
            for i in todo:
                h, body, _, _ = props[i]
                v = fire[i]
                for b in body:
                    if not v:
                        break
                    v &= val[b]
                if v & ~val[h]:
                    val[h] |= v
                    stack.append(h)
            if not stack:
                return val
            todo = occ.get(stack.pop(), ())

    def block(self, lo: int, w: int) -> Iterator[tuple]:
        """Candidates and verdicts of the assignments lo .. lo + w - 1, in two steps:
        the atom values and the mask of the assignments whose candidate fails the model
        test, then, on demand, the masks of those that fail minimality by the least
        model of P^M and of those left to scan, both disjoint from the first."""
        full = (1 << w) - 1
        val = [0] * self.n_atoms
        for a in self.base:
            val[a] = full
        least = val.copy()
        # the i-th atom of x is bit i of lo + j: runs of 2^i zeros and ones, or
        # constant from 2^i = w on; no rule of the closure changes it
        for i, a in enumerate(self.dom):
            val[a] = (full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                      if 1 << i < w else full * (lo >> i & 1))

        def on(atoms) -> int:  # where no atom of atoms is true
            v = full
            for a in atoms:
                v &= ~val[a]
            return v

        self._fix([0 if g is None else on(g) for _, _, g, _ in self.props], val, self.dom)
        failed = scan = nonmin = 0
        for g, pos in self.checks:
            v = on(g)
            for a in pos:
                v &= val[a]
            failed |= v
        yield val, failed
        for g in self.disj:
            scan |= on(g)
        scan &= ~failed
        self._fix([0 if g is None else on(g) for _, _, _, g in self.props], least, ())
        for a in self.derivable:
            nonmin |= val[a] & ~least[a]
        yield nonmin & ~(failed | scan), scan

    def candidate(self, val: list[int], j: int) -> frozenset[int]:
        """The atoms outside B of the candidate of bit j of a block with atom values val."""
        return frozenset(a for a in self.derivable if val[a] >> j & 1)

    def scan(self, mm: frozenset[int]) -> bool:
        """Minimality of the model B u mm, through the closures of one more evaluator.

        Its program P'_mm holds the live rules of P^mm whose positive body misses
        x - mm, minus x - mm in their heads.  B is left out: the rules that derive it
        pass into P'_mm unchanged, so it lies in every model of P'_mm, and the live
        bodies already skip it.  mm is minimal unless a candidate through the backdoor
        mm n x models P'_mm and is a proper subset of B u mm."""
        out = self.x - mm
        rules = [(h if out.isdisjoint(h) else [a for a in h if a not in out], pos, ())
                 for h, pos, neg in self.live if mm.isdisjoint(neg) and out.isdisjoint(pos)]
        sub = _Evaluator(self.n_atoms, rules, self.x & mm)
        w = min(1 << len(sub.dom), BLOCK)
        always_miss = -1 if mm - self.base - sub.base.union(sub.derivable) else 0
        for lo in range(0, 1 << len(sub.dom), w):
            val, failed = next(sub.block(lo, w))
            inside, miss = ~failed & (1 << w) - 1, always_miss
            for a in sub.derivable:
                if a in mm:
                    miss |= ~val[a]
                else:
                    inside &= ~val[a]
            if inside & miss:
                return False
        return True


def _compile(p: Program, x) -> _Evaluator:
    """p's rules compiled once, through the backdoor x over p's atom table."""
    return _Evaluator(p.n_atoms, p.rule_parts, check_atoms(p, x, "backdoor"))


def candidate_sets(p: Program, x) -> tuple[Candidate, ...]:
    """All candidates in truth assignment order (mask bit i = i-th domain atom)."""
    ev = _compile(p, x)
    if len(ev.dom) > MATERIALIZE_GUARD:
        raise ValueError(f"refusing to materialize 2^{len(ev.dom)} candidates")
    total = 1 << len(ev.dom)
    w = min(total, BLOCK)
    out = []
    for lo in range(0, total, w):
        val = next(ev.block(lo, w))[0]
        for j in range(w):
            tau = TruthAssignment({a: val[a] >> j & 1 for a in ev.dom})
            combined = ev.base | ev.candidate(val, j)
            out.append(Candidate(tau, combined - tau.true_atoms, combined))
    return tuple(out)


def check_answer_set(p: Program, x, m) -> bool:
    """Is m an answer set of p?  Fixed-parameter in |x| for Horn backdoors x.

    m must be the candidate of its own assignment over x, model p and be minimal:
    a block of width 1.
    """
    ev = _compile(p, x)
    mm = check_atoms(p, m, "interpretation")
    lo = sum(1 << i for i, a in enumerate(ev.dom) if a in mm)
    (val, failed), (nonmin, scan) = ev.block(lo, 1)
    return (not failed | nonmin and ev.base | ev.candidate(val, 0) == mm
            and (not scan or ev.scan(mm)))


def _settle(ev: _Evaluator, lo: int, hi: int) -> tuple[int, int, list[frozenset[int]]]:
    """Model failures, minimality failures and answer sets less B over [lo, hi), by block."""
    w = min(hi - lo, BLOCK)
    failed_model, failed_minimal, accepted = 0, 0, []
    for start in range(lo, hi, w):
        (val, failed), (nonmin, scan) = ev.block(start, w)
        failed_model += failed.bit_count()
        failed_minimal += nonmin.bit_count()
        for j, bit in enumerate(reversed(bin(((1 << w) - 1) & ~(failed | nonmin)))):
            if bit != "1":
                continue
            m = ev.candidate(val, j)
            if scan >> j & 1 and not ev.scan(m):
                failed_minimal += 1
            else:
                accepted.append(m)
    return failed_model, failed_minimal, accepted


def _forked_settle(lo: int, hi: int):
    return _settle(_forked["ev"], lo, hi)


def answer_sets(p: Program, x, jobs: int = 1) -> EvalReport:
    """Evaluate p through the backdoor x, streaming over blocks of truth assignments.

    Candidates are never materialized as a whole.  jobs > 1 forks workers (at
    most one per CPU) over contiguous runs of blocks, only when there is more
    than one block of BLOCK assignments, and aggregates in range order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ev = _compile(p, x)
    total = 1 << len(ev.dom)
    blocks = total // BLOCK
    jobs = min(jobs, os.cpu_count() or 1, blocks)
    if jobs <= 1:
        parts = [_settle(ev, 0, total)]
    else:
        bounds = [blocks * i // (jobs * 4) * BLOCK for i in range(jobs * 4 + 1)]
        ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs, _forked.__setitem__, ("ev", ev)) as pool:
            parts = pool.starmap(_forked_settle, ranges)
    return EvalReport(frozenset(ev.dom), frozenset(ev.base | s for *_, sets in parts for s in sets),
                      total, sum(part[0] for part in parts), sum(part[1] for part in parts))


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
