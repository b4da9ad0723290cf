"""Evaluation through a strong Horn backdoor x, a block of truth assignments at a time.

Each truth assignment tau over x gives a Horn* reduct whose only possible answer
set is the least model L of its definite core: the candidates are M = L u tau^-1(1).
The rules without atoms of x are closed once into a shared least model B.  The
assignments lo .. lo + w - 1 (w a power of two, lo a multiple of w) are then
evaluated together: each atom holds one int whose bit j says whether it lies in
the candidate of assignment lo + j, so one rule step serves all w of them.  The
i-th atom of x has a fixed column, bit i of lo + j.  A block runs two fixpoints:
- the closure, where a rule fires unless a head or negative atom of x is true;
  only rules with their head inside x (constraints too) can then fail the model
  test, and each ORs its violations into the block's failed mask;
- the least model of the GL reduct P^M of each candidate M, which is minimal iff
  that least model holds all of M, unless a surviving rule of P^M keeps two head
  atoms (never in a normal program).  Those assignments form the scan mask, and
  only their candidates M go through scan: the blocks of one more evaluator, of
  the reduct P'_M through the backdoor M n x.
A Horn* program is the case x = {}: its one candidate is the least model of its core.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from .program import Program, Rule, rule_flags
from .reducts import TruthAssignment, check_atoms
# not called here, but perfbench/tracer.py wraps these names in evaluate
from .horn import is_model, propagate_definite  # noqa: F401

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
    """p compiled for block evaluation through the strong Horn backdoor x.

    Propagation rules are the non-tautological rules whose head leaves x and
    those with one head atom inside x.  Each is kept as its one head atom, its
    positive body outside B and two gates, None where the rule never fires: in
    the closure the domain indices (i stands for dom[i]) whose truth switches
    it off, in P^M those indices and the atoms outside x whose truth drop it.
    """

    def __init__(self, p: Program, x):
        self.p, self.xset = p, check_atoms(p, x, "backdoor") & p.occurring_atoms()
        self.dom = sorted(self.xset)
        if len(self.dom) > ENUM_GUARD:
            raise ValueError(f"backdoor too large to enumerate (> {ENUM_GUARD} atoms)")
        idx = {a: i for i, a in enumerate(self.dom)}
        self.rules = [r for r in p.rules if not rule_flags(r).tautological]
        # checks: (head | neg indices, pos indices, pos and neg outside x), the
        # rules that can fail the model test; disj: (neg indices, neg outside x)
        # of the rules that keep two head atoms in P^M wherever they survive
        props, self.checks, self.disj = [], [], []
        for r in self.rules:
            hx = tuple(idx[a] for a in r.head if a in idx)
            nx = tuple(idx[a] for a in r.neg_body if a in idx)
            neg = r.neg_body - self.xset
            if r.head <= self.xset:
                self.checks.append((hx + nx, [idx[a] for a in r.pos_body if a in idx],
                                    r.pos_body - self.xset, neg))
                if len(hx) == 1:
                    props.append((*r.head, r.pos_body, None, (nx, neg)))
                elif hx:
                    self.disj.append((nx, neg))
            elif len(r.head - self.xset) != 1 or neg:
                raise ValueError("the atoms are not a strong horn backdoor: "
                                 "some truth assignment reduct is not Horn*")
            elif hx:
                props.append((*(r.head - self.xset), r.pos_body, hx + nx, None))
                self.disj.append((nx, neg))
            else:
                props.append((*r.head, r.pos_body, nx, (nx, neg)))
        # B: the rules that mention no atom of x, closed once and for all; its
        # atoms start out true in every block and leave the bodies
        self.in_base = [0] * p.n_atoms
        self._index(props)
        self._fix([int(g == ()) for _, _, g, _ in props], self.in_base, ())
        self.base = frozenset(a for a, v in enumerate(self.in_base) if v)
        self._index([(h, pos - self.base, g, m) for h, pos, g, m in props])
        self.derivable = sorted(self.xset.union(h for h, _, _, _ in props) - self.base)

    def _index(self, props) -> None:
        self.props, self.occ = props, [[] for _ in range(len(self.in_base))]
        for i, (_, body, _, _) in enumerate(props):
            for a in body:
                self.occ[a].append(i)
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
            todo = occ[stack.pop()]

    def block(self, lo: int, w: int) -> tuple[list[int], int, int, int]:
        """Candidates and verdicts of the assignments lo .. lo + w - 1.

        Returns the atom values and three disjoint masks: the assignments
        whose candidate fails the model test, fails minimality by the least
        model of P^M, or is left to scan.
        """
        full = (1 << w) - 1
        # bit i of lo + j: runs of 2^i zeros and ones, or constant from 2^i = w on
        cols = [full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                if 1 << i < w else full * (lo >> i & 1) for i in range(len(self.dom))]
        val = [full * v for v in self.in_base]
        least = val.copy()

        def on(xs, negs=()) -> int:  # where no atom of xs or negs is true
            v = full
            for i in xs:
                v &= ~cols[i]
            for a in negs:
                v &= ~val[a]
            return v

        for a, c in zip(self.dom, cols):
            val[a] = c
        self._fix([0 if g is None else on(g) for _, _, g, _ in self.props], val, self.dom)
        failed = scan = nonmin = 0
        for g, px, pos, neg in self.checks:
            v = on(g, neg)
            for i in px:
                v &= cols[i]
            for a in pos:
                v &= val[a]
            failed |= v
        for nx, neg in self.disj:
            scan |= on(nx, neg)
        scan &= ~failed
        self._fix([0 if m is None else on(*m) for _, _, _, m in self.props], least, ())
        for a in self.derivable:
            nonmin |= val[a] & ~least[a]
        return val, failed, nonmin & ~(failed | scan), scan

    def candidate(self, val: list[int], j: int) -> frozenset[int]:
        """The candidate of bit j of a block with atom values val."""
        return self.base.union(a for a in self.derivable if val[a] >> j & 1)

    def scan(self, mm: frozenset[int]) -> bool:
        """Minimality of the model mm, through the blocks of one more evaluator.

        Its program P'_mm keeps the rules of P^mm whose positive body misses x - mm, minus
        x - mm in their heads (the rest hold in every subset of mm); mm is minimal unless
        some candidate through the backdoor mm n x models P'_mm and is a proper subset of mm."""
        out = self.xset - mm
        sub = _Evaluator(self.p.with_rules(
            Rule(r.head - out, r.pos_body, frozenset()) for r in self.rules
            if not r.neg_body & mm and not r.pos_body & out), mm & self.xset)
        w = min(1 << len(sub.dom), BLOCK)
        always_miss = -1 if mm - sub.base.union(sub.derivable) else 0
        for lo in range(0, 1 << len(sub.dom), w):
            val, failed = sub.block(lo, w)[:2]
            inside, miss = ~failed & (1 << w) - 1, always_miss
            for a in sub.derivable:
                if a in mm:
                    miss |= ~val[a]
                else:
                    inside &= ~val[a]
            if inside & miss:
                return False
        return True


def candidate_sets(p: Program, x) -> tuple[Candidate, ...]:
    """All candidates in truth assignment order (mask bit i = i-th domain atom)."""
    ev = _Evaluator(p, x)
    if len(ev.dom) > MATERIALIZE_GUARD:
        raise ValueError(f"refusing to materialize 2^{len(ev.dom)} candidates")
    total = 1 << len(ev.dom)
    w = min(total, BLOCK)
    out = []
    for lo in range(0, total, w):
        val = ev.block(lo, w)[0]
        for j in range(w):
            tau = TruthAssignment({a: lo + j >> i & 1 for i, a in enumerate(ev.dom)})
            combined = ev.candidate(val, j)
            out.append(Candidate(tau, combined - tau.true_atoms, combined))
    return tuple(out)


def check_answer_set(p: Program, x, m) -> bool:
    """Is m an answer set of p?  Fixed-parameter in |x| for Horn backdoors x.

    m must be the candidate of its own assignment over x, model p and be minimal:
    a block of width 1.
    """
    ev = _Evaluator(p, x)
    mm = check_atoms(p, m, "interpretation")
    val, failed, nonmin, scan = ev.block(sum(1 << i for i, a in enumerate(ev.dom) if a in mm), 1)
    return (not failed | nonmin and ev.candidate(val, 0) == mm
            and (not scan or ev.scan(mm)))


def _settle(ev: _Evaluator, lo: int, hi: int) -> tuple[int, int, list[frozenset[int]]]:
    """Model failures, minimality failures and answer sets over [lo, hi), block by block."""
    w = min(hi - lo, BLOCK)
    failed_model = failed_minimal = 0
    accepted = []
    for start in range(lo, hi, w):
        val, failed, nonmin, scan = ev.block(start, w)
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
    ev = _Evaluator(p, x)
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
