"""Evaluation through a strong Horn backdoor x, a block of truth assignments at a time.

The program is compiled once, from the (head, pos, neg) rule masks of
CompiledProgram, into an evaluator; no Program is built after the parse.
Each truth assignment tau over x gives a Horn* reduct whose only possible answer
set is the least model L of its definite core: the candidates are M = L u tau^-1(1).
The definite rules without atoms of x are closed first, in one linear pass, into
a shared least model B; then only the live rules, whose head B leaves open, are
compiled, and a block visits only those, at a cost set by the backdoor.  The
assignments lo .. lo + w - 1 (w a power of two, lo a multiple of w) are then
evaluated together: each atom holds one int whose bit j says whether it lies in
the candidate of assignment lo + j, so one rule step serves all w of them.  The
i-th atom of x holds bit i of lo + j all block long (no rule with its head in x
fires in the closure), and every gate is a list of atoms read from these values:
a rule passes it where none is true.  A block runs two fixpoints:
- the closure, where a rule fires unless a head atom in x or a negative atom is true;
  only rules with their head inside x (constraints too) can then fail the model
  test, and each ORs its violations into the block's failed mask;
- the least model of the GL reduct P^M of each candidate M, which is minimal iff
  that least model holds all of M, unless a surviving rule of P^M keeps two head
  atoms (never in a normal program).  Those assignments form the scan mask, and
  only their candidates M go through scan: the blocks of one more evaluator, of
  the reduct P'_M through the backdoor M n x, whose rule masks scan derives by
  masking the compiled rules of the first.
A Horn* program is the case x = {}: its one candidate is the least model of its core.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from .program import CompiledProgram, Program, atom_mask, atoms_of
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
    """Rule masks (head, pos, neg) over n_atoms atoms, compiled for block
    evaluation through the strong Horn backdoor mask x.

    Tautological rules are dropped, and x keeps only atoms that the rules
    mention.  Propagation rules are the kept rules with a head outside B that
    leaves x or is their one head atom in x, kept as that atom, their positive
    body outside B and two gates, None where the rule never fires: the atoms
    whose value switches it off in the closure (its head atoms in x and its
    negative body) and in P^M (its negative body, read from the candidate).
    """

    def __init__(self, n_atoms: int, rules, x: int):
        occurring = 0
        for h, pos, neg in rules:
            occurring |= h | pos | neg
        x = self.x = x & occurring
        self.n_atoms, self.dom = n_atoms, atoms_of(x)
        if len(self.dom) > ENUM_GUARD:
            raise ValueError(f"backdoor too large to enumerate (> {ENUM_GUARD} atoms)")
        self.rules = [r for r in rules if not r[1] & (r[0] | r[2])]
        # B: the least model of the definite rules that mention no atom of x; its
        # atoms start out true in every block, leave the bodies and drop the rules they head
        in_base = self.in_base = [0] * n_atoms
        self._index([(h.bit_length() - 1, atoms_of(pos), None, None) for h, pos, neg in self.rules
                     if h and not h & (h - 1) and not (h | pos) & x and not neg])
        self._fix([1] * len(self.props), in_base, ())
        self.base = frozenset(a for a, v in enumerate(in_base) if v)
        held, keep = atom_mask(self.base), ~x
        # checks: (head | neg, pos outside B) of the rules that can fail the model
        # test; disj: the negative bodies of the rules that keep two head atoms in P^M
        props, self.checks, self.disj = [], [], []
        for h, pos, neg in self.rules:
            h_out, hx = h & keep, h & x
            if h_out & (h_out - 1) or h_out and neg & keep:
                raise ValueError("the atoms are not a strong horn backdoor: "
                                 "some truth assignment reduct is not Horn*")
            if h_out & held:  # the rule holds; it can only keep a second head atom, in x
                if hx:
                    self.disj.append(atoms_of(neg))
                continue
            negs, body = atoms_of(neg), atoms_of(pos & ~held)
            if h & (h - 1):  # two head atoms, one in x at least
                self.disj.append(negs)
            if h_out:  # neg lies inside x, or the test above raised
                props.append((h_out.bit_length() - 1, body, atoms_of(hx | neg), None if hx else negs))
            else:
                self.checks.append((atoms_of(h | neg), body))
                if h and not h & (h - 1):
                    props.append((h.bit_length() - 1, body, None, negs))
        self._index(props)
        self.derivable = sorted({*self.dom, *(h for h, _, _, _ in props)})

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
        val = [full * v for v in self.in_base]
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
        for g in self.disj:
            scan |= on(g)
        scan &= ~failed
        self._fix([0 if g is None else on(g) for _, _, _, g in self.props], least, ())
        for a in self.derivable:
            nonmin |= val[a] & ~least[a]
        return val, failed, nonmin & ~(failed | scan), scan

    def candidate(self, val: list[int], j: int) -> frozenset[int]:
        """The candidate of bit j of a block with atom values val."""
        return self.base.union(a for a in self.derivable if val[a] >> j & 1)

    def scan(self, mm: frozenset[int]) -> bool:
        """Minimality of the model mm, through the blocks of one more evaluator.

        Its program P'_mm is masked from this evaluator's rules: those of P^mm whose
        positive body misses x - mm, minus x - mm in their heads (the rest hold in every
        subset of mm); mm is minimal unless some candidate through the backdoor mm n x
        models P'_mm and is a proper subset of mm."""
        m = atom_mask(mm)
        out = self.x ^ (self.x & m)
        sub = _Evaluator(self.n_atoms, [(h ^ (h & out), pos, 0) for h, pos, neg in self.rules
                                        if not neg & m and not pos & out], m & self.x)
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


def _compile(p: Program, x) -> _Evaluator:
    """p's rule masks compiled once, through the backdoor x over p's atom table."""
    return _Evaluator(p.n_atoms, CompiledProgram(p).rules,
                      atom_mask(check_atoms(p, x, "backdoor")))


def candidate_sets(p: Program, x) -> tuple[Candidate, ...]:
    """All candidates in truth assignment order (mask bit i = i-th domain atom)."""
    ev = _compile(p, x)
    if len(ev.dom) > MATERIALIZE_GUARD:
        raise ValueError(f"refusing to materialize 2^{len(ev.dom)} candidates")
    total = 1 << len(ev.dom)
    w = min(total, BLOCK)
    out = []
    for lo in range(0, total, w):
        val = ev.block(lo, w)[0]
        for j in range(w):
            tau = TruthAssignment({a: val[a] >> j & 1 for a in ev.dom})
            combined = ev.candidate(val, j)
            out.append(Candidate(tau, combined - tau.true_atoms, combined))
    return tuple(out)


def check_answer_set(p: Program, x, m) -> bool:
    """Is m an answer set of p?  Fixed-parameter in |x| for Horn backdoors x.

    m must be the candidate of its own assignment over x, model p and be minimal:
    a block of width 1.
    """
    ev = _compile(p, x)
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
