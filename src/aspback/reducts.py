"""Program reducts: Gelfond-Lifschitz and truth-assignment reducts, deletion."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .program import Program, Rule


class TruthAssignment:
    """Partial two-valued assignment over a set of atom ids."""

    __slots__ = ("_vals",)

    def __init__(self, values: Mapping[int, int]):
        for a, v in values.items():
            if a < 0:
                raise ValueError(f"atom id {a} must be nonnegative")
            if v not in (0, 1):
                raise ValueError(f"truth value for atom {a} must be 0 or 1")
        self._vals = dict(values)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._vals)

    @property
    def true_atoms(self) -> frozenset[int]:
        return frozenset(a for a, v in self._vals.items() if v == 1)

    @property
    def false_atoms(self) -> frozenset[int]:
        return frozenset(a for a, v in self._vals.items() if v == 0)

    def __getitem__(self, atom: int) -> int:
        return self._vals[atom]

    def restrict(self, atoms: Iterable[int]) -> "TruthAssignment":
        keep = set(atoms)
        return TruthAssignment({a: v for a, v in self._vals.items() if a in keep})

    def items(self):
        return self._vals.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthAssignment):
            return NotImplemented
        return self._vals == other._vals

    def __hash__(self) -> int:
        return hash(frozenset(self._vals.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v}" for a, v in sorted(self._vals.items()))
        return f"TruthAssignment({{{inner}}})"


def assignments_over(atoms: Iterable[int]) -> Iterator[TruthAssignment]:
    """All 2^k assignments over the given atoms.

    Deterministic order: atoms sorted ascending; assignment m has bit j of m
    giving the value of the j-th smallest atom, for m = 0 .. 2^k - 1.
    """
    order = sorted(set(atoms))
    for m in range(1 << len(order)):
        yield TruthAssignment({a: (m >> j) & 1 for j, a in enumerate(order)})


def check_atoms(p: Program, atoms: Iterable[int], what: str) -> frozenset[int]:
    out = frozenset(atoms)
    for a in out:
        if not (0 <= a < p.n_atoms):
            raise ValueError(f"unknown atom id {a} in {what}")
    return out


def gl_reduct(p: Program, m: Iterable[int]) -> Program:
    """Gelfond-Lifschitz reduct p^M.

    Drops every rule whose negative body meets M, then erases the negative
    bodies of the survivors.  The result is negation-free.
    """
    mm = check_atoms(p, m, "interpretation")
    kept = []
    for r in p.rules:
        if r.neg_body & mm:
            continue
        kept.append(Rule(r.head, r.pos_body, frozenset()))
    return p.with_rules(kept)


def ta_reduct(p: Program, tau: TruthAssignment) -> Program:
    """Truth-assignment reduct of p under tau (domain X).

    In order: (1) drop rules whose head meets tau^-1(1) or lies inside X;
    (2) drop rules whose positive body meets tau^-1(0); (3) drop rules whose
    negative body meets tau^-1(1); (4) erase X-atoms from the survivors.
    tau is restricted to X intersected with the atom table internally.
    """
    tau = tau.restrict(range(p.n_atoms))
    x = tau.domain
    t1 = tau.true_atoms
    t0 = tau.false_atoms
    kept = []
    for r in p.rules:
        if (r.head & t1) or (r.head <= x):
            continue
        if r.pos_body & t0:
            continue
        if r.neg_body & t1:
            continue
        kept.append(Rule(r.head - x, r.pos_body - x, r.neg_body - x))
    return p.with_rules(kept)


def delete_atoms(p: Program, x: Iterable[int]) -> Program:
    """Erase the atoms of x from every part of every rule.

    Rules are never removed; a rule may become a constraint or lose all of
    its atoms (kept internally, classified as a constraint).  Atom ids absent
    from the table are ignored.
    """
    xx = frozenset(x)
    kept = [Rule(*(frozenset(part) - xx for part in r)) for r in p.rule_parts]
    return p.with_rules(kept)
