"""Ground disjunctive logic programs: atoms, rules, parsing, printing, classes.

A rule has the shape

    h1 | ... | hk :- b1, ..., bm, not c1, ..., not cn.

with all three parts stored as sets of atom ids.  Atoms are interned into a
per-program table in order of first occurrence, so ids are dense and stable
under render/parse round trips.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

ATOM_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*")

# 'not' is reserved: the grammar reads body literals as ["not"] atom, so an
# atom literally named "not" would be ambiguous.
RESERVED = frozenset({"not"})


class ParseError(Exception):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Rule:
    head: frozenset[int]
    pos_body: frozenset[int]
    neg_body: frozenset[int]

    @property
    def body(self) -> frozenset[int]:
        return self.pos_body | self.neg_body

    @property
    def atoms(self) -> frozenset[int]:
        return self.head | self.pos_body | self.neg_body


@dataclass(frozen=True)
class RuleFlags:
    negation_free: bool
    normal: bool
    constraint: bool
    disjunction_free: bool
    horn: bool
    tautological: bool


def rule_flags(r: Rule) -> RuleFlags:
    negation_free = not r.neg_body
    normal = len(r.head) == 1
    constraint = not r.head
    disjunction_free = len(r.head) <= 1
    return RuleFlags(
        negation_free=negation_free,
        normal=normal,
        constraint=constraint,
        disjunction_free=disjunction_free,
        horn=negation_free and disjunction_free,
        tautological=bool(r.pos_body & (r.head | r.neg_body)),
    )


class Program:
    """Immutable program: an atom table plus an ordered list of rules."""

    __slots__ = ("atom_names", "rules", "duplicate_literals", "_name_to_id")

    def __init__(self, atom_names: Sequence[str], rules: Sequence[Rule],
                 duplicate_literals: int = 0):
        self.atom_names: tuple[str, ...] = tuple(atom_names)
        self.rules: tuple[Rule, ...] = tuple(rules)
        # parse-time metadata, not part of structural equality
        self.duplicate_literals = duplicate_literals
        self._name_to_id = {n: i for i, n in enumerate(self.atom_names)}
        if len(self._name_to_id) != len(self.atom_names):
            raise ValueError("duplicate atom name in table")
        n = len(self.atom_names)
        for r in self.rules:
            for a in r.atoms:
                if not (0 <= a < n):
                    raise ValueError(f"rule mentions unknown atom id {a}")

    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    def atom_id(self, name: str) -> int:
        return self._name_to_id[name]

    def has_atom(self, name: str) -> bool:
        return name in self._name_to_id

    def atom_name(self, i: int) -> str:
        return self.atom_names[i]

    def occurring_atoms(self) -> frozenset[int]:
        """Atoms mentioned by at least one rule (at(P))."""
        out: set[int] = set()
        for r in self.rules:
            out |= r.atoms
        return frozenset(out)

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        """Same atom table, different rule list."""
        return Program(self.atom_names, tuple(rules))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.atom_names == other.atom_names and self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.atom_names, self.rules))

    def __repr__(self) -> str:
        return f"Program({self.n_atoms} atoms, {len(self.rules)} rules)"


class ProgramBuilder:
    """Interns atom names in first-use order and collects rules."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._rules: list[Rule] = []
        self.duplicate_literals = 0

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self._names)
            self._ids[name] = i
            self._names.append(name)
        return i

    def _part(self, names: Iterable[str]) -> frozenset[int]:
        ids = [self.intern(n) for n in names]
        part = frozenset(ids)
        self.duplicate_literals += len(ids) - len(part)
        return part

    def add_rule(self, head: Iterable[str], pos: Iterable[str] = (),
                 neg: Iterable[str] = ()) -> None:
        self._rules.append(Rule(self._part(head), self._part(pos), self._part(neg)))

    def build(self) -> Program:
        return Program(self._names, self._rules, self.duplicate_literals)


# ---------------------------------------------------------------------------
# parsing

_PUNCT = {":-": "IMPL", ".": "DOT", ",": "COMMA", "|": "PIPE"}


def _tokens(text: str) -> Iterator[tuple[str, str, int, int]]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = ATOM_RE.match(text, i)
        if m:
            word = m.group()
            kind = "NOT" if word == "not" else "ATOM"
            yield kind, word, line, col
            col += len(word)
            i = m.end()
            continue
        if text.startswith(":-", i):
            yield "IMPL", ":-", line, col
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            yield _PUNCT[c], c, line, col
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    yield "EOF", "", line, col


def parse_program(text: str | bytes) -> Program:
    """Parse program text.

    Statements are rules terminated by '.', '%' starts a comment, heads are
    '|'-separated atoms, bodies are ','-separated literals with optional
    'not'.  Duplicate literals within a rule part are deduplicated; the count
    of dropped duplicates is exposed as Program.duplicate_literals.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    toks = list(_tokens(text))
    pos = 0
    b = ProgramBuilder()

    def peek() -> tuple[str, str, int, int]:
        return toks[pos]

    def take(kind: str, what: str) -> tuple[str, str, int, int]:
        nonlocal pos
        t = toks[pos]
        if t[0] != kind:
            got = repr(t[1]) if t[0] != "EOF" else "end of input"
            raise ParseError(f"expected {what}, got {got}", t[2], t[3])
        pos += 1
        return t

    def parse_literal() -> tuple[str, bool]:
        nonlocal pos
        neg = False
        if peek()[0] == "NOT":
            pos += 1
            neg = True
        t = take("ATOM", "atom")
        return t[1], neg

    while peek()[0] != "EOF":
        head: list[str] = []
        t = peek()
        if t[0] == "ATOM":
            pos += 1
            head.append(t[1])
            while peek()[0] == "PIPE":
                pos += 1
                head.append(take("ATOM", "atom")[1])
        elif t[0] != "IMPL":
            raise ParseError(f"expected rule, got {t[1]!r}", t[2], t[3])

        pos_body: list[str] = []
        neg_body: list[str] = []
        if peek()[0] == "IMPL":
            pos += 1
            if peek()[0] == "DOT":
                t = peek()
                raise ParseError("empty body after ':-'", t[2], t[3])
            name, neg = parse_literal()
            (neg_body if neg else pos_body).append(name)
            while peek()[0] == "COMMA":
                pos += 1
                name, neg = parse_literal()
                (neg_body if neg else pos_body).append(name)
        take("DOT", "'.'")
        b.add_rule(head, pos_body, neg_body)
    return b.build()


# ---------------------------------------------------------------------------
# printing

def render_rule(p: Program, r: Rule) -> str:
    """One statement of program text; parts are listed in atom-id order."""
    head = " | ".join(p.atom_name(a) for a in sorted(r.head))
    body = [p.atom_name(a) for a in sorted(r.pos_body)]
    body += ["not " + p.atom_name(a) for a in sorted(r.neg_body)]
    if not body:
        # an all-empty rule only arises internally, after atom deletion
        return head + "." if head else ":-."
    lhs = head + " " if head else ""
    return f"{lhs}:- {', '.join(body)}."


def render_program(p: Program) -> str:
    return "".join(render_rule(p, r) + "\n" for r in p.rules)


# ---------------------------------------------------------------------------
# target classes

class TargetClass(enum.Enum):
    """Tractable target classes.

    Every class is interpreted up to tautological rules and constraints:
    membership of p means membership of core(p).  The acyclicity classes
    additionally require all remaining rules to have singleton heads.
    """

    HORN = "horn"
    C_ACYC = "c-acyc"
    BC_ACYC = "bc-acyc"
    DC_ACYC = "dc-acyc"
    DC2_ACYC = "dc2-acyc"
    STRAT = "strat"


ACYCLIC_CLASSES = frozenset({
    TargetClass.C_ACYC, TargetClass.BC_ACYC, TargetClass.DC_ACYC,
    TargetClass.DC2_ACYC, TargetClass.STRAT,
})


def core(p: Program) -> Program:
    """Drop tautological rules and constraints; the atom table is unchanged."""
    kept = []
    for r in p.rules:
        f = rule_flags(r)
        if f.tautological or f.constraint:
            continue
        kept.append(r)
    return p.with_rules(kept)


def atom_mask(atoms: Iterable[int]) -> int:
    """Distinct atom ids as an int bitmask: bit a stands for atom id a."""
    return sum(1 << a for a in atoms)


def atoms_of(mask: int) -> list[int]:
    """Atom ids of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class CompiledProgram:
    """A program's rules as (head, pos, neg) bitmasks, for deleting by masking.

    A set of deleted atoms is one mask x, and core(x) is the core of the
    program with x deleted, computed from the masks without building a
    Program.  Build one per search or membership test; Program itself never
    compiles.  ``edges`` caches the dependency edges of each rule mask
    triple that depgraph has built a graph from.
    """

    __slots__ = ("n_atoms", "occurring", "rules", "edges")

    def __init__(self, p: Program):
        self.n_atoms = p.n_atoms
        self.rules = tuple((atom_mask(r.head), atom_mask(r.pos_body),
                            atom_mask(r.neg_body)) for r in p.rules)
        self.occurring = atom_mask(p.occurring_atoms())
        self.edges: dict[tuple[int, int, int], tuple] = {}

    def core(self, x: int = 0) -> list[tuple[int, int, int]]:
        """Masks of the rules of core(delete_atoms(p, x)), in rule order.

        Tautology is tested after masking: deleting an atom that a rule has
        both in its positive body and in its head or negative body wakes the
        rule up, and deleting all of a head makes the rule a constraint.
        """
        keep = ~x
        out = []
        for h, pos, neg in self.rules:
            h &= keep
            if h:
                pos &= keep
                neg &= keep
                if not pos & (h | neg):
                    out.append((h, pos, neg))
        return out


def violation(cp: CompiledProgram, c: TargetClass, x: int = 0) -> int:
    """Atoms (a mask) of the first violation of class c by the core of the
    compiled program with the atoms of x deleted; 0 when that core is in c.

    Horn: the head and negative body of the first non-Horn rule.  Acyclicity
    classes: the head of the first non-normal rule, else the atom vertices of
    the forbidden cycle that depgraph.core_witness finds.  Every violation
    has an atom outside x.  Deleting a positive body atom never makes a rule
    Horn (rules never become tautological by deletion), so the Horn
    violation leaves out positive bodies.
    """
    rules = cp.core(x)
    if c is TargetClass.HORN:
        for h, _, neg in rules:
            if h & (h - 1) or neg:
                return h | neg
        return 0
    if c not in ACYCLIC_CLASSES:
        raise ValueError(f"unknown target class {c!r}")
    for h, _, _ in rules:
        if h & (h - 1):
            return h
    from .depgraph import core_witness
    w = core_witness(cp, rules, c)
    if w is None:
        return 0
    return atom_mask(v for v in w.vertices if v < cp.n_atoms)


def in_target_class(p: Program, c: TargetClass) -> bool:
    """Membership of p in class c (always modulo tautologies/constraints)."""
    return violation(CompiledProgram(p), c) == 0
