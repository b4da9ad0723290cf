"""Ground disjunctive logic programs: atoms, rules, parsing, printing, masks.

A rule has the shape

    h1 | ... | hk :- b1, ..., bm, not c1, ..., not cn.

with the three parts stored as (head, pos, neg) tuples of distinct atom ids
in every program, parsed, built or derived; Rule objects (frozensets) are
only a view, built on the first read of Program.rules.  Atoms are interned
into a per-program table in order of first occurrence, so ids are dense and
stable under render/parse round trips.  depgraph decides membership in the
target classes named here.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

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


def tautological(head, pos, neg) -> bool:
    """A positive body atom is also in the head or the negative body."""
    for a in pos:
        if a in head or a in neg:
            return True
    return False


@dataclass(frozen=True)
class Rule:
    head: frozenset[int]
    pos_body: frozenset[int]
    neg_body: frozenset[int]

    def __iter__(self):  # unpacks as (head, pos_body, neg_body)
        return iter((self.head, self.pos_body, self.neg_body))

    @property
    def body(self) -> frozenset[int]:
        return self.pos_body | self.neg_body

    @property
    def atoms(self) -> frozenset[int]:
        return self.head | self.pos_body | self.neg_body

    @property
    def tautological(self) -> bool:
        return tautological(*self)


class Program:
    """Immutable program: an atom table plus an ordered list of rules.

    rule_parts holds each rule as a (head, pos, neg) triple of tuples of
    distinct atom ids, the only form in which rules are stored; rules is a
    view of them as Rules, built on its first read.  __init__ takes any id
    triples, Rules included, and drops repeated ids as the parser does.
    """

    __slots__ = ("atom_names", "rule_parts", "duplicate_literals",
                 "_name_to_id", "_rules")

    def __init__(self, atom_names: Sequence[str], rules: Iterable[Iterable[Collection[int]]],
                 duplicate_literals: int = 0):
        self.atom_names: tuple[str, ...] = tuple(atom_names)
        self.rule_parts, self._rules = tuple(_distinct(*r) for r in rules), None
        # parse-time metadata, not part of structural equality
        self.duplicate_literals = duplicate_literals
        self._name_to_id = {n: i for i, n in enumerate(self.atom_names)}
        if len(self._name_to_id) != len(self.atom_names):
            raise ValueError("duplicate atom name in table")
        n = len(self.atom_names)
        bad = [a for r in self.rule_parts for part in r for a in part if not 0 <= a < n]
        if bad:
            raise ValueError(f"rule mentions unknown atom id {bad[0]}")

    @property
    def rules(self) -> tuple[Rule, ...]:
        if self._rules is None:
            self._rules = tuple(Rule(*map(frozenset, r)) for r in self.rule_parts)
        return self._rules

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
        for h, pos, neg in self.rule_parts:
            out.update(h, pos, neg)
        return frozenset(out)

    def with_rules(self, rules: Iterable[Iterable[Collection[int]]]) -> "Program":
        """Same atom table, different rule list, as __init__ takes it."""
        return Program(self.atom_names, rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.atom_names == other.atom_names and self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.atom_names, self.rules))

    def __repr__(self) -> str:
        return f"Program({self.n_atoms} atoms, {len(self.rule_parts)} rules)"


def _distinct(head, pos, neg) -> tuple[tuple[int, ...], ...]:
    """A rule's parts as tuples of ids, repeats dropped in first-seen order."""
    return (tuple(head) if len(head) < 2 else tuple(dict.fromkeys(head)),
            tuple(pos) if len(pos) < 2 else tuple(dict.fromkeys(pos)),
            tuple(neg) if len(neg) < 2 else tuple(dict.fromkeys(neg)))


class ProgramBuilder:
    """Interns atom names in first-use order and collects rules as tuples of
    distinct ids (see Program); parse_program fills one as well."""

    def __init__(self) -> None:
        # insertion ordered, so the keys are the atom table
        self._ids: dict[str, int] = {}
        self._rules: list[tuple] = []
        self.duplicate_literals = 0

    def intern(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def add_rule(self, head: Iterable[str], pos: Iterable[str] = (),
                 neg: Iterable[str] = ()) -> None:
        ids = self._ids
        self._add(*([ids.setdefault(n, len(ids)) for n in part] for part in (head, pos, neg)))

    def _add(self, head: list[int], pos: list[int], neg: list[int]) -> None:
        """Add a rule of interned ids, dropping (and counting) repeats."""
        rule = _distinct(head, pos, neg)
        self.duplicate_literals += len(head) + len(pos) + len(neg) - sum(map(len, rule))
        self._rules.append(rule)

    def build(self) -> Program:
        p = Program.__new__(Program)  # unchecked: every id came from self._ids
        p.atom_names, p._name_to_id, p._rules = tuple(self._ids), dict(self._ids), None
        p.rule_parts, p.duplicate_literals = tuple(self._rules), self.duplicate_literals
        return p


# ---------------------------------------------------------------------------
# parsing

# One token per match: whitespace (space, tab, CR, LF) and comments are
# skipped before it; a character no token starts with is a token of its own;
# the empty match at the end is EOF.  The group never fails, so the scan does
# not backtrack.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)*([a-zA-Z_][a-zA-Z0-9_']*|:-|[.,|]|.|\Z)")
_SYMBOLS = frozenset({":-", ".", ",", "|", ""})
_NOT_ATOM = _SYMBOLS | RESERVED


def _error(text: str, i: int, message: str) -> ParseError:
    """ParseError at the 1-based line and column of token i."""
    m = next(itertools.islice(_TOKEN.finditer(text), i, None))
    off = m.start(1)
    if not m.group(1):
        # EOF after a trailing comment sits at its '%', as the comment's
        # characters are not counted
        pct = text.find("%", text.rfind("\n") + 1)
        off = pct if pct >= 0 else off
    return ParseError(message, text.count("\n", 0, off) + 1,
                      off - text.rfind("\n", 0, off))


def _got(t: str) -> str:
    return repr(t) if t else "end of input"


def parse_program(text: str | bytes) -> Program:
    """Parse program text.

    Statements are rules terminated by '.', '%' starts a comment, heads are
    '|'-separated atoms, bodies are ','-separated literals with optional
    'not'; ':-.' is the empty constraint, but after a head ':-' needs a
    body.  Duplicate literals within a rule part are deduplicated; the count
    of dropped duplicates is exposed as Program.duplicate_literals.  The
    whole text is tokenized first, so a bad character anywhere is reported
    before any grammar error.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    toks = _TOKEN.findall(text)
    bad = [t for t in set(toks) if len(t) == 1 and t not in _SYMBOLS and not ATOM_RE.match(t)]
    if bad:
        i = min(toks.index(t) for t in bad)
        raise _error(text, i, f"unexpected character {toks[i]!r}")
    b = ProgramBuilder()
    ids = b._ids
    it = enumerate(toks)  # it ends with EOF, which nothing steps past
    i, t = next(it)
    while t:
        # interned as read, the negative body after the rule, as add_rule does
        head: list[int] = []
        pos: list[int] = []
        neg_names: list[str] = []
        if t != ":-":
            if t in _NOT_ATOM:
                raise _error(text, i, f"expected rule, got {t!r}")
            head.append(ids.setdefault(t, len(ids)))
            i, t = next(it)
            while t == "|":
                i, t = next(it)
                if t in _NOT_ATOM:
                    raise _error(text, i, f"expected atom, got {_got(t)}")
                head.append(ids.setdefault(t, len(ids)))
                i, t = next(it)
        if t == ":-":
            i, t = next(it)
            if t == "." and head:
                raise _error(text, i, "empty body after ':-'")
            # ':-.' alone is the empty constraint; after ',' an atom must follow
            while t != "." or pos or neg_names:
                negated = t == "not"
                if negated:
                    i, t = next(it)
                if t in _NOT_ATOM:
                    raise _error(text, i, f"expected atom, got {_got(t)}")
                if negated:
                    neg_names.append(t)
                else:
                    pos.append(ids.setdefault(t, len(ids)))
                i, t = next(it)
                if t != ",":
                    break
                i, t = next(it)
        if t != ".":
            raise _error(text, i, f"expected '.', got {_got(t)}")
        i, t = next(it)
        b._add(head, pos, [ids.setdefault(n, len(ids)) for n in neg_names])
    return b.build()


# ---------------------------------------------------------------------------
# printing

def render_rule(p: Program, r) -> str:
    """One statement of program text for a Rule or a (head, pos, neg) triple
    of atom ids; parts are listed in atom-id order."""
    h, pos, neg = r
    head = " | ".join(p.atom_name(a) for a in sorted(h))
    body = [p.atom_name(a) for a in sorted(pos)]
    body += ["not " + p.atom_name(a) for a in sorted(neg)]
    if not body:
        return head + "." if head else ":-."  # a fact, or the empty constraint
    lhs = head + " " if head else ""
    return f"{lhs}:- {', '.join(body)}."


def render_program(p: Program) -> str:
    return "".join(render_rule(p, r) + "\n" for r in p.rule_parts)


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
    return p.with_rules(r for r in p.rule_parts if r[0] and not tautological(*r))


def atom_mask(atoms: Iterable[int]) -> int:
    """Atom ids as an int bitmask: bit a stands for atom id a; repeats are harmless."""
    mask = 0
    for a in atoms:
        mask |= 1 << a
    return mask


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
    Program; core(x, true) is the core of a truth-assignment reduct over x.
    Build one per search or membership test; Program itself never compiles.
    wake masks the atoms whose deletion can wake a tautological rule.
    """

    __slots__ = ("n_atoms", "occurring", "rules", "wake")

    def __init__(self, p: Program):
        self.n_atoms = p.n_atoms
        self.rules = tuple((atom_mask(h), atom_mask(pos), atom_mask(neg))
                           for h, pos, neg in p.rule_parts)
        self.occurring = self.wake = 0
        for h, pos, neg in self.rules:
            self.occurring |= h | pos | neg
            self.wake |= pos & (h | neg)

    def core(self, x: int = 0, true: int | None = None) -> list[tuple[int, int, int]]:
        """Masks of the rules of core(delete_atoms(p, x)), in rule order, or
        of core(ta_reduct(p, tau)) for the tau over x whose true atoms are the
        mask true (inside x), which first drops the rules that tau decides.

        Tautology is tested after masking: deleting an atom that a rule has
        both in its positive body and in its head or negative body wakes the
        rule up, and deleting all of a head makes the rule a constraint.
        """
        rules = self.rules
        if true is not None:
            false = x & ~true
            rules = [r for r in rules if not (r[0] | r[2]) & true and not r[1] & false]
        keep = ~x
        out = []
        for h, pos, neg in rules:
            h &= keep
            if h:
                pos &= keep
                neg &= keep
                if not pos & (h | neg):
                    out.append((h, pos, neg))
        return out
