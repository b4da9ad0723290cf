"""Instance generators: random programs, hitting set encodings, disjoint copies.

All randomness flows through random.Random seeded explicitly; floats from
rng.random() are the only draws, so outputs are stable across platforms for
a fixed seed.  Derived seeds come from child_seed, a 64-bit avalanche mix.
"""

from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import dataclass

from .program import ATOM_RE, Program, ProgramBuilder, RESERVED

_MASK64 = (1 << 64) - 1
# the names from_hitting_set gives its auxiliary atoms a_i_j and b_i_j
_AUX_RE = re.compile(r"[ab]_[0-9]+_[0-9]+")


def child_seed(seed: int, index: int) -> int:
    """Decorrelated 64-bit seed for the index-th child of a run seed."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class GenConfig:
    """Knobs for random_program; density is rules per atom (count = ceil(d*n))."""

    n_atoms: int
    density: float
    body_len: int = 2
    neg_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_atoms <= sys.float_info.max:  # density * n_atoms converts it
            raise ValueError("n_atoms must be positive and within the float range")
        if not 0 <= self.density < math.inf:  # nan fails both comparisons
            raise ValueError("density must be a finite nonnegative number")
        if not math.isfinite(self.density * self.n_atoms):
            raise ValueError("density * n_atoms, the rule count, must be finite")
        if not 0 <= self.body_len <= self.n_atoms - 1:
            raise ValueError("body_len must fit the non-head atoms")
        if not 0.0 <= self.neg_prob <= 1.0:
            raise ValueError("neg_prob must lie in [0, 1]")


def _draw(rng: random.Random, n: int) -> int:
    return int(rng.random() * n)


def random_program(cfg: GenConfig) -> Program:
    """Random normal program with atoms x0..x{n-1}.

    Per rule: one uniform head atom, body_len distinct non-head atoms drawn
    with rejection, then each body atom negated with probability neg_prob in
    draw order.  The atom table always lists x0..x{n-1} in index order, so
    ids equal indices even for atoms no rule happens to mention.
    """
    rng = random.Random(cfg.seed)
    b = ProgramBuilder()
    n = cfg.n_atoms
    for i in range(n):
        b.intern(f"x{i}")
    for _ in range(math.ceil(cfg.density * n)):
        head = _draw(rng, n)
        body: list[int] = []
        while len(body) < cfg.body_len:
            a = _draw(rng, n - 1)
            if a >= head:
                a += 1
            if a not in body:
                body.append(a)
        pos, neg = [], []
        for a in body:
            (neg if rng.random() < cfg.neg_prob else pos).append(a)
        b._add([head], pos, neg)
    return b.build()


@dataclass(frozen=True)
class HittingSetInstance:
    """Sets over named elements plus the cover budget k."""

    sets: tuple[frozenset[str], ...]
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if not self.sets:
            raise ValueError("need at least one set")
        for s in self.sets:
            if not s:
                raise ValueError("sets must be nonempty")
            for e in s:
                if not ATOM_RE.fullmatch(e) or e in RESERVED:
                    raise ValueError(f"bad element token {e!r}")
                if _AUX_RE.fullmatch(e):
                    raise ValueError(f"element {e!r} is named like an auxiliary atom")

    @staticmethod
    def from_ints(sets, k: int) -> "HittingSetInstance":
        return HittingSetInstance(
            tuple(frozenset(f"e{i}" for i in s) for s in sets), k)

    def elements(self) -> list[str]:
        return list(dict.fromkeys(e for s in self.sets for e in sorted(s)))

    def hit_by(self, chosen) -> bool:
        c = set(chosen)
        return all(s & c for s in self.sets)


def parse_hitting_set(text: str) -> HittingSetInstance:
    """Instance file: 'k=<int>' first, then one whitespace-separated set per
    line; '%' comments; bare integers i become elements e{i}."""
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("%", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines or not lines[0].replace(" ", "").startswith("k="):
        raise ValueError("hitting set file must start with a k= line")
    try:
        k = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise ValueError(f"bad k line {lines[0]!r}") from None
    return HittingSetInstance(tuple(
        frozenset(f"e{tok}" if tok.isdigit() else tok for tok in ln.split())
        for ln in lines[1:]), k)


HITTING_VARIANTS = ("taut", "full")


def from_hitting_set(inst: HittingSetInstance, variant: str) -> Program:
    """Encode a hitting set instance as a program over its elements.

    Both variants add k+1 rule pairs (a_i_j, b_i_j) per set S_i.  'taut':
    a <- S_i, b, not S_i (tautological bodies) with b <- not a.  'full':
    a <- b, not S_i with b <- E, not a over the whole element list E.
    """
    if variant not in HITTING_VARIANTS:
        raise ValueError(f"variant must be one of {HITTING_VARIANTS}")
    b = ProgramBuilder()
    els = inst.elements()
    for e in els:
        b.intern(e)
    for i, s in enumerate(inst.sets, 1):
        members = sorted(s)
        for j in range(1, inst.k + 2):
            a = f"a_{i}_{j}"
            bb = f"b_{i}_{j}"
            if variant == "taut":
                b.add_rule([a], members + [bb], members)
                b.add_rule([bb], [], [a])
            else:
                b.add_rule([a], [bb], members)
                b.add_rule([bb], els, [a])
    return b.build()


def disjoint_copies(p: Program, n: int) -> Program:
    """n renamed-apart copies of p in one program (atom x becomes x_c{i})."""
    if n < 1:
        raise ValueError("need at least one copy")
    b = ProgramBuilder()
    for i in range(1, n + 1):
        suffix = f"_c{i}"
        for r in p.rule_parts:
            b.add_rule(*([p.atom_name(a) + suffix for a in sorted(part)] for part in r))
    return b.build()
