"""Horn engine: model checking and least models."""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .program import Program


def is_model(p: Program, m: Iterable[int]) -> bool:
    """Classical satisfaction: every rule r has (H u B-) meeting M or B+ \\ M nonempty."""
    mm = frozenset(m)
    return not any(mm.isdisjoint(h) and mm.isdisjoint(neg) and mm.issuperset(pos)
                   for h, pos, neg in p.rule_parts)


def propagate_definite(definite: list[tuple[int, frozenset[int]]]) -> frozenset[int]:
    """Least model of (head, positive body) pairs by counting unit propagation."""
    count = [len(body) for _, body in definite]
    occ: dict[int, list[int]] = {}
    for i, (_, body) in enumerate(definite):
        for a in body:
            occ.setdefault(a, []).append(i)

    derived: set[int] = set()
    queue: deque[int] = deque()
    for i, (h, _) in enumerate(definite):
        if count[i] == 0 and h not in derived:
            derived.add(h)
            queue.append(h)
    while queue:
        a = queue.popleft()
        for i in occ.get(a, ()):
            count[i] -= 1
            if count[i] == 0:
                h = definite[i][0]
                if h not in derived:
                    derived.add(h)
                    queue.append(h)
    return frozenset(derived)


def least_model(p: Program) -> tuple[frozenset[int], bool]:
    """Least model of a Horn program via counter-based unit propagation.

    Returns (lm, sat): lm is the least model of the definite rules, sat tells
    whether lm also satisfies the constraints (Horn programs have a model iff
    their least model satisfies every constraint).  Raises on non-Horn input.
    Linear in the total size of the program.
    """
    definite: list[tuple[int, frozenset[int]]] = []
    constraints: list[frozenset[int]] = []
    for r in p.rules:
        if r.neg_body or len(r.head) > 1:
            raise ValueError("least_model requires a Horn program")
        if r.head:
            definite.append((next(iter(r.head)), r.pos_body))
        else:
            constraints.append(r.pos_body)

    lm = propagate_definite(definite)
    sat = all(body - lm for body in constraints)
    return lm, sat
