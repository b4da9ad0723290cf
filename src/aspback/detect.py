"""Backdoor detection: conflict graph, exact vertex cover, cycle hitting.

Detection for the Horn target reduces to minimum vertex cover of the conflict
graph (two atoms clash when a non-tautological rule puts both in the head, or
one in the head and one in the negative body).  Detection for the acyclicity
targets deletes atoms: branch on head atoms of normality-violating rules and
on atom vertices of forbidden cycles.  The deletion search compiles the
program once into rule bitmasks; a search node is one deletion mask, and
costs one pass over the rule masks plus a linear component pass over the
dependency graph, with breadth-first search only inside a component and no
deeper than the best witness so far.  All searches are exact and return the
minimum witness whose sorted id-vector is lexicographically smallest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .program import (ACYCLIC_CLASSES, CompiledProgram, Program, TargetClass,
                      atoms_of, in_target_class, rule_flags, violation)
from .reducts import assignments_over, check_atoms, delete_atoms, ta_reduct
# not called here, but perfbench/tracer.py wraps detect.core and
# detect.witness_cycle by these names
from .depgraph import witness_cycle  # noqa: F401
from .program import core  # noqa: F401

STRONG_ENUM_GUARD = 30
STRONG_ACYCLIC_K_GUARD = 12

KINDS = ("strong", "deletion")


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected clash graph over the atom table; (a, a) marks a self-loop."""

    n_atoms: int
    edges: frozenset[tuple[int, int]]  # normalized a <= b

    def covered_by(self, x: frozenset[int]) -> bool:
        return all(a in x or b in x for a, b in self.edges)


def horn_conflict_graph(p: Program) -> ConflictGraph:
    edges: set[tuple[int, int]] = set()
    for r in p.rules:
        if rule_flags(r).tautological:
            continue
        hs = sorted(r.head)
        for i, x in enumerate(hs):
            for y in hs[i + 1:]:
                edges.add((x, y))
            for y in r.neg_body:
                edges.add((x, y) if x <= y else (y, x))
    return ConflictGraph(p.n_atoms, frozenset(edges))


# ---------------------------------------------------------------------------
# exact minimum vertex cover

class _VCSearch:
    """Branch and bound on one connected component.

    Branches on a maximum-degree vertex v: either v joins the cover or all of
    its neighbors do.  Forced inclusions (degree above the remaining original
    budget) are applied first; pruning uses greedy matching and clique-cover
    lower bounds.  Ties at the best size are explored so the final cover is
    the lexicographically smallest minimum one.
    """

    def __init__(self, adj: dict[int, set[int]], budget: int):
        self.adj = adj
        self.budget = budget
        self.best: tuple[int, tuple[int, ...]] | None = None
        self.nodes = 0

    def _remove_vertex(self, v: int, trail: list) -> None:
        ns = self.adj.pop(v)
        for w in ns:
            s = self.adj[w]
            s.discard(v)
            if not s:
                del self.adj[w]
        trail.append((v, ns))

    def _undo(self, trail: list) -> None:
        for v, ns in reversed(trail):
            self.adj[v] = ns
            for w in ns:
                self.adj.setdefault(w, set()).add(v)
        trail.clear()

    def _matching_lb(self) -> int:
        matched: set[int] = set()
        lb = 0
        for v in sorted(self.adj):
            if v in matched:
                continue
            for w in sorted(self.adj[v]):
                if w not in matched:
                    matched.add(v)
                    matched.add(w)
                    lb += 1
                    break
        return lb

    def _clique_lb(self) -> int:
        # any cover takes all but one vertex of each clique in a partition
        order = sorted(self.adj, key=lambda v: (-len(self.adj[v]), v))
        cliques: list[list[int]] = []
        for v in order:
            av = self.adj[v]
            for q in cliques:
                if all(u in av for u in q):
                    q.append(v)
                    break
            else:
                cliques.append([v])
        return len(order) - len(cliques)

    def seed_greedy(self) -> None:
        adj = {v: set(ns) for v, ns in self.adj.items()}
        cover: list[int] = []
        while adj:
            v = max(adj, key=lambda u: (len(adj[u]), -u))
            cover.append(v)
            for w in adj.pop(v):
                s = adj[w]
                s.discard(v)
                if not s:
                    del adj[w]
        if len(cover) <= self.budget:
            self.best = (len(cover), tuple(sorted(cover)))

    def search(self, chosen: list[int]) -> None:
        self.nodes += 1
        budget_eff = self.budget if self.best is None else min(self.budget, self.best[0])
        if self.adj and len(chosen) >= budget_eff:
            return

        trail: list = []
        forced: list[int] = []
        while True:
            brem = self.budget - len(chosen) - len(forced)
            if brem <= 0:
                break
            over = [v for v in sorted(self.adj) if len(self.adj[v]) > brem]
            if not over:
                break
            forced.append(over[0])
            self._remove_vertex(over[0], trail)
        cur = chosen + forced

        if not self.adj:
            if len(cur) <= budget_eff:
                cand = (len(cur), tuple(sorted(cur)))
                if self.best is None or cand < self.best:
                    self.best = cand
            self._undo(trail)
            return

        lb = self._matching_lb()
        if len(cur) + lb <= budget_eff:
            lb = max(lb, self._clique_lb())
        if len(cur) + lb > budget_eff:
            self._undo(trail)
            return

        v = max(sorted(self.adj), key=lambda u: len(self.adj[u]))
        ns = sorted(self.adj[v])
        t2: list = []
        self._remove_vertex(v, t2)
        self.search(cur + [v])
        self._undo(t2)
        t3: list = []
        for w in ns:
            self._remove_vertex(w, t3)
        self.search(cur + ns)
        self._undo(t3)
        self._undo(trail)


def _components(adj: dict[int, set[int]]) -> list[list[int]]:
    seen: set[int] = set()
    comps: list[list[int]] = []
    for s in sorted(adj):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _vc_min(g: ConflictGraph, k: int | None) -> tuple[frozenset[int] | None, int]:
    forced = sorted({a for a, b in g.edges if a == b})
    if k is not None and len(forced) > k:
        return None, 0
    fset = set(forced)
    adj: dict[int, set[int]] = {}
    for a, b in g.edges:
        if a == b or a in fset or b in fset:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    comps = _components(adj)
    comp_adjs = [{v: set(adj[v]) for v in comp} for comp in comps]
    match_lbs = []
    for ca in comp_adjs:
        s = _VCSearch(ca, len(ca))
        match_lbs.append(s._matching_lb())

    remaining = (k - len(forced)) if k is not None else None
    cover: list[int] = list(forced)
    nodes = 0
    for i, ca in enumerate(comp_adjs):
        if remaining is None:
            budget = len(ca)
        else:
            budget = remaining - sum(match_lbs[i + 1:])
            if budget < 0:
                return None, nodes
            budget = min(budget, len(ca))
        solver = _VCSearch(ca, budget)
        solver.seed_greedy()
        solver.search([])
        nodes += solver.nodes
        if solver.best is None:
            return None, nodes
        cover.extend(solver.best[1])
        if remaining is not None:
            remaining -= solver.best[0]
    return frozenset(cover), nodes


def vertex_cover_min(g: ConflictGraph, k: int | None = None) -> frozenset[int] | None:
    """Minimum vertex cover of size <= k (unbounded when k is None).

    Among all minimum covers the one with the lexicographically smallest
    sorted id-vector is returned; None when no cover fits the bound.
    """
    if k is not None and k < 0:
        raise ValueError("k must be nonnegative")
    cover, _ = _vc_min(g, k)
    return cover


# ---------------------------------------------------------------------------
# verification

def verify_backdoor(p: Program, x, target: TargetClass, kind: str) -> bool:
    """Does x work as a backdoor of the given kind into the target class?

    Strong: every truth-assignment reduct lands in the class (guarded at 30
    relevant atoms).  Deletion: the program with x erased lands in the class.
    Atoms of x that do not occur in p are vacuous.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    xx = check_atoms(p, x, "backdoor")
    if kind == "deletion":
        return in_target_class(delete_atoms(p, xx), target)
    dom = sorted(xx & p.occurring_atoms())
    if len(dom) > STRONG_ENUM_GUARD:
        raise ValueError(f"backdoor too large for strong check (> {STRONG_ENUM_GUARD})")
    for tau in assignments_over(dom):
        if not in_target_class(ta_reduct(p, tau), target):
            return False
    return True


# ---------------------------------------------------------------------------
# detection

@dataclass(frozen=True)
class BackdoorQuery:
    target: TargetClass
    kind: str = "strong"
    k: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.k is not None and self.k < 0:
            raise ValueError("k must be nonnegative")


@dataclass(frozen=True)
class BackdoorResult:
    witness: frozenset[int] | None
    optimal: bool
    nodes_explored: int


def _packing_prunes(cp: CompiledProgram, target: TargetClass, x: int,
                    viol: int, budget: int) -> bool:
    """Does a greedy packing of atom-disjoint violations, starting from viol
    (the first violation under x), need more than budget deletions in all?

    Each packed violation needs its own deletion.  Counting stops as soon as
    the budget is exceeded, and is skipped when the atoms left could not
    exceed it: every violation has an atom outside the deletions so far.
    """
    size = x.bit_count()
    if size + (cp.occurring & ~x).bit_count() <= budget:
        return False
    count = 0
    while viol:
        count += 1
        if size + count > budget:
            return True
        x |= viol
        viol = violation(cp, target, x)
    return False


def _deletion_search(p: Program, target: TargetClass,
                     k: int | None) -> tuple[frozenset[int] | None, int]:
    cp = CompiledProgram(p)
    n_occ = cp.occurring.bit_count()
    limit = n_occ if k is None else min(k, n_occ)
    best: tuple[int, tuple[int, ...]] | None = None
    seen: set[int] = set()
    nodes = 0

    def visit(x: int) -> int:
        """Count node x; return the atoms to branch on (0 for a leaf)."""
        nonlocal best, nodes
        if x in seen:
            return 0
        seen.add(x)
        nodes += 1
        budget = limit if best is None else min(limit, best[0])
        size = x.bit_count()
        if size > budget:
            return 0
        viol = violation(cp, target, x)
        if not viol:
            cand = (size, tuple(atoms_of(x)))
            if best is None or cand < best:
                best = cand
            return 0
        if _packing_prunes(cp, target, x, viol, budget):
            return 0
        return viol

    # depth first, smallest branch atom first: (x, branch atoms not yet tried)
    stack = [(0, visit(0))]
    while stack:
        x, rest = stack[-1]
        if not rest:
            stack.pop()
            continue
        a = rest & -rest
        stack[-1] = (x, rest ^ a)
        stack.append((x | a, visit(x | a)))
    return (frozenset(best[1]) if best is not None else None), nodes


def _strong_acyclic_search(p: Program, target: TargetClass,
                           k: int | None) -> tuple[frozenset[int] | None, int]:
    if k is not None and k > STRONG_ACYCLIC_K_GUARD:
        raise ValueError(
            f"k={k} exceeds the strong acyclic search guard ({STRONG_ACYCLIC_K_GUARD})")
    occ = sorted(p.occurring_atoms())
    limit = len(occ) if k is None else min(k, len(occ))
    nodes = 0
    for size in range(limit + 1):
        for combo in combinations(occ, size):
            nodes += 1
            if verify_backdoor(p, combo, target, "strong"):
                return frozenset(combo), nodes
    return None, nodes


def find_backdoor(p: Program, query: BackdoorQuery) -> BackdoorResult:
    """Smallest backdoor within the bound; exact for every supported target.

    Horn strong: minimum vertex cover of the conflict graph.  Deletion (any
    target): violation-hitting branch and bound.  Strong acyclicity targets:
    bounded exhaustive search (desk scale).
    """
    if query.target is TargetClass.HORN and query.kind == "strong":
        witness, nodes = _vc_min(horn_conflict_graph(p), query.k)
    elif query.kind == "deletion":
        witness, nodes = _deletion_search(p, query.target, query.k)
    elif query.target in ACYCLIC_CLASSES:
        witness, nodes = _strong_acyclic_search(p, query.target, query.k)
    else:
        raise ValueError(f"unknown target class {query.target!r}")
    return BackdoorResult(witness, witness is not None, nodes)
