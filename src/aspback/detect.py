"""Backdoor detection: conflict graph, exact vertex cover, cycle hitting.

Detection for the Horn target reduces to minimum vertex cover of the conflict
graph (two atoms clash when a non-tautological rule puts both in the head, or
one in the head and one in the negative body), held as one neighbour mask per
atom; its edge set is built only when read.  Self-loop atoms join the cover
first; each connected component of the rest, flooded from its lowest vertex,
is then searched on its own, on the graph's masks restricted to it, with the
bounded search tree of FPT vertex cover kept on an explicit stack: drop
degree-0 vertices and take the neighbour of each degree-1 vertex, take any
vertex once only cycles are left, else branch on a maximum-degree vertex or
on all of its neighbours; a greedy matching is the lower bound.  Deletion
detection branches on the atoms of violations, over deletion masks of the
program compiled into rule bitmasks; one memo maps each mask to its
violation and the atoms to branch on, from depgraph's deletion_violation
closure, built once per search for every target, Horn included (where no
deletion adds an edge, a directed cycle's dominated atoms drop out).  Its
nodes are pruned by a greedy packing of atom-disjoint violations, sound only
until a packed violation meets an atom whose deletion can wake a
tautological rule; the packing stops there.

Both searches run in two passes.  A size pass prunes ties and gives the
optimum size; a lexicographic pass then keeps each atom, in ascending order,
that some optimal solution holds together with the atoms kept so far: free
when the current witness holds it, else by a search that stops at its first
solution, the new witness.  A skipped atom need not be forbidden later: an
optimal solution holding it would have passed its test.  A skipped vertex's
neighbours are in every such cover, so later cover tests drop them from
their graph and their budget.  The kernels and the dominated atoms may lead
to any of the tied optima, which is safe because each pass asks only for a
size or for a first solution.  All searches are exact and return the minimum
witness whose sorted id-vector is lexicographically smallest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from math import comb

from .depgraph import deletion_violation, violation
from .program import (CompiledProgram, Program, TargetClass, atom_mask,
                      atoms_of, tautological)
from .reducts import check_atoms
# not called here, but perfbench/tracer.py wraps these names in detect
from .depgraph import in_target_class, witness_cycle  # noqa: F401
from .program import core  # noqa: F401
from .reducts import delete_atoms, ta_reduct  # noqa: F401

STRONG_ACYCLIC_SET_GUARD = 300_000  # atom sets (search) or reducts (check) to test

KINDS = ("strong", "deletion")


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected clash graph over the atom table: adj[a] masks the atoms
    that clash with atom a, and bit a of adj[a] marks a self-loop."""

    adj: tuple[int, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.adj)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:  # normalized a <= b
        return frozenset((a, b) for a, m in enumerate(self.adj) for b in atoms_of(m >> a << a))

    def covered_by(self, x) -> bool:
        """Does x, any iterable of atom ids, hold an end of every edge?"""
        xm = atom_mask({a for a in x if 0 <= a < len(self.adj)})
        return not any(m & ~xm for a, m in enumerate(self.adj) if not xm >> a & 1)


def horn_conflict_graph(p: Program) -> ConflictGraph:
    adj = [0] * p.n_atoms
    for h, pos, neg in p.rule_parts:
        if len(h) < 2 and not neg or tautological(h, pos, neg):
            continue  # no edges
        for x in h:
            for y in h:
                if y != x:
                    adj[x] |= 1 << y
            for y in neg:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return ConflictGraph(tuple(adj))


# ---------------------------------------------------------------------------
# exact minimum vertex cover

def _matching_lb(adj: list[int], alive: int) -> int:
    """Edges in a greedy maximal matching of the alive vertices, each matched
    to its lowest unmatched neighbour: every cover takes one end of each."""
    count = 0
    while alive:
        low = alive & -alive
        alive ^= low
        nb = adj[low.bit_length() - 1] & alive
        if nb:
            alive ^= nb & -nb
            count += 1
    return count


def _kernel(adj: list[int], alive: int, chosen: int) -> tuple[int, int]:
    """Drop degree-0 vertices and take the neighbour of each degree-1 vertex,
    to a fixpoint; a worklist revisits only vertices whose degree fell.  An
    isolated edge keeps its lower end, the one the lexicographic pass wants."""
    work = alive
    while work:
        low = work & -work
        work ^= low
        nb = adj[low.bit_length() - 1] & alive
        if nb & (nb - 1) or not low & alive:
            continue
        alive ^= low | nb
        if nb:
            rest = adj[nb.bit_length() - 1] & alive
            chosen |= nb if rest else min(low, nb)
            work |= rest
    return alive, chosen


def _vc_search(adj: list[int], alive: int, best: int,
               first: bool) -> tuple[int | None, int]:
    """Depth-first branch and bound on an explicit stack of (alive, chosen)
    masks: the smallest cover of the alive vertices with fewer than best of
    them (ties pruned), or with first the first one found; and the nodes."""
    found, nodes, stack = None, 0, [(alive, 0)]
    while stack:
        alive, chosen = stack.pop()
        nodes += 1
        alive, chosen = _kernel(adj, alive, chosen)
        size = chosen.bit_count()
        if not alive:
            if size < best:
                found, best = chosen, size
                if first:
                    break
            continue
        if size + _matching_lb(adj, alive) >= best:
            continue
        # a maximum-degree vertex, the smallest on ties
        v = max(atoms_of(alive), key=lambda u: (adj[u] & alive).bit_count())
        nv, bit = adj[v] & alive, 1 << v
        if nv.bit_count() > 2:
            stack.append((alive & ~nv, chosen | nv))
        # with no vertex above degree 2 what is left is disjoint cycles, and
        # some minimum cover holds any given vertex: take v without branching
        stack.append((alive ^ bit, chosen | bit))
    return found, nodes


def _vc_component(adj: list[int], comp: int, budget: int) -> tuple[int | None, int]:
    """Lexicographically smallest minimum cover (a mask) of the component
    comp within budget, and the nodes of both passes.  The lexicographic
    pass keeps a maximal matching of the vertices not yet kept, built from
    the highest vertex down so that a tested vertex is often matched to a
    lower, kept one and so free: a test fails without a search when its
    graph keeps as many matched edges as the cover has places left."""
    cover, nodes = _vc_search(adj, comp, budget + 1, False)
    if cover is None:
        return None, nodes
    mate, pairs, rest = {}, 0, comp
    while rest:
        u = rest.bit_length() - 1
        rest ^= 1 << u
        nb = adj[u] & rest
        if nb:
            w = nb.bit_length() - 1
            rest ^= 1 << w
            mate[u], mate[w] = w, u
            pairs += 1
    kept = forced = 0
    left = cover.bit_count()  # every witness has this optimum size
    for v in atoms_of(comp):
        if not left:
            break
        bit = 1 << v
        if not cover & bit:
            owed, found = (forced & ~kept).bit_count(), None
            if adj[v] & ~kept and pairs - (v in mate) < left and owed < left:
                found, n = _vc_search(adj, comp & ~(kept | forced | bit), left - owed, True)
                nodes += n
            if found is None:  # no such cover holds v, each holds its neighbours
                forced |= adj[v]
                continue
            cover = kept | forced | bit | found
        kept |= bit
        left -= 1
        if v in mate:
            del mate[mate.pop(v)]
            pairs -= 1
    return kept, nodes


def _vc_min(g: ConflictGraph, k: int | None) -> tuple[frozenset[int] | None, int]:
    loops = sum(m & 1 << a for a, m in enumerate(g.adj))  # the forced atoms
    if k is not None and loops.bit_count() > k:
        return None, 0
    adj = [0 if loops >> a & 1 else m & ~loops for a, m in enumerate(g.adj)]

    # adj is symmetric: flood each connected component from its lowest vertex
    comps, rest = [], atom_mask(a for a, m in enumerate(adj) if m)
    while rest:
        comp = todo = rest & -rest
        while todo:
            low = todo & -todo
            new = adj[low.bit_length() - 1] & ~comp
            comp, todo = comp | new, todo ^ (low | new)
        rest &= ~comp
        comps.append((comp, _matching_lb(adj, comp)))

    cover, nodes, later = loops, 0, sum(lb for _, lb in comps)
    for comp, lb in comps:
        later -= lb  # the bound of the components after this one
        budget = comp.bit_count() if k is None else k - cover.bit_count() - later
        if budget < 0:
            return None, nodes
        found, n = _vc_component(adj, comp, budget)
        nodes += n
        if found is None:
            return None, nodes
        cover |= found
    return frozenset(atoms_of(cover)), nodes


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

    Strong Horn: x covers the conflict graph.  Other strong targets: every
    truth-assignment reduct lands in the class (refused past
    STRONG_ACYCLIC_SET_GUARD reducts).  Deletion: the rules with x erased,
    masked once, land in the class.  Atoms of x that do not occur in p are
    vacuous.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    xx = check_atoms(p, x, "backdoor")
    if kind == "strong" and target is TargetClass.HORN:
        return horn_conflict_graph(p).covered_by(xx)
    cp = CompiledProgram(p)
    if kind == "deletion":
        return not violation(cp, target, atom_mask(xx))
    xmask = atom_mask(xx) & cp.occurring
    if 1 << xmask.bit_count() > STRONG_ACYCLIC_SET_GUARD:
        raise ValueError(f"backdoor too large for strong check"
                         f" (> {STRONG_ACYCLIC_SET_GUARD} reducts)")
    return _reducts_in_class(cp, xmask, target)


def _reducts_in_class(cp: CompiledProgram, xmask: int, target: TargetClass) -> bool:
    """Does every truth-assignment reduct over xmask lie in the target class?
    One masked core per subset of xmask, its true atoms (unguarded)."""
    true = xmask
    while not violation(cp, target, xmask, true):
        if not true:
            return True
        true = (true - 1) & xmask
    return False


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


def _deletion_search(p: Program, target: TargetClass,
                     k: int | None) -> tuple[frozenset[int] | None, int]:
    """Minimum deletion backdoor within k, the lexicographically smallest
    on ties, and the search nodes of both passes (see the module notes)."""
    cp = CompiledProgram(p)
    n_occ = cp.occurring.bit_count()
    # the per-search memo: x -> (violation, the atoms to branch on)
    viol = cache(deletion_violation(cp, target))
    nodes = 0

    def packing_prunes(x: int, v: int, budget: int) -> bool:
        """Do atom-disjoint violations, packed greedily from v (the one under
        x), need more than budget deletions?  Every one has an atom outside x,
        so the packing is skipped when the atoms left cannot exceed it."""
        size = x.bit_count()
        if size + (cp.occurring & ~x).bit_count() <= budget:
            return False
        count = 0
        while v:
            count += 1
            if size + count > budget:
                return True
            if v & cp.wake:
                return False
            x |= v
            v = viol(x)[0]
        return False

    def search(root: int, budget: int, first: bool) -> int | None:
        """Depth first from root, smallest branch atom first: the smallest
        solution within budget (ties pruned), or the first one found."""
        nonlocal nodes
        found, seen, stack = None, set(), [root]
        while stack and not (first and found is not None):
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            nodes += 1
            if x.bit_count() > budget:
                continue
            v, branch = viol(x)
            if not v:
                found, budget = x, x.bit_count() - 1
            elif not packing_prunes(x, v, budget):
                stack.extend(x | 1 << a for a in reversed(atoms_of(branch)))
        return found

    witness = search(0, n_occ if k is None else min(k, n_occ), False)
    if witness is None:
        return None, nodes
    opt = witness.bit_count()
    kept, rest = 0, cp.occurring
    while kept.bit_count() < opt:
        a = rest & -rest
        rest ^= a
        if not a & witness:
            found = search(kept | a, opt, True)
            if found is None:
                continue
            witness = found
        kept |= a
    return frozenset(atoms_of(witness)), nodes


def _strong_acyclic_search(p: Program, target: TargetClass,
                           k: int | None) -> tuple[frozenset[int] | None, int]:
    cp = CompiledProgram(p)
    occ = atoms_of(cp.occurring)
    limit = len(occ) if k is None else min(k, len(occ))
    nodes = 0
    for size in range(limit + 1):
        if nodes + comb(len(occ), size) > STRONG_ACYCLIC_SET_GUARD:
            raise ValueError(f"strong {target.value} search would test over {STRONG_ACYCLIC_SET_GUARD}"
                             f" atom sets to reach size {size}; a --kind deletion backdoor is strong too")
        for combo in combinations(occ, size):
            nodes += 1
            if _reducts_in_class(cp, atom_mask(combo), target):
                return frozenset(combo), nodes
    return None, nodes


def find_backdoor(p: Program, query: BackdoorQuery) -> BackdoorResult:
    """Smallest backdoor within the bound; exact for every supported target.

    Horn strong: minimum vertex cover of the conflict graph.  Deletion (any
    target): violation-hitting branch and bound.  Strong acyclicity: search
    by size, refused past STRONG_ACYCLIC_SET_GUARD sets.  Without tautological
    rules, which deletion could wake, the deletion Horn backdoors are the
    covers of the conflict graph too, so Horn deletion takes the cover search.
    """
    if query.target is TargetClass.HORN and (
            query.kind == "strong"
            or not any(tautological(*r) for r in p.rule_parts)):
        witness, nodes = _vc_min(horn_conflict_graph(p), query.k)
    elif query.kind == "deletion":
        witness, nodes = _deletion_search(p, query.target, query.k)
    else:  # depgraph rejects an unknown target class
        witness, nodes = _strong_acyclic_search(p, query.target, query.k)
    return BackdoorResult(witness, witness is not None, nodes)
