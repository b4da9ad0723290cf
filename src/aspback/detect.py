"""Backdoor detection: conflict graph, exact vertex cover, cycle hitting.

Detection for the Horn target reduces to minimum vertex cover of the conflict
graph (two atoms clash when a non-tautological rule puts both in the head, or
one in the head and one in the negative body).  Self-loop atoms join the cover
first; each connected component of the rest is then searched on its own, on
int masks over its vertices, with the bounded search tree of FPT vertex cover
kept on an explicit stack: drop degree-0 vertices and take the neighbour of
each degree-1 vertex, take any vertex once only cycles are left, else branch
on a maximum-degree vertex or on all of its neighbours; a greedy matching is
the lower bound.  Deletion detection branches on head atoms of
normality-violating rules and on atom vertices of forbidden cycles, over
deletion masks of the program compiled into rule bitmasks; one memo maps
each mask to its violation (rule masks ORed into per-atom adjacency masks,
then depgraph's cycle search).  Its nodes are pruned by a greedy packing of
atom-disjoint violations, sound only until a packed violation meets an atom
whose deletion can wake a tautological rule; the packing stops there.

Both searches run in two passes.  A size pass prunes ties and gives the
optimum size; a lexicographic pass then keeps each atom, in ascending order,
that some optimal solution holds together with the atoms kept so far: free
when the current witness holds it, else by a search that stops at its first
solution, the new witness.  A skipped atom need not be forbidden later: an
optimal solution holding it would have passed its test.  The vertex-cover
kernels may reach any of the tied optima, which is safe because each pass
asks only for a size or for a first solution.  All searches are exact and
return the minimum witness whose sorted id-vector is lexicographically
smallest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .depgraph import _components
from .program import (ACYCLIC_CLASSES, CompiledProgram, Program, TargetClass,
                      atom_mask, atoms_of, tautological, violation)
from .reducts import check_atoms
# not called here, but perfbench/tracer.py wraps these names in detect
from .depgraph import witness_cycle  # noqa: F401
from .program import core, in_target_class  # noqa: F401
from .reducts import delete_atoms, ta_reduct  # noqa: F401

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
    for h, pos, neg in p.rule_parts:
        if tautological(h, pos, neg):
            continue
        hs = sorted(h)
        for i, x in enumerate(hs):
            for y in hs[i + 1:]:
                edges.add((x, y))
            for y in neg:
                edges.add((x, y) if x <= y else (y, x))
    return ConflictGraph(p.n_atoms, frozenset(edges))


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


def _vc_component(adj: list[int], budget: int) -> tuple[int | None, int]:
    """Lexicographically smallest minimum cover (a mask) of one component
    within budget, and the nodes of both passes.  The lexicographic pass
    keeps a maximal matching of the vertices not yet kept, built from the
    highest vertex down so that a tested vertex is often matched to a lower,
    kept one and so free: a test fails without a search when its graph keeps
    as many matched edges as the cover has places left."""
    full = (1 << len(adj)) - 1
    cover, nodes = _vc_search(adj, full, budget + 1, False)
    if cover is None:
        return None, nodes
    mate, pairs, rest = [-1] * len(adj), 0, full
    while rest:
        u = rest.bit_length() - 1
        rest ^= 1 << u
        nb = adj[u] & rest
        if nb:
            w = nb.bit_length() - 1
            rest ^= 1 << w
            mate[u], mate[w] = w, u
            pairs += 1
    kept = 0
    for v in range(len(adj)):
        left = cover.bit_count() - kept.bit_count()
        if not left:
            break
        bit = 1 << v
        if not cover & bit:
            if not adj[v] & ~kept or pairs - (mate[v] >= 0) >= left:
                continue
            found, n = _vc_search(adj, full & ~(kept | bit), left, True)
            nodes += n
            if found is None:
                continue
            cover = kept | bit | found
        kept |= bit
        if mate[v] >= 0:
            mate[mate[v]] = -1
            pairs -= 1
    return kept, nodes


def _vc_min(g: ConflictGraph, k: int | None) -> tuple[frozenset[int] | None, int]:
    forced = sorted({a for a, b in g.edges if a == b})
    if k is not None and len(forced) > k:
        return None, 0
    fmask = atom_mask(forced)
    edges = [(a, b) for a, b in g.edges if a != b and not (fmask >> a | fmask >> b) & 1]
    adj = [0] * g.n_atoms
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    # adj is symmetric, so its strongly connected components are the connected
    # ones; each, at its smallest vertex, is relabelled 0..m-1 in atom order
    comps = [cm for v, cm in enumerate(_components(adj)) if cm & -cm == 1 << v]
    comp_adjs = [(atoms_of(cm), [0] * cm.bit_count()) for cm in comps]
    local = {w: (c, i) for c, (vs, _) in enumerate(comp_adjs) for i, w in enumerate(vs)}
    for a, b in edges:
        (c, i), (_, j) = local[a], local[b]
        comp_adjs[c][1][i] |= 1 << j
        comp_adjs[c][1][j] |= 1 << i
    match_lbs = [_matching_lb(ca, (1 << len(ca)) - 1) for _, ca in comp_adjs]

    remaining = (k - len(forced)) if k is not None else None
    cover: list[int] = list(forced)
    nodes, later = 0, sum(match_lbs)
    for (vs, ca), lb in zip(comp_adjs, match_lbs):
        later -= lb  # the bound of the components after this one
        budget = len(ca) if remaining is None else remaining - later
        if budget < 0:
            return None, nodes
        found, n = _vc_component(ca, budget)
        nodes += n
        if found is None:
            return None, nodes
        cover.extend(vs[j] for j in atoms_of(found))
        if remaining is not None:
            remaining -= found.bit_count()
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

    Strong Horn: x covers the conflict graph.  Other strong targets: every
    truth-assignment reduct lands in the class (guarded at 30 relevant
    atoms).  Deletion: the program with x erased lands in the class.  Atoms
    of x that do not occur in p are vacuous.
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
    if xmask.bit_count() > STRONG_ENUM_GUARD:
        raise ValueError(f"backdoor too large for strong check (> {STRONG_ENUM_GUARD})")
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
    viol = cache(lambda x: violation(cp, target, x))  # the per-search memo
    wake = 0  # atoms whose deletion can wake a tautological rule
    for h, pos, neg in cp.rules:
        wake |= pos & (h | neg)
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
            if v & wake:
                return False
            x |= v
            v = viol(x)
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
            v = viol(x)
            if not v:
                found, budget = x, x.bit_count() - 1
            elif not packing_prunes(x, v, budget):
                stack.extend(x | 1 << a for a in reversed(atoms_of(v)))
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
    if k is not None and k > STRONG_ACYCLIC_K_GUARD:
        raise ValueError(
            f"k={k} exceeds the strong acyclic search guard ({STRONG_ACYCLIC_K_GUARD})")
    cp = CompiledProgram(p)
    occ = atoms_of(cp.occurring)
    limit = len(occ) if k is None else min(k, len(occ))
    nodes = 0
    for size in range(limit + 1):
        for combo in combinations(occ, size):
            nodes += 1
            if _reducts_in_class(cp, atom_mask(combo), target):
                return frozenset(combo), nodes
    return None, nodes


def find_backdoor(p: Program, query: BackdoorQuery) -> BackdoorResult:
    """Smallest backdoor within the bound; exact for every supported target.

    Horn strong: minimum vertex cover of the conflict graph.  Deletion (any
    target): violation-hitting branch and bound.  Strong acyclicity targets:
    bounded exhaustive search (desk scale).  Without tautological rules,
    which deletion could wake, the deletion Horn backdoors are the covers
    of the conflict graph too, so Horn deletion takes the cover search.
    """
    if query.target is TargetClass.HORN and (
            query.kind == "strong"
            or not any(tautological(*r) for r in p.rule_parts)):
        witness, nodes = _vc_min(horn_conflict_graph(p), query.k)
    elif query.kind == "deletion":
        witness, nodes = _deletion_search(p, query.target, query.k)
    elif query.target in ACYCLIC_CLASSES:
        witness, nodes = _strong_acyclic_search(p, query.target, query.k)
    else:
        raise ValueError(f"unknown target class {query.target!r}")
    return BackdoorResult(witness, witness is not None, nodes)
