"""Dependency graphs, acyclicity witnesses, incidence graph, DOT export.

The directed dependency graph has an edge (x, y) whenever some rule has x in
the head and y in the body, or x and y jointly in the head; the edge is
negative when some justifying occurrence has y in the negative body or comes
from a shared head.  The undirected variant subdivides every negative edge
with a fresh "negative vertex" and forgets orientation (mutually directed
positive edges collapse to one undirected edge).

Graphs are built from rule bitmasks (program.CompiledProgram) in one pass.
A witness search then runs one linear component pass (Tarjan): strongly
connected components of the directed graph, 2-edge-connected components of
the undirected one.  A breadth-first search for a cycle through a candidate
edge runs only when both ends share a component, and only as deep as a
cycle shorter than the best one found so far could reach.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .program import (ACYCLIC_CLASSES, CompiledProgram, Program, TargetClass,
                      atoms_of)
# not called here, but perfbench/tracer.py wraps depgraph.core by this name
from .program import core  # noqa: F401


@dataclass(frozen=True)
class CycleWitness:
    """A forbidden cycle: vertices in cyclic order, badness flag.

    Directed witnesses list atom ids following edge direction; undirected
    witnesses list vertices of the undirected graph and may contain negative
    vertices (ids >= n_atoms of the originating graph), which ``graph``
    labels.
    """

    kind: str  # "directed" | "undirected"
    vertices: tuple[int, ...]
    bad: bool
    graph: UndirectedDepGraph | None = field(default=None, compare=False,
                                             repr=False)


class DependencyDigraph:
    """Directed dependency graph over the atom table of a program."""

    def __init__(self, n_atoms: int, edges: frozenset[tuple[int, int]],
                 negative: frozenset[tuple[int, int]]):
        self.n_atoms = n_atoms
        self.edges = edges
        self.negative = negative
        succ: dict[int, list[int]] = {}
        for u, v in edges:
            succ.setdefault(u, []).append(v)
        self.succ = {u: tuple(sorted(vs)) for u, vs in succ.items()}


class UndirectedDepGraph:
    """Undirected dependency graph with subdivided negative edges.

    Atom vertices are 0..n_atoms-1; negative vertex n_atoms+i subdivides the
    i-th negative directed edge (sorted order).  Adjacency keeps multiplicity
    so that a subdivided self-loop forms a two-edge cycle through its
    negative vertex.
    """

    def __init__(self, n_atoms: int, neg_edges: tuple[tuple[int, int], ...],
                 pos_pairs: frozenset[tuple[int, int]]):
        self.n_atoms = n_atoms
        self.neg_edges = neg_edges
        self.pos_pairs = pos_pairs  # (u, v) with u <= v; (x, x) is a loop
        adj: dict[int, list[int]] = {}
        for i, (x, y) in enumerate(neg_edges):
            v = n_atoms + i
            adj.setdefault(v, []).extend((x, y))
            adj.setdefault(x, []).append(v)
            adj.setdefault(y, []).append(v)
        for u, v in pos_pairs:
            if u == v:
                continue  # positive loops are reported directly, not walked
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        self.adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def n_vertices(self) -> int:
        return self.n_atoms + len(self.neg_edges)

    def vertex_label(self, v: int, p: Program) -> str:
        if v < self.n_atoms:
            return p.atom_name(v)
        x, y = self.neg_edges[v - self.n_atoms]
        return f"v_({p.atom_name(x)},{p.atom_name(y)})"


def _rule_edges(h: int, pos: int, neg: int):
    """Dependency edges of one rule given as masks: (all, negative)."""
    edges: list[tuple[int, int]] = []
    negative: list[tuple[int, int]] = []
    for x in atoms_of(h):
        others = h & ~(1 << x)
        edges += [(x, y) for y in atoms_of(pos | neg | others)]
        negative += [(x, y) for y in atoms_of(neg | others)]
    return tuple(edges), tuple(negative)


def _ddg(cp: CompiledProgram, rules) -> DependencyDigraph:
    """Directed dependency graph of (head, pos, neg) rule masks of cp."""
    edges: set[tuple[int, int]] = set()
    negative: set[tuple[int, int]] = set()
    for r in rules:
        found = cp.edges.get(r)
        if found is None:
            found = cp.edges[r] = _rule_edges(*r)
        edges.update(found[0])
        negative.update(found[1])
    return DependencyDigraph(cp.n_atoms, frozenset(edges), frozenset(negative))


def _udg(d: DependencyDigraph) -> UndirectedDepGraph:
    neg = tuple(sorted(d.negative))
    pos: set[tuple[int, int]] = set()
    for u, v in d.edges - d.negative:
        pos.add((u, v) if u <= v else (v, u))
    return UndirectedDepGraph(d.n_atoms, neg, frozenset(pos))


def build_ddg(p: Program) -> DependencyDigraph:
    """Directed dependency graph of p as given (no core() applied)."""
    cp = CompiledProgram(p)
    return _ddg(cp, cp.rules)


def build_udg(p: Program) -> UndirectedDepGraph:
    return _udg(build_ddg(p))


# ---------------------------------------------------------------------------
# cycle search (all deterministic: sorted iteration, FIFO BFS)

def _rotate_min(cycle: list[int]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _components(adj: dict[int, tuple[int, ...]],
                undirected: bool = False) -> dict[int, int]:
    """Component label per vertex: Tarjan's strongly connected components.

    Iterative, so deep graphs do not reach the recursion limit.  With
    undirected, the search does not walk back along the tree edge it came in
    by (a parallel edge still counts), which makes the components the
    2-edge-connected ones: an edge lies on a cycle iff its ends share a label.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    label: dict[int, int] = {}
    stack: list[int] = []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [[root, None, iter(adj[root])]]  # vertex, edge back, neighbours
        while work:
            frame = work[-1]
            u = frame[0]
            for w in frame[2]:
                if w == frame[1]:
                    frame[1] = None
                elif w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append([w, u if undirected else None,
                                 iter(adj.get(w, ()))])
                    break
                elif w not in label:  # still on the stack
                    low[u] = min(low[u], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[u])
                if low[u] == index[u]:
                    while stack[-1] != u:
                        label[stack.pop()] = u
                    label[stack.pop()] = u
    return label


def _bfs_path(adj: dict[int, tuple[int, ...]], src: int, dst: int, limit: int,
              skip_first: int | None = None) -> list[int] | None:
    """Shortest path src -> dst of at most limit edges, or None.

    FIFO order over sorted adjacency, so a path within the limit is the one
    an unbounded search returns.  skip_first suppresses the direct step
    src -> skip_first (used to rule out two-cycle returns, and to keep a
    negative vertex off the path around it).
    """
    parent = {src: src}
    frontier = [src]
    for _ in range(limit):
        nxt = []
        for u in frontier:
            for w in adj.get(u, ()):
                if w in parent or (u == src and w == skip_first):
                    continue
                parent[w] = u
                if w == dst:
                    path = [w]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return None


def find_directed_cycle(d: DependencyDigraph, *, bad_only: bool = False,
                        allow_good_two_cycles: bool = False) -> CycleWitness | None:
    """Shortest-found forbidden directed cycle, or None.

    bad_only restricts to cycles through a negative edge; with
    allow_good_two_cycles, two-cycles whose both edges are positive are
    permitted (self-loops and longer cycles stay forbidden).  Each candidate
    edge (u, v) is closed by the shortest path v -> u; the first shortest
    cycle in sorted edge order wins.
    """
    def witness(cycle: list[int]) -> CycleWitness:
        verts = _rotate_min(cycle)
        n = len(verts)
        bad = any((verts[i], verts[(i + 1) % n]) in d.negative for i in range(n))
        return CycleWitness("directed", verts, bad)

    candidates = sorted(d.negative if bad_only else d.edges)
    for u, v in candidates:
        if u == v:
            return witness([u])
    skip_two = allow_good_two_cycles and not bad_only
    if skip_two:
        for u, v in candidates:
            if u < v and (v, u) in d.edges:
                if (u, v) in d.negative or (v, u) in d.negative:
                    return witness([u, v])
    shortest = 3 if skip_two else 2
    comp = _components(d.succ)
    best: list[int] | None = None
    for u, v in candidates:
        if best is not None and len(best) == shortest:
            break
        if comp[u] != comp[v]:
            continue  # no path v -> u
        limit = (len(best) if best is not None else d.n_atoms + 1) - 2
        path = _bfs_path(d.succ, v, u, limit, skip_first=u if skip_two else None)
        if path is not None:
            best = [u] + path[:-1]
    return witness(best) if best is not None else None


def _tree_path(parent: dict[int, int], a: int) -> list[int]:
    """a, parent[a], ... up to the root of a BFS tree (whose parent is -1)."""
    path = [a]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def _shortest_positive_cycle(g: UndirectedDepGraph) -> list[int] | None:
    """Shortest cycle using only atom-atom (positive) edges."""
    adj = {u: [w for w in ns if w < g.n_atoms]
           for u, ns in g.adj.items() if u < g.n_atoms}
    best: list[int] | None = None
    for s in sorted(adj):
        if best is not None and len(best) == 3:
            break
        parent = {s: -1}
        q = deque([s])
        found: list[int] | None = None
        while q and found is None:
            u = q.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w and parent.get(w) != u:
                    # non-tree edge closes a cycle through the BFS tree
                    left, right = _tree_path(parent, u), _tree_path(parent, w)
                    on_left = set(left)
                    k = next(i for i, a in enumerate(right) if a in on_left)
                    found = left[:left.index(right[k]) + 1][::-1] + right[:k]
                    break
        if found is not None and (best is None or len(found) < len(best)):
            best = found
    return best


def find_undirected_cycle(g: UndirectedDepGraph, *,
                          bad_only: bool = False) -> CycleWitness | None:
    """Shortest-found forbidden undirected cycle, or None.

    A cycle is bad iff it passes through a negative vertex; every cycle found
    through the per-negative-vertex search is bad by construction.
    """
    def witness(cycle: list[int], bad: bool) -> CycleWitness:
        return CycleWitness("undirected", _rotate_min(cycle), bad, g)

    comp = _components(g.adj, undirected=True)
    best: list[int] | None = None
    for i, (x, y) in enumerate(g.neg_edges):
        v = g.n_atoms + i
        if x == y:
            best = [x, v]  # subdivided self-loop: the two parallel edge instances
            break
        if comp[x] != comp[y]:
            continue  # the edges through v are bridges
        limit = (len(best) if best is not None else g.n_vertices + 2) - 3
        path = _bfs_path(g.adj, x, y, limit, skip_first=v)
        if path is not None:
            best = [v] + path
    if bad_only:
        return witness(best, True) if best is not None else None

    for u, v in sorted(g.pos_pairs):
        if u == v:
            return witness([u], False)  # positive loop (non-core input)
    pos = _shortest_positive_cycle(g)
    if pos is not None and (best is None or len(pos) < len(best)):
        return witness(pos, False)
    return witness(best, True) if best is not None else None


def core_witness(cp: CompiledProgram, rules, c: TargetClass) -> CycleWitness | None:
    """Forbidden cycle for class c in the graph of the given rule masks of cp
    (its core, possibly after deletion)."""
    if c not in ACYCLIC_CLASSES:
        raise ValueError(f"{c} is not an acyclicity-based class")
    d = _ddg(cp, rules)
    if c is TargetClass.C_ACYC:
        return find_undirected_cycle(_udg(d))
    if c is TargetClass.BC_ACYC:
        return find_undirected_cycle(_udg(d), bad_only=True)
    if c is TargetClass.DC_ACYC:
        return find_directed_cycle(d)
    if c is TargetClass.DC2_ACYC:
        return find_directed_cycle(d, allow_good_two_cycles=True)
    return find_directed_cycle(d, bad_only=True)


def witness_cycle(p: Program, c: TargetClass) -> CycleWitness | None:
    """Forbidden cycle of core(p) for an acyclicity-based class, or None."""
    cp = CompiledProgram(p)
    return core_witness(cp, cp.core(), c)


def describe_witness(p: Program, w: CycleWitness) -> str:
    """Human-readable cycle like (w, r) or (s, v_(q,s), q, u).

    Undirected vertices are labelled against the graph the witness was
    found in.
    """
    if w.kind == "directed":
        names = [p.atom_name(v) for v in w.vertices]
    else:
        names = [w.graph.vertex_label(v, p) for v in w.vertices]
    return "(" + ", ".join(names) + ")"


# ---------------------------------------------------------------------------
# incidence graph

@dataclass(frozen=True)
class IncidenceGraph:
    n_rules: int
    n_atoms: int
    edges: frozenset[tuple[int, int]]  # (rule index, atom id)


def incidence_graph(p: Program) -> IncidenceGraph:
    edges = {(i, a) for i, r in enumerate(p.rules) for a in r.atoms}
    return IncidenceGraph(len(p.rules), p.n_atoms, frozenset(edges))


# ---------------------------------------------------------------------------
# DOT export

def dot_ddg(p: Program) -> str:
    d = build_ddg(p)
    lines = ["digraph ddg {"]
    for i in range(p.n_atoms):
        lines.append(f'  "{p.atom_name(i)}";')
    for u, v in sorted(d.edges):
        style = " [style=dashed]" if (u, v) in d.negative else ""
        lines.append(f'  "{p.atom_name(u)}" -> "{p.atom_name(v)}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_udg(p: Program) -> str:
    g = build_udg(p)
    lines = ["graph udg {"]
    for i in range(p.n_atoms):
        lines.append(f'  "{p.atom_name(i)}";')
    emitted = []
    for i, (x, y) in enumerate(g.neg_edges):
        v = g.n_atoms + i
        label = g.vertex_label(v, p)
        lines.append(f'  "{label}" [shape=box];')
        emitted.append((p.atom_name(x), label))
        emitted.append((label, p.atom_name(y)))
    for u, v in sorted(g.pos_pairs):
        emitted.append((p.atom_name(u), p.atom_name(v)))
    for a, b in emitted:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_incidence(p: Program) -> str:
    g = incidence_graph(p)
    lines = ["graph incidence {"]
    for i in range(g.n_rules):
        lines.append(f'  "r{i}" [shape=box];')
    for a in range(g.n_atoms):
        lines.append(f'  "{p.atom_name(a)}";')
    for i, a in sorted(g.edges):
        lines.append(f'  "r{i}" -- "{p.atom_name(a)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
