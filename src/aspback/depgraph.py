"""Dependency graphs, acyclicity witnesses, incidence graph, DOT export.

The directed dependency graph has an edge (x, y) whenever some rule has x in
the head and y in the body, or x and y jointly in the head; the edge is
negative when some justifying occurrence has y in the negative body or comes
from a shared head.  The undirected variant subdivides every negative edge
with a fresh "negative vertex" and forgets orientation (mutually directed
positive edges collapse to one undirected edge).  Every cycle search runs on
int masks, one per vertex, built straight from rule bitmasks; one Tarjan
pass gives the components (strongly connected, or 2-edge-connected when
undirected), a component with as many edges as vertices is one simple cycle
of known length, and in any other a mask breadth-first search measures a
candidate's distance, bounded by the best cycle so far.  Only the winner's
FIFO path is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .program import (ACYCLIC_CLASSES, CompiledProgram, Program, TargetClass,
                      atoms_of)
# not called here, but perfbench/tracer.py wraps depgraph.core by this name
from .program import core  # noqa: F401


@dataclass(frozen=True)
class CycleWitness:
    """A forbidden cycle: vertices in cyclic order, badness flag.  Directed
    witnesses list atom ids in edge direction; undirected ones may hold
    negative vertices (ids >= n_atoms of their graph), which graph labels."""

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


class UndirectedDepGraph:
    """Undirected dependency graph with subdivided negative edges: negative
    vertex n_atoms+i subdivides the i-th negative directed edge (sorted);
    pos[u] masks the atoms joined to atom u by a positive edge (bit u: a
    loop).  adj keeps multiplicity: a subdivided self-loop is a 2-cycle."""

    def __init__(self, n_atoms: int, neg_edges: tuple[tuple[int, int], ...],
                 pos: list[int]):
        self.n_atoms = n_atoms
        self.neg_edges = neg_edges
        self.pos = pos

    @cached_property
    def pos_pairs(self) -> frozenset[tuple[int, int]]:  # (u, v), u <= v
        return frozenset((u, w) for u, m in enumerate(self.pos) for w in atoms_of(m >> u << u))

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        adj = {u: atoms_of(m & ~(1 << u)) for u, m in enumerate(self.pos) if m & ~(1 << u)}
        for i, (x, y) in enumerate(self.neg_edges):
            adj[self.n_atoms + i] = [x, y]
            adj.setdefault(x, []).append(self.n_atoms + i)
            adj.setdefault(y, []).append(self.n_atoms + i)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def n_vertices(self) -> int:
        return self.n_atoms + len(self.neg_edges)

    def vertex_label(self, v: int, p: Program) -> str:
        if v < self.n_atoms:
            return p.atom_name(v)
        x, y = self.neg_edges[v - self.n_atoms]
        return f"v_({p.atom_name(x)},{p.atom_name(y)})"


def _dep_masks(n: int, rules) -> tuple[list[int], list[int]]:
    """Per atom, its successor and negative-successor masks under rules."""
    succ, neg = [0] * n, [0] * n
    for h, pos, ng in rules:
        if not h & (h - 1):  # one head atom, or a constraint
            if h:
                x = h.bit_length() - 1
                succ[x] |= pos | ng
                neg[x] |= ng
            continue
        for x in atoms_of(h):
            others = h ^ 1 << x
            succ[x] |= pos | ng | others
            neg[x] |= ng | others
    return succ, neg


def _udg(succ: list[int], neg: list[int]) -> UndirectedDepGraph:
    """The undirected graph of the directed one given by its masks."""
    pos = [s & ~m for s, m in zip(succ, neg)]
    for u, m in enumerate(pos):
        while m:
            pos[(m & -m).bit_length() - 1] |= 1 << u
            m &= m - 1
    return UndirectedDepGraph(len(succ), tuple(
        (u, w) for u, m in enumerate(neg) if m for w in atoms_of(m)), pos)


def build_ddg(p: Program) -> DependencyDigraph:
    """Directed dependency graph of p as given (no core() applied)."""
    return DependencyDigraph(p.n_atoms, *(
        frozenset((u, w) for u, m in enumerate(masks) for w in atoms_of(m))
        for masks in _dep_masks(p.n_atoms, CompiledProgram(p).rules)))


def build_udg(p: Program) -> UndirectedDepGraph:
    return _udg(*_dep_masks(p.n_atoms, CompiledProgram(p).rules))


# ---------------------------------------------------------------------------
# cycle search (all deterministic: ascending candidates, FIFO paths)

def _rotate_min(cycle: list[int]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _components(adj: list[int], undirected: bool = False) -> list[int]:
    """Per vertex, the mask of its strongly connected component in adj, or 0
    when it is alone (iterative Tarjan; an entered vertex takes up its
    neighbours on the stack at once, as no other can move its low link).
    Undirected (symmetric, no parallel edges), the parent does not count:
    the components are 2-edge-connected, an edge is on a cycle iff in one."""
    index, low, comp = [0] * len(adj), [0] * len(adj), [0] * len(adj)
    stack: list[int] = []
    into = visited = onstack = count = 0
    for u, m in enumerate(adj):  # never entered: no successor (degree one
        into |= m                # when undirected) or no predecessor
        visited |= (not m & (m - 1) if undirected else not m) << u
    rest = into & ~visited
    while rest:
        work = [u := (rest & -rest).bit_length() - 1]
        while True:  # enter u, the top of work
            count += 1
            index[u] = low[u] = count
            stack.append(u)
            visited |= 1 << u
            onstack |= 1 << u
            back = adj[u] & onstack
            if undirected and len(work) > 1:
                back &= ~(1 << work[-2])
            while back:
                low[u] = min(low[u], index[(back & -back).bit_length() - 1])
                back &= back - 1
            while work:
                u = work[-1]
                ahead = adj[u] & ~visited
                if ahead:
                    work.append(u := (ahead & -ahead).bit_length() - 1)
                    break
                work.pop()
                if work and low[u] < low[work[-1]]:
                    low[work[-1]] = low[u]
                if low[u] == index[u]:
                    if stack[-1] == u:  # alone
                        onstack ^= 1 << stack.pop()
                        continue
                    # u lies at most count - index[u] places below the top
                    i = stack.index(u, max(0, len(stack) - 1 - count + index[u]))
                    cm = sum(1 << w for w in stack[i:])
                    onstack ^= cm
                    for w in stack[i:]:
                        comp[w] = cm
                    del stack[i:]
            else:
                break
        rest &= ~visited
    return comp


def _distance(adj: list[int], src: int, dst: int, limit: int, within: int,
              skip: int) -> int | None:
    """Edges of a shortest path src -> dst inside the vertex mask within, if
    at most limit; skip (a mask) bars the first step out of src."""
    seen, frontier = 1 << src, adj[src] & within & ~skip & ~(1 << src)
    for d in range(1, limit + 1):
        if frontier >> dst & 1:
            return d
        seen |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
    return None


def _fifo_path(adj: list[int], src: int, dst: int, skip: int,
               within: int) -> list[int] | None:
    """The path src -> dst (reachable) that a FIFO breadth-first search over
    ascending neighbours inside within finds, skip barred as above."""
    parent, seen, queue = {}, 1 << src, [src]
    for u in queue:
        new = adj[u] & within & ~seen & ~(skip if u == src else 0)
        if new >> dst & 1:
            path = [dst, u]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return path[::-1]
        seen |= new
        parent.update(dict.fromkeys(atoms_of(new), u))
        queue += atoms_of(new)


def _first_shortest(adj: list[int], comp: list[int], cands, undirected: bool,
                    floor: int) -> list[int] | None:
    """The path src -> dst of the first candidate (src, dst, skip) whose cycle
    (one vertex more than the path has edges, two when undirected) is shorter
    than those before it and has at least floor vertices; or None."""
    extra = 1 + undirected
    length, best, settled, tangled = len(adj) + extra, None, 0, 0
    for src, dst, skip in cands:
        cm = comp[src]
        if length == floor:
            break
        if not cm >> dst & 1 or cm & settled:
            continue  # no path src -> dst, or one no shorter
        if not cm & tangled:
            # least degree everywhere: as many edges as vertices, so cm is
            # one simple cycle, the one every candidate in it closes
            if all((adj[w] & cm).bit_count() == extra for w in atoms_of(cm)):
                settled |= cm
                if length > cm.bit_count() >= floor:
                    length, best = cm.bit_count(), (src, dst, skip, cm)
                continue
            tangled |= cm
        d = _distance(adj, src, dst, length - 1 - extra, cm, skip)
        if d is not None:
            length, best = d + extra, (src, dst, skip, cm)
    return None if best is None else _fifo_path(adj, *best)


def _directed_cycle(succ: list[int], neg: list[int], bad_only: bool,
                    skip_two: bool) -> CycleWitness | None:
    """The search of find_directed_cycle on successor masks."""
    def witness(cycle: list[int]) -> CycleWitness:
        verts = _rotate_min(cycle)
        bad = any(neg[a] >> b & 1 for a, b in zip(verts, verts[1:] + verts[:1]))
        return CycleWitness("directed", verts, bad)

    cand = neg if bad_only else succ
    for u in (u for u, m in enumerate(cand) if m >> u & 1):
        return witness([u])
    for u, m in enumerate(succ if skip_two else ()):
        for v in atoms_of(m >> u + 1 << u + 1):
            if succ[v] >> u & 1 and (neg[u] >> v | neg[v] >> u) & 1:
                return witness([u, v])
    # edge (u, v) is closed by a path v -> u; with skip_two, not by v -> u
    comp = _components(succ)
    path = _first_shortest(succ, comp, (
        (v, u, skip_two << u) for u, m in enumerate(cand) if m & comp[u]
        for v in atoms_of(m & comp[u])), False, 3 if skip_two else 2)
    return None if path is None else witness(path[-1:] + path[:-1])


def _undirected_cycle(n: int, neg_edges, pos: list[int],
                      bad_only: bool) -> tuple[list[int], bool] | None:
    """The search of find_undirected_cycle: (cycle, bad) or None."""
    best = next(([x, n + i] for i, (x, y) in enumerate(neg_edges) if x == y), None)
    if best is None:
        # no subdivided self-loop (the shortest), so no parallel edges; n + i
        # closes a cycle by a path between its ends that does not pass it
        adj = [m & ~(1 << u) for u, m in enumerate(pos)]
        adj += [1 << x | 1 << y for x, y in neg_edges]
        for i, (x, y) in enumerate(neg_edges):
            adj[x] |= 1 << n + i
            adj[y] |= 1 << n + i
        path = _first_shortest(adj, _components(adj, undirected=True), (
            (x, y, 1 << n + i) for i, (x, y) in enumerate(neg_edges)), True, 3)
        if path is not None:  # negative edges are distinct
            best = [n + neg_edges.index((path[0], path[-1]))] + path
    if not bad_only:
        for u in (u for u, m in enumerate(pos) if m >> u & 1):
            return [u], False  # positive loop (non-core input)
        cycle = _positive_cycle([m & ~(1 << u) for u, m in enumerate(pos)])
        if cycle is not None and (best is None or len(cycle) < len(best)):
            return cycle, False
    return (best, True) if best is not None else None


def _positive_cycle(adj: list[int]) -> list[int] | None:
    """Shortest cycle found by FIFO breadth-first search from each vertex in
    turn, closed by the first non-tree edge: the lowest seen neighbour, not
    the parent, of the first vertex u with one.  A search finding none has
    walked a tree, where no other search finds one."""
    best: list[int] | None = None
    trees = 0
    for s, m in enumerate(adj):
        if best is not None and len(best) == 3:
            break
        if not m or trees >> s & 1:
            continue
        parent, seen, queue = {s: s}, 1 << s, [s]
        for u in queue:
            closing = adj[u] & seen & ~(1 << parent[u])
            if closing:
                left, right = [u], [(closing & -closing).bit_length() - 1]
                for path in (left, right):
                    while parent[path[-1]] != path[-1]:
                        path.append(parent[path[-1]])
                k = next(i for i, a in enumerate(right) if a in left)
                found = left[:left.index(right[k]) + 1][::-1] + right[:k]
                if best is None or len(found) < len(best):
                    best = found
                break
            new = adj[u] & ~seen
            seen |= new
            while new:
                parent[w := (new & -new).bit_length() - 1] = u
                queue.append(w)
                new &= new - 1
        else:
            trees |= seen
    return best


def find_directed_cycle(d: DependencyDigraph, *, bad_only: bool = False,
                        allow_good_two_cycles: bool = False) -> CycleWitness | None:
    """Shortest-found forbidden directed cycle, or None.  bad_only restricts
    to cycles through a negative edge; allow_good_two_cycles permits
    two-cycles of positive edges.  Each candidate edge (u, v) is closed by the
    shortest path v -> u; the first shortest cycle in sorted edge order wins.
    """
    rules = [(1 << u, 1 << v, 0) for u, v in d.edges - d.negative]
    rules += [(1 << u, 0, 1 << v) for u, v in d.negative]  # one rule per edge
    return _directed_cycle(*_dep_masks(d.n_atoms, rules), bad_only,
                           allow_good_two_cycles and not bad_only)


def find_undirected_cycle(g: UndirectedDepGraph, *,
                          bad_only: bool = False) -> CycleWitness | None:
    """Shortest-found forbidden undirected cycle, or None; bad iff it passes
    a negative vertex, as every cycle of the per-negative-vertex search does."""
    found = _undirected_cycle(g.n_atoms, g.neg_edges, g.pos, bad_only)
    return None if found is None else CycleWitness(
        "undirected", _rotate_min(found[0]), found[1], g)


def core_witness(cp: CompiledProgram, rules, c: TargetClass) -> CycleWitness | None:
    """Forbidden cycle for class c in the graph of the given rule masks of cp
    (its core, possibly after deletion)."""
    if c not in ACYCLIC_CLASSES:
        raise ValueError(f"{c} is not an acyclicity-based class")
    succ, neg = _dep_masks(cp.n_atoms, rules)
    if c is TargetClass.C_ACYC or c is TargetClass.BC_ACYC:
        return find_undirected_cycle(_udg(succ, neg),
                                     bad_only=c is TargetClass.BC_ACYC)
    return _directed_cycle(succ, neg, c is TargetClass.STRAT,
                           c is TargetClass.DC2_ACYC)


def witness_cycle(p: Program, c: TargetClass) -> CycleWitness | None:
    """Forbidden cycle of core(p) for an acyclicity-based class, or None."""
    cp = CompiledProgram(p)
    return core_witness(cp, cp.core(), c)


def describe_witness(p: Program, w: CycleWitness) -> str:
    """Human-readable cycle like (w, r) or (s, v_(q,s), q, u), labelled
    against the graph the witness was found in."""
    return "(" + ", ".join(w.graph.vertex_label(v, p) if w.graph else p.atom_name(v)
                           for v in w.vertices) + ")"


# ---------------------------------------------------------------------------
# incidence graph

@dataclass(frozen=True)
class IncidenceGraph:
    n_rules: int
    n_atoms: int
    edges: frozenset[tuple[int, int]]  # (rule index, atom id)


def incidence_graph(p: Program) -> IncidenceGraph:
    edges = {(i, a) for i, r in enumerate(p.rule_parts) for part in r for a in part}
    return IncidenceGraph(len(p.rule_parts), p.n_atoms, frozenset(edges))


# ---------------------------------------------------------------------------
# DOT export

def _dot(kind: str, lines: list[str]) -> str:
    return "\n".join([f"{kind} {{", *lines, "}"]) + "\n"


def dot_ddg(p: Program) -> str:
    d = build_ddg(p)
    lines = [f'  "{a}";' for a in p.atom_names]
    for u, v in sorted(d.edges):
        style = " [style=dashed]" if (u, v) in d.negative else ""
        lines.append(f'  "{p.atom_name(u)}" -> "{p.atom_name(v)}"{style};')
    return _dot("digraph ddg", lines)


def dot_udg(p: Program) -> str:
    g = build_udg(p)
    lines = [f'  "{a}";' for a in p.atom_names]
    emitted = []
    for i, (x, y) in enumerate(g.neg_edges):
        label = g.vertex_label(g.n_atoms + i, p)
        lines.append(f'  "{label}" [shape=box];')
        emitted += [(p.atom_name(x), label), (label, p.atom_name(y))]
    emitted += [(p.atom_name(u), p.atom_name(v)) for u, v in sorted(g.pos_pairs)]
    return _dot("graph udg", lines + [f'  "{a}" -- "{b}";' for a, b in emitted])


def dot_incidence(p: Program) -> str:
    g = incidence_graph(p)
    lines = [f'  "r{i}" [shape=box];' for i in range(g.n_rules)]
    lines += [f'  "{a}";' for a in p.atom_names]
    lines += [f'  "r{i}" -- "{p.atom_name(a)}";' for i, a in sorted(g.edges)]
    return _dot("graph incidence", lines)
