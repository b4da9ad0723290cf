"""Class membership, dependency and incidence graphs, cycle witnesses, DOT.

Membership in every target class is decided here by masking the rules;
only the deletion search and its oracle build deletion_violation's closure.

The directed dependency graph has an edge (x, y) whenever some rule has x in
the head and y in the body, or x and y jointly in the head; the edge is
negative when some justifying occurrence has y in the negative body or comes
from a shared head.  The undirected variant (DependencyDigraph.udg)
subdivides every negative edge with a fresh "negative vertex" and forgets
orientation (mutually directed positive edges collapse to one undirected
edge).  Each graph holds per-atom int masks, built straight from rule
bitmasks, and its edge sets are views built when read.  Every cycle search
runs on masks, one per vertex; one Tarjan pass per graph, on first read,
gives the components (strongly connected, or 2-edge-connected when
undirected; c-acyc's positive cycles are searched on the positive edges as
a graph of their own), a component with as many edges as vertices is one
simple cycle of known length, and in any other a mask breadth-first search
measures a candidate's distance, bounded by the best cycle so far.  Only
the winner's FIFO path is rebuilt.  classify and each deletion search build
core_graph, the graph of the rules that are not tautological, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .program import (ACYCLIC_CLASSES, CompiledProgram, Program, TargetClass,
                      atom_mask, atoms_of)
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
    """Directed dependency graph over the atom table of a program: succ[u]
    masks the successors of atom u, neg[u] those over a negative edge.  Its
    components and undirected graph are built on first read, into plain
    attributes, as a cached_property takes a lock on each first read."""

    def __init__(self, succ: list[int], neg: list[int]):
        self.succ = succ
        self.neg = neg
        self._comp = self._udg = None

    @property
    def comp(self) -> list[int]:
        if self._comp is None:
            self._comp = _components(self.succ)
        return self._comp

    @property
    def udg(self) -> UndirectedDepGraph:
        if self._udg is None:
            self._udg = _udg(self.succ, self.neg)
        return self._udg

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, w) for u, m in enumerate(self.succ) for w in atoms_of(m))

    @cached_property
    def negative(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, w) for u, m in enumerate(self.neg) for w in atoms_of(m))


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

    @cached_property
    def bad_cycle(self) -> list[int] | None:  # shared by every search on it
        return _bad_cycle(self.n_atoms, self.neg_edges, self.pos)

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
    return DependencyDigraph(*_dep_masks(p.n_atoms, CompiledProgram(p).rules))


def build_udg(p: Program) -> UndirectedDepGraph:
    return build_ddg(p).udg


def core_graph(cp: CompiledProgram) -> DependencyDigraph:
    """Dependency graph of the rules of cp that are not tautological."""
    return DependencyDigraph(*_dep_masks(cp.n_atoms, [
        r for r in cp.rules if not r[1] & (r[0] | r[2])]))


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
        while frontier and d < limit:  # the last level is not expanded
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


def _first_shortest(adj: list[int], comp: list[int], cands, degree: int,
                    extra: int, floor: int) -> list[int] | None:
    """The path src -> dst of the first candidate (src, dst, skip) whose cycle
    is shorter than those before it and has at least floor vertices; or None.
    The cycle has extra vertices more than the path has edges: 1 when an edge
    dst -> src closes it, 2 when a negative vertex does.  A component where
    every vertex has degree neighbours (1 directed, 2 undirected) is one
    simple cycle."""
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
            if all((adj[w] & cm).bit_count() == degree for w in atoms_of(cm)):
                settled |= cm
                if length > cm.bit_count() >= floor:
                    length, best = cm.bit_count(), (src, dst, skip, cm)
                continue
            tangled |= cm
        if length - 1 - extra == 1:  # only the edge src -> dst is short enough
            d = 1 if (adj[src] & ~skip) >> dst & 1 else None
        else:
            d = _distance(adj, src, dst, length - 1 - extra, cm, skip)
        if d is not None:
            length, best = d + extra, (src, dst, skip, cm)
    return None if best is None else _fifo_path(adj, *best)


def _bad_cycle(n: int, neg_edges, pos: list[int]) -> list[int] | None:
    """The cycle through a negative vertex that find_undirected_cycle finds."""
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
            (x, y, 1 << n + i) for i, (x, y) in enumerate(neg_edges)), 2, 2, 3)
        if path is not None:  # negative edges are distinct
            best = [n + neg_edges.index((path[0], path[-1]))] + path
    return best


def _undirected_cycle(pos: list[int], bad_only: bool,
                      best: list[int] | None) -> tuple[list[int], bool] | None:
    """The search of find_undirected_cycle, given its bad cycle best:
    (cycle, bad) or None.  Positive edge (u, v), u < v, is closed by a path
    v -> u that does not take it."""
    if not bad_only:
        for u in (u for u, m in enumerate(pos) if m >> u & 1):
            return [u], False  # positive loop (non-core input)
        comp = _components(pos, undirected=True)
        cycle = _first_shortest(pos, comp, (
            (v, u, 1 << u) for u, m in enumerate(pos) if m & comp[u]
            for v in atoms_of(m >> u << u & comp[u])), 2, 1, 3)
        if cycle is not None and (best is None or len(cycle) < len(best)):
            return cycle, False
    return (best, True) if best is not None else None


def find_directed_cycle(d: DependencyDigraph, *, bad_only: bool = False,
                        allow_good_two_cycles: bool = False) -> CycleWitness | None:
    """Shortest-found forbidden directed cycle, or None.  bad_only restricts
    to cycles through a negative edge; allow_good_two_cycles permits
    two-cycles of positive edges.  Each candidate edge (u, v) is closed by the
    shortest path v -> u; the first shortest cycle in sorted edge order wins.
    It reads d.comp only past loops and, if it allows good two-cycles, bad ones.
    """
    succ, neg = d.succ, d.neg

    def witness(cycle: list[int]) -> CycleWitness:
        verts = _rotate_min(cycle)
        bad = any(neg[a] >> b & 1 for a, b in zip(verts, verts[1:] + verts[:1]))
        return CycleWitness("directed", verts, bad)

    cand, skip_two = (neg, False) if bad_only else (succ, allow_good_two_cycles)
    for u in (u for u, m in enumerate(cand) if m >> u & 1):
        return witness([u])
    for u, m in enumerate(succ if skip_two else ()):
        for v in atoms_of(m >> u + 1 << u + 1):
            if succ[v] >> u & 1 and (neg[u] >> v | neg[v] >> u) & 1:
                return witness([u, v])
    # edge (u, v) is closed by a path v -> u; with skip_two, not by v -> u
    comp = d.comp
    path = _first_shortest(succ, comp, (
        (v, u, skip_two << u) for u, m in enumerate(cand) if m & comp[u]
        for v in atoms_of(m & comp[u])), 1, 1, 3 if skip_two else 2)
    return None if path is None else witness(path[-1:] + path[:-1])


def find_undirected_cycle(g: UndirectedDepGraph, *,
                          bad_only: bool = False) -> CycleWitness | None:
    """Shortest forbidden undirected cycle, or None; bad iff it passes a
    negative vertex, as every cycle of the per-negative-vertex search does.
    A positive loop comes first; a positive cycle wins only when strictly
    shorter than every bad one.  Among cycles of one kind and length the
    first in sorted order of the edge that closes it wins: positive edge
    (u, v), u < v, closed by a shortest path v -> u, or negative vertex
    n_atoms+i by one between its ends."""
    found = _undirected_cycle(g.pos, bad_only, g.bad_cycle)
    return None if found is None else CycleWitness(
        "undirected", _rotate_min(found[0]), found[1], g)


def cycle_witness(d: DependencyDigraph, c: TargetClass) -> CycleWitness | None:
    """Forbidden cycle for class c in the dependency graph d."""
    if c not in ACYCLIC_CLASSES:
        raise ValueError(f"{c} is not an acyclicity-based class")
    if c is TargetClass.C_ACYC or c is TargetClass.BC_ACYC:
        return find_undirected_cycle(d.udg, bad_only=c is TargetClass.BC_ACYC)
    return find_directed_cycle(d, bad_only=c is TargetClass.STRAT,
                               allow_good_two_cycles=c is TargetClass.DC2_ACYC)


def _branch_atoms(d: DependencyDigraph, pred: list[int],
                  cycle: tuple[int, ...]) -> int:
    """The atoms of a cycle in graph d that a deletion search branches on
    when no deletion adds an edge; pred[a],
    masked by the live atoms, holds a's in-neighbours.  Atom a defers to u
    if u is its only in-neighbour in its component, else its only
    out-neighbour there: every cycle through a, in any subgraph, then passes
    u, so a solution holding a stays one with u in its place.  The roots of
    the deferral chains remain."""
    succ, cm = d.succ, d.comp[cycle[0]]
    # in cm, a's only in-neighbour can only be its predecessor on the cycle and
    # its only out-neighbour its successor: a defers a step back (-1), on (1)
    # or not (0).  So a chain that closes on itself is a pair deferring to
    # each other or the whole cycle one way round; it keeps its least atom.
    steps = [-1 if not (m := pred[a] & cm) & (m - 1)
             else int(not (m := succ[a] & cm) & (m - 1)) for a in cycle]
    out = 0
    for i, a in enumerate(cycle):
        if not steps[i]:
            out |= 1 << a
        elif (steps[i], steps[i + 1 - len(cycle)]) == (1, -1):
            out |= 1 << min(a, cycle[i + 1 - len(cycle)])
    return out or 1 << min(cycle)


def deletion_violation(cp: CompiledProgram, c: TargetClass):
    """x -> (violation(cp, c, x), branch), built once per deletion search or
    oracle query; branch holds the atoms to branch on.  Horn: violation's
    answer, both.  An acyclicity class c, on one graph: the masked head of
    the first rule left non-tautological with two head atoms, else the atoms
    of the forbidden cycle once the rows of x are zeroed, the rest ANDed
    with ~x and the edges of the rules x wakes ORed in (exact, as deletion
    keeps a non-tautological rule's other edges as they are); if x wakes
    none, the undirected graph is masked so, not rebuilt.  branch drops the
    dominated atoms (_branch_atoms) of a directed cycle whose search read
    the components, where pred is built: no rule is tautological or
    disjunctive."""
    if c not in ACYCLIC_CLASSES:  # Horn, or an unknown class violation rejects
        return lambda x: (violation(cp, c, x),) * 2
    d, n, occ, wake = core_graph(cp), cp.n_atoms, cp.occurring, cp.wake
    taut = [r for r in cp.rules if r[1] & (r[0] | r[2])]
    multi = [r for r in cp.rules if r[0] & (r[0] - 1)]
    udg = d.udg if c is TargetClass.C_ACYC or c is TargetClass.BC_ACYC else None
    ends = [(e, 1 << e[0] | 1 << e[1]) for e in udg.neg_edges] if udg else None
    pred = None
    if ends is None and not wake and not multi:
        # no deletion adds an edge, so pred masked by the live atoms gives each
        # node's in-neighbours
        pred = [0] * n
        for u, m in enumerate(d.succ):
            for w in atoms_of(m):
                pred[w] |= 1 << u

    def viol(x: int) -> tuple[int, int]:
        keep = ~x
        for h, pos, ng in multi:
            h &= keep
            if h & (h - 1) and not pos & keep & (h | ng):
                return h, h
        if ends is not None and not x & wake:
            pos = [m & keep for m in udg.pos]
            for a in atoms_of(x & occ):
                pos[a] = 0
            found = _undirected_cycle(pos, c is TargetClass.BC_ACYC, _bad_cycle(
                n, tuple(e for e, m in ends if not m & x), pos))
            v = 0 if found is None else atom_mask(v for v in found[0] if v < n)
            return v, v
        s, g = [m & keep for m in d.succ], [m & keep for m in d.neg]
        for a in atoms_of(x & occ):
            s[a] = g[a] = 0
        for h, pos, ng in taut if x & wake else ():
            h, pos, ng = h & keep, pos & keep, ng & keep
            if h and not pos & (h | ng):  # woken, with one head atom
                s[h.bit_length() - 1] |= pos | ng
                g[h.bit_length() - 1] |= ng
        dx = DependencyDigraph(s, g)
        w = cycle_witness(dx, c)
        v = 0 if w is None else atom_mask(v for v in w.vertices if v < n)
        return v, _branch_atoms(dx, pred, w.vertices) if v and pred and dx._comp else v
    return viol


def violation(cp: CompiledProgram, c: TargetClass, x: int = 0, true: int | None = None) -> int:
    """Atoms (a mask) of the first violation of class c by the core of the
    compiled program with the atoms of x deleted, or of its truth-assignment
    reduct by true (see CompiledProgram.core), else 0; each holds an atom
    outside x.  Horn (deletions too): the head and negative body of the first
    non-Horn rule, as deleting a positive body atom never makes a rule Horn.
    Acyclicity: the head of the first non-normal rule, else the atom vertices
    of the forbidden cycle in the masks ORed from the masked rules.  Every
    one-off query runs here; deletion_violation's closure, which the
    deletion search builds, gives the same violation."""
    rules = cp.core(x, true)
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
    w = cycle_witness(DependencyDigraph(*_dep_masks(cp.n_atoms, rules)), c)
    return 0 if w is None else atom_mask(v for v in w.vertices if v < cp.n_atoms)


def in_target_class(p: Program, c: TargetClass) -> bool:
    """Membership of p in class c (always modulo tautologies/constraints)."""
    return violation(CompiledProgram(p), c) == 0


def witness_cycle(p: Program, c: TargetClass) -> CycleWitness | None:
    """Forbidden cycle of core(p) for an acyclicity-based class, or None."""
    return cycle_witness(core_graph(CompiledProgram(p)), c)


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
