import pytest

from aspback import (GenConfig, TargetClass, build_ddg, build_udg, child_seed, core,
                     parse_program, random_program)

EX1_TEXT = """
s :- w.
u :- s, q.
r :- w, s.
t :- not r.
q :- not s, u.
w :- not r, u.
"""


@pytest.fixture
def ex1():
    return parse_program(EX1_TEXT)


@pytest.fixture
def ex1_ids(ex1):
    return {ex1.atom_name(i): i for i in range(ex1.n_atoms)}


def names_of(p, atoms):
    return frozenset(p.atom_name(a) for a in atoms)


def rule_sig(p, r):
    """Name-level (head, pos, neg) triple, stable under atom-id permutation."""
    return (names_of(p, r.head), names_of(p, r.pos_body), names_of(p, r.neg_body))


def program_sigs(p):
    return [rule_sig(p, r) for r in p.rules]


def corpus(count, seed, n_atoms=8, density=None, body_len=2, neg_prob=0.5):
    """Deterministic list of random programs with varied shape."""
    out = []
    for i in range(count):
        n = 3 + i % n_atoms if isinstance(n_atoms, int) else n_atoms[i % len(n_atoms)]
        rho = density if density is not None else 1 + (i * 3) % 8
        cfg = GenConfig(n_atoms=n, density=rho, body_len=min(body_len, n - 1),
                        neg_prob=neg_prob, seed=child_seed(seed, i))
        out.append(random_program(cfg))
    return out


def check_witness(p, c, w):
    """w is a cycle of the graph of core(p), flagged bad exactly when it uses
    a negative edge or vertex, and bad whenever class c forbids only those."""
    verts = w.vertices
    steps = list(zip(verts, verts[1:] + verts[:1]))
    assert len(set(verts)) == len(verts)
    if w.kind == "directed":
        d = build_ddg(core(p))
        assert all(e in d.edges for e in steps)
        assert w.bad == any(e in d.negative for e in steps)
    else:
        g = build_udg(core(p))
        assert all(b in g.adj.get(a, ()) for a, b in steps)
        # two vertices close a cycle only through a subdivided self-loop
        assert len(verts) > 2 or g.adj[verts[0]].count(verts[1]) == 2
        assert w.bad == any(v >= g.n_atoms for v in verts)
    if c in (TargetClass.STRAT, TargetClass.BC_ACYC):
        assert w.bad
