"""The benchmark's workloads: seeded inputs, CLI cases and output checks.

Every workload is a fixed list of ``aspback`` CLI calls made from inputs
that depend only on the seed.  Random programs take the seed through
``child_seed(seed, i)``; the loop gadgets, the conflict path and the negative
cycle do not depend on it.  Each case carries a check that reads the CLI's
JSON output against a closed form, an oracle from the package, or a
property the generator guarantees; checks run outside the timed span.

Sizes are set so that one pass takes 5-11 s on a 2-vCPU x86 VM before any
optimisation, which lets each case repeat within a run's window, and so
that a pass's wall time moves little from seed to seed.  Random cases are
therefore many and small: the
detection searches have heavy-tailed run times (one n=100 strong Horn case
took 10.7 s where its neighbours took 0.2 s), and a sum over a few large
random cases moved by more than a quarter from one seed to the next.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

# A check returns None when the output is right, else what is wrong.
Check = Callable[[int, str], "str | None"]


@dataclass
class Case:
    name: str
    argv: list[str]
    seed: int | None
    cap_s: float
    check: Check
    # brute-force cross-check, run only by ``run.py --oracle``
    oracle: Callable[[dict], "str | None"] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (aspback namespace, seed, input dir) -> list[Case]


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _json_check(expect_exit: int, judge: Callable[[dict], "str | None"]) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != expect_exit:
            return f"exit code {code}, expected {expect_exit}"
        return judge(json.loads(out))
    return check


def _ids(p, names) -> frozenset[int]:
    return frozenset(p.atom_id(n) for n in names)


def _random(ab, n: int, density: float, seed: int):
    return ab.random_program(ab.GenConfig(n, density, seed=seed))


# ---------------------------------------------------------------------------
# solve-loops: odd and even loop gadgets over a Horn chain

N_ODD = 13
N_EVEN = 6
CHAIN = 485
LOOP_CAP_S = 60.0


def _chain() -> list[str]:
    return ["c0."] + [f"c{i + 1} :- c{i}." for i in range(CHAIN)]


def _odd_judge(payload: dict) -> str | None:
    total = 2 ** N_ODD
    got = (payload["result"], payload["candidates_total"],
           payload["candidates_rejected"], sorted(payload["backdoor"]))
    want = (0, total, total, sorted(f"g{i}" for i in range(N_ODD)))
    return None if got == want else f"got {got[:3]}, expected {want[:3]}"


def _even_answer_sets() -> set[frozenset[str]]:
    chain = {f"c{i}" for i in range(CHAIN + 1)}
    return {frozenset(chain | {f"a{i}" if mask >> i & 1 else f"b{i}"
                               for i in range(N_EVEN)})
            for mask in range(2 ** N_EVEN)}


def _even_judge(mode: str) -> Callable[[dict], "str | None"]:
    def judge(payload: dict) -> str | None:
        if (payload["candidates_total"], payload["answer_set_count"]) != (
                2 ** N_EVEN, 2 ** N_EVEN):
            return f"expected {2 ** N_EVEN} candidates, each an answer set"
        result = payload["result"]
        if mode == "enumerate":
            if (len(result) != 2 ** N_EVEN
                    or set(map(frozenset, result)) != _even_answer_sets()):
                return "enumerated answer sets differ from the closed form"
            return None
        # brave and cautious ask about a0, which is in half of the answer sets
        want = {"consistency": True, "brave": True, "cautious": False}[mode]
        if result is not want:
            return f"result {result!r}, expected {want!r}"
        return None
    return judge


def build_solve_loops(ab, seed: int, workdir: str) -> list[Case]:
    odd = _write(workdir, "odd.lp", "\n".join(
        [f"g{i} :- not g{i}." for i in range(N_ODD)] + _chain()) + "\n")
    even = _write(workdir, "even.lp", "\n".join(
        [f"a{i} :- not b{i}.\nb{i} :- not a{i}." for i in range(N_EVEN)]
        + _chain()) + "\n")
    cases = []
    for jobs in (1, 2):
        cases.append(Case(
            f"odd{N_ODD}-count-jobs{jobs}",
            ["solve", odd, "--mode", "count", "--jobs", str(jobs),
             "--format", "json"],
            None, LOOP_CAP_S, _json_check(0, _odd_judge)))
    for mode in ("enumerate", "consistency", "brave", "cautious"):
        atom = ["--atom", "a0"] if mode in ("brave", "cautious") else []
        cases.append(Case(
            f"even{N_EVEN}-{mode}",
            ["solve", even, "--mode", mode, *atom, "--format", "json"],
            None, LOOP_CAP_S, _json_check(0, _even_judge(mode))))
    return cases


# ---------------------------------------------------------------------------
# solve-random: the paper's random-density programs through the whole pipeline

SOLVE_RANDOM = dict(count=160, n=18, density=2.5)
SOLVE_RANDOM_CAP_S = 10.0


def _solve_random_judges(ab, p):
    def judge(payload: dict) -> str | None:
        sets = [_ids(p, s) for s in payload["result"]]
        if len(set(sets)) != len(sets) or payload["answer_set_count"] != len(sets):
            return "answer sets repeated or miscounted"
        backdoor = _ids(p, payload["backdoor"])
        if not ab.horn_conflict_graph(p).covered_by(backdoor):
            return "reported backdoor is not a strong Horn backdoor"
        if payload["candidates_total"] != 2 ** len(backdoor):
            return "candidate count is not 2^|backdoor|"
        for m in sets:
            if not ab.is_answer_set_direct(p, m, max_atoms=p.n_atoms):
                return f"{sorted(p.atom_name(a) for a in m)} is not an answer set"
        return None

    def oracle(payload: dict) -> str | None:
        want = ab.brute_answer_sets(p, max_atoms=p.n_atoms)
        got = {_ids(p, s) for s in payload["result"]}
        return None if got == want else (
            f"{len(got)} answer sets, brute force finds {len(want)}")

    return judge, oracle


def build_solve_random(ab, seed: int, workdir: str) -> list[Case]:
    cfg = SOLVE_RANDOM
    cases = []
    for i in range(cfg["count"]):
        s = ab.child_seed(seed, i)
        p = _random(ab, cfg["n"], cfg["density"], s)
        path = _write(workdir, f"r{i:03d}.lp", ab.render_program(p))
        judge, oracle = _solve_random_judges(ab, p)
        cases.append(Case(
            f"random-n{cfg['n']}-{i:03d}",
            ["solve", path, "--mode", "enumerate", "--format", "json"],
            s, SOLVE_RANDOM_CAP_S, _json_check(0, judge), oracle))
    return cases


# ---------------------------------------------------------------------------
# backdoor-strong: vertex cover of the Horn conflict graph

STRONG_RANDOM = dict(count=320, n=40, density=1.5)
STRONG_RANDOM_CAP_S = 10.0
PATH_ATOMS = 150
PATH_CAP_S = 40.0


def _cover_judge(ab, get_p, size: int | None = None) -> Check:
    def judge(payload: dict) -> str | None:
        p = get_p()
        w = _ids(p, payload["witness"])
        if len(w) != payload["size"] or not ab.horn_conflict_graph(p).covered_by(w):
            return "witness does not cover the conflict graph"
        if size is not None and len(w) != size:
            return f"witness has {len(w)} atoms, a minimum cover has {size}"
        return None
    return _json_check(0, judge)


def build_backdoor_strong(ab, seed: int, workdir: str) -> list[Case]:
    cfg = STRONG_RANDOM
    cases = []
    for i in range(cfg["count"]):
        s = ab.child_seed(seed, i)
        p = _random(ab, cfg["n"], cfg["density"], s)
        path = _write(workdir, f"s{i:03d}.lp", ab.render_program(p))
        cases.append(Case(
            f"strong-n{cfg['n']}-{i:03d}",
            ["backdoor", path, "--target", "horn", "--format", "json"],
            s, STRONG_RANDOM_CAP_S, _cover_judge(ab, lambda p=p: p)))
    text = "".join(f"a{i} | a{i + 1}.\n" for i in range(PATH_ATOMS - 1))
    path = _write(workdir, "path.lp", text)
    # a path on an even number of vertices has a minimum cover of half of them
    cases.append(Case(
        f"path-{PATH_ATOMS}", ["backdoor", path, "--target", "horn",
                               "--format", "json"],
        None, PATH_CAP_S, _cover_judge(ab, lambda: ab.parse_program(text),
                                       PATH_ATOMS // 2)))
    return cases


# ---------------------------------------------------------------------------
# backdoor-deletion: many small deletion searches, one long cycle, one classify

DELETION_RANDOM = (("strat", dict(count=96, n=20, density=1.5)),
                   ("c-acyc", dict(count=48, n=12, density=1.5)))
DELETION_RANDOM_CAP_S = 10.0
NEG_CYCLE = 200
NEG_CYCLE_CAP_S = 60.0
CLASSIFY = dict(n=600, density=2.5)
CLASSIFY_CAP_S = 60.0


def _deletion_judge(ab, get_p, target: str, size: int | None = None) -> Check:
    def judge(payload: dict) -> str | None:
        p = get_p()
        w = _ids(p, payload["witness"])
        if not ab.verify_backdoor(p, w, ab.TargetClass(target), "deletion"):
            return f"witness is not a deletion backdoor into {target}"
        if size is not None and len(w) != size:
            return f"witness has {len(w)} atoms, expected {size}"
        return None
    return _json_check(0, judge)


def _scc_ids(succ: list[list[int]]) -> list[int]:
    """Strongly connected component label per vertex (Kosaraju, iterative)."""
    n = len(succ)
    seen = [False] * n
    order: list[int] = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(succ[s]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    comp = [-1] * n
    for s in reversed(order):
        if comp[s] >= 0:
            continue
        comp[s] = s
        stack2 = [s]
        while stack2:
            v = stack2.pop()
            for w in pred[v]:
                if comp[w] < 0:
                    comp[w] = s
                    stack2.append(w)
    return comp


def _classify_judge(p) -> Check:
    """Verdicts that follow from the generator's output alone.

    The generator emits normal rules with distinct body atoms, so no rule is
    tautological or a constraint.  Hence: horn holds iff no rule has a
    negative body; strat holds iff no negative dependency edge lies inside a
    strongly connected component; every acyclicity class lies inside strat;
    and a failed acyclicity class is explained by a cycle, never by a
    non-normal rule.
    """
    def judge(payload: dict) -> str | None:
        succ: list[list[int]] = [[] for _ in range(p.n_atoms)]
        negative = []
        for r in p.rules:
            (h,) = r.head
            succ[h].extend(r.pos_body | r.neg_body)
            negative.extend((h, y) for y in r.neg_body)
        comp = _scc_ids(succ)
        strat = not any(comp[x] == comp[y] for x, y in negative)
        horn = not negative
        acyclic = ("c-acyc", "bc-acyc", "dc-acyc", "dc2-acyc", "strat")
        cls = payload["classes"]
        if cls["horn"]["member"] != horn or cls["strat"]["member"] != strat:
            return "horn or strat verdict is wrong"
        for c in acyclic:
            if cls[c]["member"] and not strat:
                return f"{c} holds but strat does not"
            if not cls[c]["member"] and "cycle" not in cls[c]["reason"]:
                return f"{c} fails without a cycle: {cls[c]['reason']!r}"
        return None
    return _json_check(0, judge)


def build_backdoor_deletion(ab, seed: int, workdir: str) -> list[Case]:
    cases = []
    i = 0
    for target, cfg in DELETION_RANDOM:
        for j in range(cfg["count"]):
            s = ab.child_seed(seed, i)
            i += 1
            p = _random(ab, cfg["n"], cfg["density"], s)
            path = _write(workdir, f"{target}-{j:03d}.lp", ab.render_program(p))
            cases.append(Case(
                f"{target}-n{cfg['n']}-{j:03d}",
                ["backdoor", path, "--target", target, "--kind", "deletion",
                 "--format", "json"],
                s, DELETION_RANDOM_CAP_S, _deletion_judge(ab, lambda p=p: p, target)))
    text = "".join(f"a{k} :- not a{(k + 1) % NEG_CYCLE}.\n"
                   for k in range(NEG_CYCLE))
    path = _write(workdir, "negcycle.lp", text)
    # deleting any one atom of the cycle breaks it
    cases.append(Case(
        f"negcycle-{NEG_CYCLE}",
        ["backdoor", path, "--target", "strat", "--kind", "deletion",
         "--format", "json"],
        None, NEG_CYCLE_CAP_S,
        _deletion_judge(ab, lambda: ab.parse_program(text), "strat", 1)))
    s = ab.child_seed(seed, i)
    p = _random(ab, CLASSIFY["n"], CLASSIFY["density"], s)
    path = _write(workdir, "classify.lp", ab.render_program(p))
    cases.append(Case(
        f"classify-{len(p.rules)}-rules", ["classify", path, "--format", "json"],
        s, CLASSIFY_CAP_S, _classify_judge(p)))
    return cases


WORKLOADS = {w.name: w for w in (
    Workload("solve-loops",
             "Evaluation and Horn propagation do nearly all the work, with "
             "answers in closed form: reject-heavy odd loops at jobs 1 and 2, "
             "accept-heavy even loops in four modes.",
             build_solve_loops),
    Workload("solve-random",
             "The paper's random-density programs through detection and "
             "evaluation; bookkeeping outweighs propagation here, the reverse "
             "of solve-loops.",
             build_solve_random),
    Workload("backdoor-strong",
             "Vertex-cover search for strong Horn backdoors on random conflict "
             "graphs and a long conflict path, so a kernel cannot win on paths "
             "by losing on dense graphs.",
             build_backdoor_strong),
    Workload("backdoor-deletion",
             "Deletion backdoors into strat and c-acyc plus one large classify: "
             "program, depgraph and reducts work in many small calls and in "
             "one large one.",
             build_backdoor_deletion),
)}
