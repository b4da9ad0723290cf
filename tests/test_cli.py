import json
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, settings, strategies as st

from aspback import GenConfig, __version__, random_program, render_program
from aspback.cli import _dumps, _Encoded, build_parser, main
from conftest import EX1_TEXT


@pytest.fixture
def ex1_file(tmp_path):
    f = tmp_path / "ex1.lp"
    f.write_text(EX1_TEXT)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jrun(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_parse_roundtrip(capsys, ex1_file):
    code, out, _ = run(capsys, "parse", ex1_file)
    assert code == 0
    assert out.splitlines()[0] == "s :- w."
    code2, out2, _ = run(capsys, "parse", ex1_file, "--format", "json")
    payload = json.loads(out2)
    assert payload["atoms"] == 6 and payload["rules"] == 6
    assert payload["version"]


def test_parse_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("a :- not b."))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0 and out == "a :- not b.\n"


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("a :-\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2 and "parse error" in err


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/x.lp")
    assert code == 2 and "error" in err


def test_classify_text(capsys, ex1_file):
    code, out, _ = run(capsys, "classify", ex1_file)
    assert code == 0
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    assert lines["horn"] == "no"
    assert lines["strat"] == "no (bad directed cycle (w, r))"
    assert lines["c-acyc"].startswith("no (bad undirected cycle")


def test_classify_json_member(capsys, tmp_path):
    f = tmp_path / "h.lp"
    f.write_text("a :- b.  b.")
    code, payload, _ = jrun(capsys, "classify", str(f), "--format", "json")
    assert code == 0
    assert payload["classes"]["horn"] == {"member": True, "reason": ""}


DISJ_TEXT = "a | b :- c.  c :- d.  d :- c.  e :- not c.  x | y :- x, not z.\n"


@pytest.mark.parametrize("text,undirected,directed", [
    (EX1_TEXT, "bad undirected cycle (w, r, v_(w,r))", "bad directed cycle (w, r)"),
    (DISJ_TEXT, "bad undirected cycle (a, c, b, v_(a,b))", "bad directed cycle (a, b)"),
])
def test_classify_output_pinned(capsys, tmp_path, text, undirected, directed):
    f = tmp_path / "p.lp"
    f.write_text(text)
    reasons = {"horn": "", "c-acyc": undirected, "bc-acyc": undirected,
               "dc-acyc": directed, "dc2-acyc": directed, "strat": directed}
    code, out, _ = run(capsys, "classify", str(f))
    assert code == 0
    assert out == "".join(f"{c}: no" + (f" ({why})" if why else "") + "\n"
                          for c, why in reasons.items())
    code, out, _ = run(capsys, "classify", str(f), "--format", "json")
    want = {"classes": {c: {"member": False, "reason": why}
                        for c, why in reasons.items()},
            "version": __version__}
    assert code == 0 and out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_classify_builds_one_graph(capsys, tmp_path, monkeypatch):
    # the five classes read one core_graph: its per-atom masks are ORed
    # once and its undirected graph is built on its first read
    import aspback.depgraph as dg
    calls = []
    for name in ("_dep_masks", "_udg"):
        monkeypatch.setattr(dg, name, lambda *a, fn=getattr(dg, name), name=name:
                            calls.append(name) or fn(*a))
    f = tmp_path / "p.lp"
    f.write_text(DISJ_TEXT)
    code, _, _ = run(capsys, "classify", str(f))
    assert code == 0 and sorted(calls) == ["_dep_masks", "_udg"]


def test_classify_runs_tarjan_once_per_graph(capsys, tmp_path, monkeypatch):
    # dc-acyc, dc2-acyc and strat share the components of the dependency
    # graph, c-acyc and bc-acyc those of its undirected graph; c-acyc alone
    # reads a third graph, the positive edges of the undirected one
    import aspback.depgraph as dg
    calls = []
    monkeypatch.setattr(dg, "_components", lambda adj, undirected=False, fn=dg._components:
                        calls.append(undirected) or fn(adj, undirected))
    big = render_program(random_program(GenConfig(200, 2.5, seed=3)))
    for i, text in enumerate((DISJ_TEXT, big)):
        f = tmp_path / f"p{i}.lp"
        f.write_text(text)
        calls.clear()
        code, out, _ = run(capsys, "classify", str(f))
        assert code == 0 and out.count(": no (") == 5 and sorted(calls) == [False, True, True]


def test_graph_kinds(capsys, ex1_file):
    for which, needle in (("ddg", "digraph"), ("udg", "v_(w,r)"), ("incidence", '"r0"')):
        code, out, _ = run(capsys, "graph", ex1_file, "--which", which)
        assert code == 0 and needle in out
        assert out.endswith("}\n") and not out.endswith("\n\n")  # written as is


def test_backdoor_text(capsys, ex1_file):
    code, out, _ = run(capsys, "backdoor", ex1_file)
    assert code == 0 and out == "{r, s}\n"
    code2, out2, _ = run(capsys, "backdoor", ex1_file, "--target", "strat",
                         "--kind", "deletion")
    assert code2 == 0 and out2 == "{w}\n"


def test_backdoor_json(capsys, ex1_file):
    code, payload, _ = jrun(capsys, "backdoor", ex1_file, "--format", "json")
    assert code == 0
    assert payload["witness"] == ["r", "s"] and payload["size"] == 2
    assert payload["optimal"] is True and payload["nodes_explored"] >= 1
    assert "wall_ms" in payload


def test_backdoor_bound_exit(capsys, ex1_file):
    code, out, err = run(capsys, "backdoor", ex1_file, "--k", "1")
    assert code == 3 and out == "" and "no strong horn backdoor" in err
    code2, payload, _ = jrun(capsys, "backdoor", ex1_file, "--k", "1",
                             "--format", "json")
    assert code2 == 3 and payload["witness"] is None


def test_backdoor_deletion_packing_bound_exit(capsys, tmp_path):
    # 1200 disjoint negative self-loops: the greedy packing passes k=3 after
    # four violations, so the root is pruned without packing all 1200
    f = tmp_path / "loops.lp"
    f.write_text("".join(f"a{i} :- not a{i}.\n" for i in range(1200)))
    code, payload, _ = jrun(capsys, "backdoor", str(f), "--target", "c-acyc",
                            "--kind", "deletion", "--k", "3", "--format", "json")
    assert code == 3
    assert payload["witness"] is None and payload["nodes_explored"] == 1


def test_solve_enumerate_default(capsys, ex1_file):
    code, out, _ = run(capsys, "solve", ex1_file)
    assert code == 0 and out == "{t}\n"


def test_solve_enumerate_name_order(capsys, tmp_path):
    # atoms are interned as b, a, a10, a9, B, _x, x': each set is listed in name
    # order, the sets in the order of their sorted id-vectors
    f = tmp_path / "names.lp"
    f.write_text("b.\na :- not b.\na10 | a9 :- b.\nB :- not _x.\n_x :- not B.\nx' :- a10.\n")
    want = [["B", "a10", "b", "x'"], ["_x", "a10", "b", "x'"], ["B", "a9", "b"], ["_x", "a9", "b"]]
    code, out, _ = run(capsys, "solve", str(f), "--mode", "enumerate")
    assert (code, out) == (0, "{B, a10, b, x'}\n{_x, a10, b, x'}\n{B, a9, b}\n{_x, a9, b}\n")
    code, payload, _ = jrun(capsys, "solve", str(f), "--mode", "enumerate", "--format", "json")
    assert code == 0 and payload["result"] == want
    assert payload["backdoor"] == ["B", "a10", "b"] and payload["answer_set_count"] == 4


def test_solve_consistency_exit_codes(capsys, ex1_file, tmp_path):
    code, out, _ = run(capsys, "solve", ex1_file, "--mode", "consistency")
    assert code == 0 and out == "consistent\n"
    f = tmp_path / "odd.lp"
    f.write_text("a :- not a.")
    code2, out2, _ = run(capsys, "solve", str(f), "--mode", "consistency")
    assert code2 == 1 and out2 == "inconsistent\n"
    code3, out3, _ = run(capsys, "solve", str(f))
    assert code3 == 0 and out3 == "inconsistent\n"


def test_recursion_error_exits_with_error_code(capsys, tmp_path, monkeypatch):
    # a 2100-atom conflict path gets its cover, which is too large to solve by
    f = tmp_path / "path.lp"
    f.write_text("".join(f"a{i} | a{i + 1}.\n" for i in range(2099)))
    code, out, err = run(capsys, "backdoor", str(f), "--target", "horn")
    assert (code, err) == (0, "")
    assert out == "{" + ", ".join(sorted(f"a{i}" for i in range(0, 2100, 2))) + "}\n"
    code, out, err = run(capsys, "solve", str(f), "--mode", "consistency")
    assert code == 2 and out == "" and err.startswith("error: backdoor too large")

    # running out of stack must not read as exit 1, which solve uses for
    # "inconsistent"
    def deep(*_):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("aspback.cli.find_backdoor", deep)
    for argv in (("solve", str(f), "--mode", "consistency"),
                 ("backdoor", str(f), "--target", "horn")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


def test_solve_modes(capsys, ex1_file):
    assert run(capsys, "solve", ex1_file, "--mode", "count") == (0, "1\n", "")
    code, out, _ = run(capsys, "solve", ex1_file, "--mode", "brave", "--atom", "t")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "solve", ex1_file, "--mode", "cautious", "--atom", "r")
    assert (code, out) == (0, "no\n")


def _count_builds(monkeypatch):
    """Live counts of Program constructions, by either path, and of Rules."""
    from aspback.program import Program, ProgramBuilder, Rule
    built = {"program": 0, "rule": 0}

    def counted(key, fn):
        def wrapper(*a, **kw):
            built[key] += 1
            return fn(*a, **kw)
        return wrapper
    monkeypatch.setattr(Program, "__init__", counted("program", Program.__init__))
    monkeypatch.setattr(ProgramBuilder, "build", counted("program", ProgramBuilder.build))
    monkeypatch.setattr(Rule, "__init__", counted("rule", Rule.__init__))
    return built


def test_solve_builds_one_program(capsys, tmp_path, monkeypatch):
    # disjoint pairs reach the minimality scan; every scan builds its program
    # from the compiled live rules, so the parse builds the only Program of the
    # run, and no Rule
    from aspback.evaluate import _Evaluator
    f = tmp_path / "pairs.lp"
    f.write_text("".join(f"a{i} | b{i}.\nc{i} :- a{i}.\nc{i} :- b{i}.\n" for i in range(12)))
    scans = []
    scan = _Evaluator.scan
    monkeypatch.setattr(_Evaluator, "scan",
                        lambda self, mm: scans.append(1) or scan(self, mm))
    built = _count_builds(monkeypatch)
    code, out, _ = run(capsys, "solve", str(f), "--mode", "count", "--format", "json")
    assert code == 0 and json.loads(out)["result"] == 4096
    assert built == {"program": 1, "rule": 0} and len(scans) >= 4096


@pytest.mark.parametrize("argv", [
    ("backdoor", "--target", "horn"), ("backdoor", "--target", "horn", "--kind", "deletion"),
    ("backdoor", "--target", "strat", "--kind", "deletion"),
    ("backdoor", "--target", "strat"), ("backdoor", "--target", "c-acyc"),
    ("classify",), ("parse",), ("stats",)])
def test_commands_build_one_program_and_no_rule(capsys, tmp_path, monkeypatch, argv):
    # a disjunction, a tautology and negative cycles: every class fails
    f = tmp_path / "p.lp"
    f.write_text(EX1_TEXT + "a | b :- t.\nc :- c, not a.\n")
    built = _count_builds(monkeypatch)
    code, out, _ = run(capsys, argv[0], str(f), *argv[1:], "--format", "json")
    assert code == 0 and built == {"program": 1, "rule": 0}
    if argv[0] == "classify":
        assert not any(c["member"] for c in json.loads(out)["classes"].values())


def test_solve_atom_required(capsys, ex1_file):
    code, _, err = run(capsys, "solve", ex1_file, "--mode", "brave")
    assert code == 2 and "needs --atom" in err
    code2, _, err2 = run(capsys, "solve", ex1_file, "--mode", "brave",
                         "--atom", "zz")
    assert code2 == 2 and "does not occur" in err2


def test_solve_given_backdoor(capsys, ex1_file):
    code, out, _ = run(capsys, "solve", ex1_file, "--backdoor", "r s")
    assert code == 0 and out == "{t}\n"
    code2, _, err = run(capsys, "solve", ex1_file, "--backdoor", "w")
    assert code2 == 2 and "not a strong horn backdoor" in err


def test_solve_given_backdoor_rejected_without_reducts(capsys, tmp_path, monkeypatch):
    # only a23 true keeps "c | d." in the reduct; checking assignments one by
    # one would build 2^23 reducts before meeting one
    import aspback.detect
    import aspback.reducts
    built = []
    for mod in (aspback.detect, aspback.reducts):
        monkeypatch.setattr(mod, "ta_reduct", lambda *a: built.append(a))
    f = tmp_path / "wide.lp"
    f.write_text("".join(f"b :- a{i}.\n" for i in range(24)) + "c | d :- a23.\n")
    given = " ".join(f"a{i}" for i in range(24))
    code, out, err = run(capsys, "solve", str(f), "--backdoor", given)
    assert code == 2 and out == "" and "not a strong horn backdoor" in err
    assert built == []


def test_solve_given_backdoor_json(capsys, ex1_file):
    import re
    _, out, _ = run(capsys, "solve", ex1_file, "--backdoor", "r s", "--format", "json")
    assert re.sub(r'"wall_ms": [0-9.e-]+', '"wall_ms": 0', out) == """{
  "answer_set_count": 1,
  "atom": null,
  "backdoor": [
    "r",
    "s"
  ],
  "candidates_rejected": 3,
  "candidates_total": 4,
  "engine": "backdoor",
  "mode": "enumerate",
  "result": [
    [
      "t"
    ]
  ],
  "version": "%s",
  "wall_ms": 0
}
""" % __version__


def test_solve_max_k_exit(capsys, ex1_file):
    code, _, err = run(capsys, "solve", ex1_file, "--max-k", "1")
    assert code == 3 and "within k=1" in err


def test_solve_engine_brute(capsys, ex1_file):
    code, payload, _ = jrun(capsys, "solve", ex1_file, "--engine", "brute",
                            "--format", "json")
    assert code == 0
    assert payload["result"] == [["t"]]
    assert payload["backdoor"] == [] and payload["candidates_total"] is None


def test_solve_jobs_matches(capsys, ex1_file):
    _, a, _ = run(capsys, "solve", ex1_file, "--jobs", "2")
    _, b, _ = run(capsys, "solve", ex1_file)
    assert a == b


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_solve_jobs_below_one_exit(capsys, ex1_file, jobs):
    # the brute engine never forks, but takes the same --jobs bound
    for engine in ("backdoor", "brute"):
        code, out, err = run(capsys, "solve", ex1_file, "--jobs", jobs, "--engine", engine)
        assert (code, out, err) == (2, "", f"error: jobs must be at least 1, got {jobs}\n")


def test_gen_random_stdout(capsys):
    code, out, _ = run(capsys, "gen", "random", "-n", "6", "--density", "2",
                       "--seed", "3")
    assert code == 0
    assert out.startswith("% gen: kind=random n=6 density=2.0 body_len=2 "
                          "neg_prob=0.5 seed=3\n")
    assert out.count(".") >= 12
    _, again, _ = run(capsys, "gen", "random", "-n", "6", "--density", "2",
                      "--seed", "3")
    assert again == out


def test_gen_random_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("ASPBACK_SEED", "3")
    _, via_env, _ = run(capsys, "gen", "random", "-n", "6", "--density", "2")
    _, via_flag, _ = run(capsys, "gen", "random", "-n", "6", "--density", "2",
                         "--seed", "3")
    assert via_env == via_flag
    monkeypatch.setenv("ASPBACK_SEED", "nope")
    code, _, err = run(capsys, "gen", "random", "-n", "6", "--density", "2")
    assert code == 2 and "ASPBACK_SEED" in err


def test_gen_random_count_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(capsys, "gen", "random", "-n", "5", "--density", "1.5",
                       "--count", "3", "--seed", "9", "--out-dir", str(out_dir))
    assert code == 0 and "wrote 3 programs" in out
    files = sorted(f.name for f in out_dir.iterdir())
    assert files == [f"rand_n5_d1.5_{i:04d}.lp" for i in range(3)]
    texts = [(out_dir / f).read_text() for f in files]
    assert len({t for t in texts}) == 3  # child seeds differ
    code2, _, err = run(capsys, "gen", "random", "-n", "5", "--density", "1",
                        "--count", "2")
    assert code2 == 2 and "--out-dir" in err


def test_gen_random_rejects_count_below_one(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "random", "-n", "5", "--density", "1", "--count", "0")
    assert code == 2 and not out and "--count must be at least 1" in err
    out_dir = tmp_path / "corpus"
    code, out, err = run(capsys, "gen", "random", "-n", "5", "--density", "1",
                         "--count", "-3", "--out-dir", str(out_dir))
    assert code == 2 and not out and "--count must be at least 1" in err
    assert not out_dir.exists()


def test_backdoor_strong_acyclic_set_bound_exit(capsys, ex1_file, monkeypatch):
    # a strong acyclic search past its bound on the sets it tests exits 2
    # and points to the deletion search, whose witness is a strong backdoor
    import aspback.detect
    monkeypatch.setattr(aspback.detect, "STRONG_ACYCLIC_SET_GUARD", 6)
    code, out, err = run(capsys, "backdoor", ex1_file, "--target", "strat")
    assert code == 2 and not out and "--kind deletion" in err
    code, out, _ = run(capsys, "backdoor", ex1_file, "--target", "strat", "--kind", "deletion")
    assert code == 0 and out


@pytest.mark.parametrize("density", ["inf", "nan"])
def test_gen_random_rejects_non_finite_density(capsys, density):
    # exit 1 means "inconsistent", so a bad argument must not escape as a crash
    code, out, err = run(capsys, "gen", "random", "-n", "5", "--density", density)
    assert code == 2 and not out
    assert "density must be a finite nonnegative number" in err
    assert "Traceback" not in err


def test_gen_random_rejects_overflowing_rule_count(capsys):
    # the density is finite, the rule count ceil(density * n) is not
    code, out, err = run(capsys, "gen", "random", "-n", "5", "--density", "1e308")
    assert code == 2 and not out
    assert "rule count, must be finite" in err and "Traceback" not in err


def test_gen_hitting_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("k = 1\n1 2\n"))
    code, out, _ = run(capsys, "gen", "hitting", "-")
    assert code == 0
    assert out.startswith("% gen: kind=hitting variant=full k=1 sets=1\n")
    assert "a_1_1 :- b_1_1, not e1, not e2." in out


def test_gen_hitting_taut_variant(capsys, tmp_path):
    f = tmp_path / "inst.txt"
    f.write_text("k = 0\n1\n")
    code, out, _ = run(capsys, "gen", "hitting", str(f), "--variant", "taut")
    assert code == 0 and "a_1_1 :- e1, b_1_1, not e1." in out


def test_gen_hitting_rejects_aux_named_element(capsys, tmp_path):
    f = tmp_path / "inst.txt"
    f.write_text("k=0\na_1_1\n")
    code, out, err = run(capsys, "gen", "hitting", str(f))
    assert code == 2 and out == "" and "a_1_1" in err


def test_gen_copies(capsys, tmp_path):
    f = tmp_path / "p.lp"
    f.write_text("a :- not b.")
    code, out, _ = run(capsys, "gen", "copies", str(f), "--copies", "2")
    assert code == 0
    assert "a_c1 :- not b_c1." in out and "a_c2 :- not b_c2." in out


def test_stats_text_and_failures(capsys, tmp_path, ex1_file):
    bad = tmp_path / "bad.lp"
    bad.write_text("a :-")
    code, out, err = run(capsys, "stats", ex1_file, str(bad))
    assert code == 0
    assert "skipping" in err
    assert "aggregate: count=1" in out
    assert "mean_fraction=0.333" in out  # 2 of 6 atoms


def test_stats_undecodable_file_is_a_failure_row(capsys, tmp_path, ex1_file):
    bad = tmp_path / "bad.lp"
    bad.write_bytes(b"a :- \xff.\n")
    code, payload, err = jrun(capsys, "stats", ex1_file, str(bad), ex1_file,
                              "--format", "json")
    assert code == 0
    assert "skipping" in err
    assert [r["file"] for r in payload["rows"]] == [ex1_file, ex1_file]
    assert [f["file"] for f in payload["failures"]] == [str(bad)]


def test_stats_json(capsys, ex1_file):
    code, payload, _ = jrun(capsys, "stats", ex1_file, ex1_file,
                            "--format", "json")
    assert code == 0
    agg = payload["aggregate"]
    assert agg["count"] == 2 and agg["stdev_fraction"] == 0.0
    assert payload["rows"][0]["size"] == 2


def test_stats_nothing_parsed(capsys, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("a :-")
    code, _, _ = run(capsys, "stats", str(bad))
    assert code == 2


def strip_wall(text):
    return "\n".join(l for l in text.splitlines() if '"wall_ms"' not in l)


def test_json_deterministic(capsys, ex1_file):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "backdoor", ex1_file, "--format", "json")
        _, out2, _ = run(capsys, "solve", ex1_file, "--format", "json")
        runs.append(strip_wall(out) + strip_wall(out2))
    assert runs[0] == runs[1]


def test_main_reuses_one_parser(capsys, ex1_file, monkeypatch):
    # a brave call with --atom must leave nothing behind for the next solve
    # call (its JSON shows "atom": null), and a usage error nothing for the
    # call after it
    calls = [("backdoor", ex1_file), ("solve", ex1_file, "--mode", "brave", "--atom", "s"),
             ("solve", ex1_file, "--format", "json"), ("solve", ex1_file, "--mode", "bogus"),
             ("parse", ex1_file)]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = ("exit", e.code)
        out = capsys.readouterr()
        return code, strip_wall(out.out), out.err

    with monkeypatch.context() as m:
        m.setattr("aspback.cli.build_parser", build_parser.__wrapped__)
        first = [outcome(argv) for argv in calls]
    assert first[2][1].count('"atom": null') == 1
    assert first[3][0] == ("exit", 2) and "invalid choice: 'bogus'" in first[3][2]
    assert [outcome(argv) for argv in calls] == first
    assert build_parser() is build_parser()


strings = st.one_of(st.text(), st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\ud800😀 a')))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 300, 2 ** 300), st.floats(),
    st.sampled_from([-0.0, 1e300, float("inf"), float("-inf"), float("nan")]), strings)
json_values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.lists(strings),
    st.dictionaries(strings, inner)), max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_dumps_matches_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(strings)))
def test_dumps_writes_encoded_lists_as_json_dumps(sets):
    # solve --format json names atoms through _Encoded lists, each name encoded once
    encoded = [_Encoded(map(encode_basestring_ascii, s)) for s in sets]
    assert _dumps({"result": encoded}) == json.dumps({"result": sets}, indent=2, sort_keys=True)
