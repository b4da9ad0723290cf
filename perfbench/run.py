#!/usr/bin/env python3
"""Seeded benchmark for the aspback CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-loops --seed 0 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload solve-random --oracle   # brute-force check

The benchmark imports the package from ``src/`` of the checkout it sits in
and calls ``aspback.cli.main`` in-process, one case after another (closed
loop, one client).  Only the ``--jobs 2`` case of solve-loops starts other
processes: the two workers its evaluation forks.  Every output is checked
after its case's timed span.  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the cases run in a fixed cycle until each has run once and
``--seconds`` have passed.  The metrics are the end-to-end ones: ``wall_s``
(one pass over the cases: the sum of each case's median time),
``case_ms.p50`` (median of the per-case medians), ``peak_rss_mb`` (peak
resident memory of this process plus that of its largest child) and
``setup_s`` (median of several rounds of package import plus input
generation).  The three times are scaled to a reference machine speed: a
6 ms stdlib-only probe runs between cases every quarter second, and each
case or set-up round is multiplied by ``REF_PROBE_S`` over the mean of the
probes near it (see ``add_speed``).  On shared hosts the speed of a vCPU
drifts by up to a factor of two, for seconds or for minutes, which no
window short enough for the run budget averages out; the scaled times
cancel most of it.  The raw times are printed above the result line and
kept in the run's JSON file.  ``failed_ratio`` is ``failed / attempted`` of
that line; it is printed above it but is no metric, since it reads 0 on
every good run.

With ``--trace 1`` untraced and traced passes alternate while another pair
fits in ``--seconds`` (at least one pair), and the metrics are the
per-layer ones from ``tracer.py`` plus ``trace.overhead_s`` and
``trace.layer_share``.  Per-case rows, calibration times and span tables go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")
SETUP_ROUNDS = 5
RUN_DEADLINE_S = 150.0  # no case starts later; a run must end within 180 s
CALIBRATION_STEPS = 300_000
PROBE_STEPS = 20_000
PROBE_EVERY_S = 0.25
# Probe time on a quiet 2-vCPU x86 VM (Xeon, 2.1 GHz); times scale to it.
REF_PROBE_S = 0.006

E2E_UNITS = {"wall_s": "s", "case_ms.p50": "ms", "peak_rss_mb": "MB",
             "setup_s": "s"}


class CaseTimeout(BaseException):
    """Raised by SIGALRM inside a case; BaseException so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def load_aspback() -> SimpleNamespace:
    """Import the package from src/ afresh; earlier imports are dropped."""
    if not os.path.isfile(os.path.join(SRC, "aspback", "__init__.py")):
        raise ImportError(f"no aspback package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m.split(".")[0] == "aspback"]:
        del sys.modules[name]
    pkg = importlib.import_module("aspback")
    cli = importlib.import_module("aspback.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"aspback imported from {pkg.__file__}, not {SRC}")
    mods = {name: sys.modules[f"aspback.{name}"]
            for name in ("cli", "detect", "evaluate", "depgraph")}
    return SimpleNamespace(pkg=pkg, cli=cli, modules=mods)


def kernel(steps: int) -> float:
    """Time a fixed stdlib-only loop; it tells a slow machine from slow code."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(steps):
        acc = (acc * 1_000_003 + i) & 0xFFFFFFFF
        table[acc & 4095] = i
    sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    return time.perf_counter() - t0


def probe(probes: list[tuple[float, float]]) -> None:
    """Append (end time, duration) of one short kernel run."""
    d = kernel(PROBE_STEPS)
    probes.append((time.perf_counter(), d))


def setup(workload, seed: int, probes: list[tuple[float, float]]):
    """Import plus input generation, repeated; the last round is the one used."""
    workdir = os.path.join(OUT, "inputs", workload.name)
    rounds = []
    for _ in range(SETUP_ROUNDS):
        probe(probes)
        t0 = time.perf_counter()
        ab = load_aspback()
        os.makedirs(workdir, exist_ok=True)
        cases = workload.build(ab.pkg, seed, workdir)
        rounds.append({"t0": t0, "wall_s": time.perf_counter() - t0})
    probe(probes)
    return ab, cases, rounds


def run_case(call, case, cap_s: float) -> dict:
    row = {"name": case.name, "argv": case.argv, "seed": case.seed,
           "wall_s": 0.0, "exit_code": None, "verdict": "ok", "detail": ""}
    if cap_s <= 0.01:
        row.update(verdict="skipped", detail="run deadline reached")
        return row
    out, err = io.StringIO(), io.StringIO()
    t0 = row["t0"] = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                row["exit_code"] = call(case.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        row.update(verdict="timeout", detail=f"over the {cap_s:.1f} s cap")
    except Exception:  # one crashing case must not end the run
        row.update(verdict="error", detail=traceback.format_exc(limit=4))
    row["wall_s"] = time.perf_counter() - t0
    if row["verdict"] == "ok":
        try:
            problem = case.check(row["exit_code"], out.getvalue())
        except Exception as e:  # malformed output is a wrong answer
            problem = f"unreadable output: {e!r}"
        if problem:
            row.update(verdict="wrong", detail=problem)
    if row["verdict"] != "ok":
        row["stderr"] = err.getvalue()[-2000:]
    return row


def run_cycle(ab, cases, seconds: float, deadline: float,
              probes: list[tuple[float, float]]) -> list[dict]:
    """Untraced cases in a fixed cycle until every case ran and seconds passed.

    Cycling rather than stopping at a pass boundary keeps each run's
    measuring window at ``seconds`` whatever the pass time, and spreads a
    case's repeats across the window.  A short probe of the machine's speed
    runs between cases every PROBE_EVERY_S.
    """
    rows = []
    start = time.perf_counter()
    while len(rows) < len(cases) or (time.perf_counter() - start < seconds
                                     and time.perf_counter() < deadline):
        if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probe(probes)
        i = len(rows)
        case = cases[i % len(cases)]
        row = run_case(ab.cli.main, case, min(case.cap_s, deadline - time.perf_counter()))
        rows.append(dict(row, **{"pass": i // len(cases), "traced": False}))
    probe(probes)
    return rows


def run_pass(ab, cases, deadline: float, tracer: Tracer | None) -> dict:
    if tracer is None:
        call = ab.cli.main
    else:
        tracer.reset()
        tracer.install()
        call = lambda argv: tracer.root(ab.cli.main, argv)  # noqa: E731
    try:
        rows = [run_case(call, c, min(c.cap_s, deadline - time.perf_counter()))
                for c in cases]
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"traced": tracer is not None, "rows": rows,
              "wall_s": sum(r["wall_s"] for r in rows)}
    if tracer is not None:
        result.update(layers=tracer.layer_self_s(), counters=tracer.counters(),
                      spans=tracer.spans(),
                      parse_s=tracer.total_s["cli.parse_program"])
    return result


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def add_speed(spans: list[dict], probes: list[tuple[float, float]]) -> None:
    """Set each timed span's "speed": REF_PROBE_S over the mean time of the
    probes that ended within max(PROBE_EVERY_S, span length) of the span.

    A long span is thus judged by the machine's speed over a window as long
    as itself.  A probe ends at most PROBE_EVERY_S before any span starts,
    so the window is never empty.
    """
    ends = [t for t, _ in probes]
    for sp in spans:
        reach = max(PROBE_EVERY_S, sp["wall_s"])
        lo = bisect.bisect_left(ends, sp["t0"] - reach)
        hi = bisect.bisect_right(ends, sp["t0"] + sp["wall_s"] + reach)
        sp["speed"] = REF_PROBE_S / statistics.fmean(d for _, d in probes[lo:hi])


def _times(rows: list[dict], rounds: list[dict], key) -> dict:
    by_case: dict[str, list[float]] = {}
    for r in rows:
        by_case.setdefault(r["name"], []).append(key(r))
    medians = [statistics.median(v) for v in by_case.values()]
    return {"wall_s": sum(medians), "case_ms.p50": _median(medians) * 1000.0,
            "setup_s": _median([key(r) for r in rounds])}


def e2e_metrics(rows: list[dict], rounds: list[dict],
                probes: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics with times at the reference speed, plus raw times."""
    add_speed(rows + rounds, probes)
    values = _times(rows, rounds, lambda r: r["wall_s"] * r["speed"])
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values["peak_rss_mb"] = rss_kb / 1024.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    return metrics, _times(rows, rounds, lambda r: r["wall_s"])


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (_median([p["layers"][layer] for p in traced]), "s")
    m["program.parse_s"] = (_median([p["parse_s"] for p in traced]), "s")
    for name, v in traced[0]["counters"].items():
        m[name] = (v, "ratio" if name.endswith("_ratio") else "count")
    traced_wall = _median([p["wall_s"] for p in traced])
    m["trace.overhead_s"] = (traced_wall - _median([p["wall_s"] for p in untraced]), "s")
    below_cli = _median([sum(p["layers"][l] for l in LAYERS if l != "cli") / p["wall_s"]
                         for p in traced if p["wall_s"] > 0])
    m["trace.layer_share"] = (below_cli, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def counter_check(workload: str, seed: int, traced: list[dict]) -> dict:
    """Counters must repeat exactly: across traced passes and across runs."""
    first = traced[0]["counters"]
    within = sorted({k for p in traced[1:] for k, v in p["counters"].items()
                     if v != first[k]})
    path = os.path.join(OUT, "counters", f"{workload}-seed{seed}.json")
    across = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            before = json.load(f)
        across = sorted(k for k in set(before) | set(first)
                        if before.get(k) != first.get(k))
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(first, f, indent=1, sort_keys=True)
    for where, names in (("between traced passes", within),
                         ("against an earlier run", across or [])):
        if names:
            print(f"counters differ {where}: {', '.join(names)}", file=sys.stderr)
    return {"within_run": within, "across_runs": across}


def run_workload(args) -> int:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    calib_start = kernel(CALIBRATION_STEPS)
    probes: list[tuple[float, float]] = []
    try:
        ab, cases, rounds = setup(workload, args.seed, probes)
    except ImportError as e:
        print(f"perfbench: cannot import the package: {e}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    passes, counters, raw = [], None, None
    if args.trace:
        # untraced and traced passes alternate while another pair fits
        tracer = Tracer(ab.modules)
        measure_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for tr in (None, tracer):
                passes.append(run_pass(ab, cases, deadline, tr))
            pair_s = time.perf_counter() - t0
            now = time.perf_counter()
            if now - measure_start + pair_s > args.seconds or now + pair_s > deadline:
                break
        rows = [dict(r, **{"pass": i, "traced": p["traced"]})
                for i, p in enumerate(passes) for r in p["rows"]]
    else:
        rows = run_cycle(ab, cases, args.seconds, deadline, probes)
    calib_end = kernel(CALIBRATION_STEPS)

    failed = sum(r["verdict"] != "ok" for r in rows)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = layer_metrics([p for p in passes if not p["traced"]], traced)
        counters = counter_check(workload.name, args.seed, traced)
    else:
        metrics, raw = e2e_metrics(rows, rounds, probes)

    report = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "calibration_s": {"start": calib_start, "end": calib_end},
              "probes": probes, "raw_times": raw, "setup_rounds": rounds,
              "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                          "spans": p.get("spans")} for p in passes],
              "failed_ratio": failed / len(rows), "counters_repeat": counters,
              "metrics": metrics, "rows": rows}
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)

    for r in rows:
        if r["verdict"] != "ok":
            print(f"FAILED {r['name']} ({r['verdict']}): {r['detail']}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}: {len(cases)} cases, "
          f"{len(rows)} runs of them, failed_ratio {failed / len(rows):.4f}")
    print(f"calibration {calib_start:.4f} s at start, {calib_end:.4f} s at end")
    if not args.trace:
        print(f"case_ms.p50: median of {len(cases)} per-case medians "
              f"over {len(rows)} samples")
        print(f"times at the reference speed ({len(probes)} probes); raw: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"rows: {out_path}")
    print(json.dumps({"correct": failed == 0, "attempted": len(rows),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_oracle(args) -> int:
    """Cross-check outputs against the brute-force oracle; slow, untimed."""
    ab, cases, _ = setup(WORKLOADS[args.workload], args.seed, [])
    checked = failed = 0
    for case in cases:
        if case.oracle is None:
            continue
        out = io.StringIO()
        with redirect_stdout(out):
            code = ab.cli.main(case.argv)
        problem = case.check(code, out.getvalue()) or case.oracle(json.loads(out.getvalue()))
        checked += 1
        failed += problem is not None
        print(f"{case.name}: {problem or 'agrees with brute force'}", flush=True)
    print(json.dumps({"correct": checked > 0 and failed == 0, "attempted": checked,
                      "failed": failed, "metrics": {}}))
    return 0 if checked and not failed else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    table, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        table.append((name, res))
    for name, res in table:
        print(f"{name}: failed_ratio {res['failed'] / res['attempted']:.4f} "
              f"({res['failed']} of {res['attempted']})")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for _, r in table),
                      "failed": sum(r["failed"] for _, r in table),
                      "metrics": {f"{n}.{k}": v for n, r in table
                                  for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--oracle", action="store_true",
                    help="check answer sets against brute force instead of timing")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    if args.oracle:
        return run_oracle(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
