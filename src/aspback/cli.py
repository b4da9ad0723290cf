"""Command line front end.

Exit codes: 0 success (solve --mode consistency prints "consistent"), 1 for
"inconsistent", 2 for parse or usage errors, 3 when no backdoor exists within
the requested bound.  JSON output is deterministic, the text that
json.dumps(indent=2, sort_keys=True) gives with a top-level version field;
wall clock fields are the only part that varies between runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from itertools import compress
from json.encoder import encode_basestring_ascii

from . import __version__
from .detect import BackdoorQuery, find_backdoor
from .depgraph import (core_graph, cycle_witness, describe_witness, dot_ddg,
                       dot_incidence, dot_udg, violation)
from .evaluate import REASON_MODES, answer_sets, mode_result
from .generate import (GenConfig, HITTING_VARIANTS, child_seed,
                       disjoint_copies, from_hitting_set, parse_hitting_set,
                       random_program)
from .oracle import brute_answer_sets
from .program import (ACYCLIC_CLASSES, CompiledProgram, ParseError, Program,
                      TargetClass, parse_program, render_program)
# not called here, but perfbench/tracer.py wraps these three names in cli
from .depgraph import in_target_class, witness_cycle  # noqa: F401
from .detect import verify_backdoor  # noqa: F401

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_ERROR = 2
EXIT_NO_BACKDOOR = 3

TARGETS = {c.value: c for c in TargetClass}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load(path: str) -> Program:
    return parse_program(_read_text(path))


class _Encoded(list):
    """A list of strs that are JSON text already, which _dumps joins as they are."""


def _dumps(obj, indent: str = "\n") -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True), for dicts with str keys."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        body = sep.join(f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                        for k, v in sorted(obj.items()))
        return "{" + inner + body + indent + "}"
    try:  # a list of strs, in one join
        body = sep.join(obj if isinstance(obj, _Encoded) else map(encode_basestring_ascii, obj))
    except TypeError:
        body = sep.join(_dumps(v, inner) for v in obj)
    return "[" + inner + body + indent + "]"


def _emit_json(obj: dict) -> None:
    print(_dumps({**obj, "version": __version__}))


def _namer(p: Program, encoded: bool = False):
    """Maps a set of p's atom ids to their names in name order, from one sort of p's
    atoms; if encoded, to an _Encoded list of the names, each encoded once per program."""
    ids = sorted(range(p.n_atoms), key=p.atom_names.__getitem__)
    names = [p.atom_names[a] for a in ids]
    kind, names = ((_Encoded, list(map(encode_basestring_ascii, names))) if encoded
                   else (list, names))
    return lambda atoms: kind(compress(names, map(atoms.__contains__, ids)))


def _set_text(names: list[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _env_seed() -> int:
    raw = os.environ.get("ASPBACK_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ASPBACK_SEED must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# subcommands

def _cmd_parse(args) -> int:
    p = _load(args.file)
    if args.format == "json":
        _emit_json({
            "atoms": p.n_atoms,
            "rules": len(p.rule_parts),
            "duplicate_literals": p.duplicate_literals,
            "text": render_program(p),
        })
    else:
        sys.stdout.write(render_program(p))
    return EXIT_OK


def _cmd_classify(args) -> int:
    p = _load(args.file)
    cp = CompiledProgram(p)
    d = core_graph(cp)
    rows = []
    for c in TargetClass:
        why = ""
        if c in ACYCLIC_CLASSES:
            # the head atoms of a non-normal rule form a bad two-cycle, so
            # the one witness decides membership
            w = cycle_witness(d, c)
            member = w is None
            if w is not None:
                why = f"{'bad ' if w.bad else ''}{w.kind} cycle {describe_witness(p, w)}"
        else:
            member = violation(cp, c) == 0
        rows.append((c.value, member, why))
    if args.format == "json":
        _emit_json({"classes": {name: {"member": member, "reason": why}
                                for name, member, why in rows}})
    else:
        for name, member, why in rows:
            line = f"{name}: {'yes' if member else 'no'}"
            if why:
                line += f" ({why})"
            print(line)
    return EXIT_OK


def _cmd_graph(args) -> int:
    dot = {"ddg": dot_ddg, "udg": dot_udg, "incidence": dot_incidence}[args.which]
    sys.stdout.write(dot(_load(args.file)))
    return EXIT_OK


def _cmd_backdoor(args) -> int:
    p = _load(args.file)
    query = BackdoorQuery(TARGETS[args.target], args.kind, k=args.k)
    t0 = time.perf_counter()
    res = find_backdoor(p, query)
    ms = (time.perf_counter() - t0) * 1000.0
    if args.format == "json":
        payload = {"target": args.target, "kind": args.kind, "k": args.k,
                   "witness": None, "nodes_explored": res.nodes_explored,
                   "wall_ms": ms}
        if res.witness is not None:
            payload.update(witness=sorted(map(p.atom_name, res.witness)),
                           size=len(res.witness), optimal=res.optimal)
        _emit_json(payload)
    elif res.witness is None:
        print(f"no {args.kind} {args.target} backdoor within k={args.k}",
              file=sys.stderr)
    else:
        print(_set_text(sorted(map(p.atom_name, res.witness))))
    return EXIT_NO_BACKDOOR if res.witness is None else EXIT_OK


def _atom(p: Program, name: str, what: str) -> int:
    if not p.has_atom(name):
        raise ValueError(f"{what} {name!r} does not occur in the program")
    return p.atom_id(name)


def _cmd_solve(args) -> int:
    if args.jobs < 1:  # answer_sets checks this too, but the brute engine never calls it
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    p = _load(args.file)
    atom = None
    if args.mode in ("brave", "cautious"):
        if args.atom is None:
            raise ValueError(f"--mode {args.mode} needs --atom")
        atom = _atom(p, args.atom, "atom")

    t0 = time.perf_counter()
    if args.engine == "brute":
        sets = frozenset(brute_answer_sets(p))
        backdoor: frozenset[int] = frozenset()
        total = rejected = None
    else:
        if args.backdoor is not None:
            # answer_sets rejects atoms that are not a strong Horn backdoor
            x = [_atom(p, name, "backdoor atom") for name in args.backdoor.split()]
        else:
            query = BackdoorQuery(TargetClass.HORN, "strong", k=args.max_k)
            x = find_backdoor(p, query).witness
            if x is None:
                print(f"no strong horn backdoor within k={args.max_k}",
                      file=sys.stderr)
                return EXIT_NO_BACKDOOR
        rep = answer_sets(p, x, jobs=args.jobs)
        sets, backdoor = rep.answer_sets, rep.backdoor
        total, rejected = rep.candidates_total, rep.candidates_rejected
    ms = (time.perf_counter() - t0) * 1000.0

    result = mode_result(sets, args.mode, atom)
    names = _namer(p, args.format == "json")
    shown = [names(s) for s in result] if args.mode == "enumerate" else result

    if args.format == "json":
        _emit_json({"mode": args.mode, "engine": args.engine,
                    "atom": args.atom, "result": shown,
                    "answer_set_count": len(sets),
                    "backdoor": names(backdoor),
                    "candidates_total": total, "candidates_rejected": rejected,
                    "wall_ms": ms})
    elif args.mode == "consistency":
        print("consistent" if result else "inconsistent")
    elif args.mode == "enumerate":
        print("\n".join(map(_set_text, shown)) if shown else "inconsistent")
    elif args.mode in ("brave", "cautious"):
        print("yes" if result else "no")
    else:
        print(result)
    if args.mode == "consistency" and not result:
        return EXIT_INCONSISTENT
    return EXIT_OK


def _gen_header(kind: str, params: dict) -> str:
    inner = " ".join(f"{k}={v}" for k, v in params.items())
    return f"% gen: kind={kind} {inner}\n"


def _cmd_gen(args) -> int:
    if args.kind == "random":
        if args.count < 1:
            raise ValueError("--count must be at least 1")
        seed = args.seed if args.seed is not None else _env_seed()
        texts = []
        for i in range(args.count):
            s = child_seed(seed, i) if args.count > 1 else seed
            cfg = GenConfig(n_atoms=args.n, density=args.density,
                            body_len=args.body_len, neg_prob=args.neg_prob,
                            seed=s)
            hdr = _gen_header("random", {
                "n": args.n, "density": args.density, "body_len": args.body_len,
                "neg_prob": args.neg_prob, "seed": s})
            texts.append(hdr + render_program(random_program(cfg)) + "\n")
        if args.out_dir is None:
            if args.count != 1:
                raise ValueError("--count > 1 needs --out-dir")
            sys.stdout.write(texts[0])
        else:
            os.makedirs(args.out_dir, exist_ok=True)
            for i, text in enumerate(texts):
                name = f"rand_n{args.n}_d{args.density:g}_{i:04d}.lp"
                with open(os.path.join(args.out_dir, name), "w",
                          encoding="utf-8") as f:
                    f.write(text)
            print(f"wrote {len(texts)} programs to {args.out_dir}")
    elif args.kind == "hitting":
        inst = parse_hitting_set(_read_text(args.input))
        p = from_hitting_set(inst, args.variant)
        sys.stdout.write(
            _gen_header("hitting", {"variant": args.variant, "k": inst.k,
                                    "sets": len(inst.sets)})
            + render_program(p) + "\n")
    else:  # copies
        p = _load(args.input)
        q = disjoint_copies(p, args.copies)
        sys.stdout.write(_gen_header("copies", {"copies": args.copies})
                         + render_program(q) + "\n")
    return EXIT_OK


def _stats_row(path: str, target: TargetClass, kind: str):
    p = _load(path)
    n_occ = len(p.occurring_atoms())
    t0 = time.perf_counter()
    res = find_backdoor(p, BackdoorQuery(target, kind))
    ms = (time.perf_counter() - t0) * 1000.0
    size = len(res.witness) if res.witness is not None else None
    frac = (size / n_occ) if (size is not None and n_occ) else 0.0
    return {"file": path, "atoms": n_occ, "rules": len(p.rule_parts),
            "size": size, "fraction": frac, "wall_ms": ms}


def _cmd_stats(args) -> int:
    target = TARGETS[args.target]
    rows = []
    failures = []
    for path in args.files:
        try:
            rows.append(_stats_row(path, target, args.kind))
        except (OSError, ValueError, ParseError) as e:
            failures.append({"file": path, "error": str(e)})
            print(f"stats: skipping {path}: {e}", file=sys.stderr)
    fracs = [r["fraction"] for r in rows]
    mean = sum(fracs) / len(fracs) if fracs else 0.0
    stdev = (math.sqrt(sum((f - mean) ** 2 for f in fracs) / (len(fracs) - 1))
             if len(fracs) > 1 else 0.0)
    if args.format == "json":
        _emit_json({"target": args.target, "kind": args.kind, "rows": rows,
                    "failures": failures,
                    "aggregate": {"count": len(rows), "mean_fraction": mean,
                                  "stdev_fraction": stdev}})
    else:
        for r in rows:
            print(f"{r['file']}: atoms={r['atoms']} rules={r['rules']} "
                  f"size={r['size']} fraction={r['fraction']:.3f} "
                  f"ms={r['wall_ms']:.1f}")
        print(f"aggregate: count={len(rows)} mean_fraction={mean:.3f} "
              f"stdev_fraction={stdev:.3f}")
    return EXIT_OK if rows else EXIT_ERROR


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every call
    of main in this process; parse_args keeps no state between calls."""
    ap = argparse.ArgumentParser(
        prog="aspback",
        description="Evaluate ground answer set programs via backdoors "
                    "to tractable rule classes.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("parse", help="parse and reprint a program")
    sp.add_argument("file", help="program file, or - for stdin")
    add_format(sp)
    sp.set_defaults(fn=_cmd_parse)

    sp = sub.add_parser("classify", help="membership in each target class")
    sp.add_argument("file")
    add_format(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("graph", help="emit a dependency graph in DOT form")
    sp.add_argument("file")
    sp.add_argument("--which", choices=("ddg", "udg", "incidence"),
                    default="ddg")
    sp.set_defaults(fn=_cmd_graph)

    sp = sub.add_parser("backdoor", help="find a smallest backdoor")
    sp.add_argument("file")
    sp.add_argument("--target", choices=sorted(TARGETS), default="horn")
    sp.add_argument("--kind", choices=("strong", "deletion"), default="strong")
    sp.add_argument("--k", type=int, default=None,
                    help="size bound; omit to minimize")
    add_format(sp)
    sp.set_defaults(fn=_cmd_backdoor)

    sp = sub.add_parser("solve", help="reason over the answer sets")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=REASON_MODES, default="enumerate")
    sp.add_argument("--atom", help="atom name for brave/cautious")
    sp.add_argument("--backdoor",
                    help="space-separated atom names to use as the backdoor")
    sp.add_argument("--max-k", type=int, default=None,
                    help="bound on the detected backdoor size")
    sp.add_argument("--engine", choices=("backdoor", "brute"),
                    default="backdoor")
    sp.add_argument("--jobs", type=int, default=1)
    add_format(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("gen", help="generate instances")
    gsub = sp.add_subparsers(dest="kind", required=True)

    gp = gsub.add_parser("random", help="random normal programs")
    gp.add_argument("-n", type=int, required=True, help="atom count")
    gp.add_argument("--density", type=float, required=True,
                    help="rules per atom")
    gp.add_argument("--body-len", type=int, default=2)
    gp.add_argument("--neg-prob", type=float, default=0.5)
    gp.add_argument("--seed", type=int, default=None,
                    help="default 0, or ASPBACK_SEED if set")
    gp.add_argument("--count", type=int, default=1)
    gp.add_argument("--out-dir", default=None)
    gp.set_defaults(fn=_cmd_gen)

    gp = gsub.add_parser("hitting", help="program from a hitting set instance")
    gp.add_argument("input", help="instance file, or - for stdin")
    gp.add_argument("--variant", choices=HITTING_VARIANTS, default="full")
    gp.set_defaults(fn=_cmd_gen)

    gp = gsub.add_parser("copies", help="disjoint renamed copies of a program")
    gp.add_argument("input")
    gp.add_argument("--copies", type=int, required=True)
    gp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("stats", help="backdoor size statistics over files")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--target", choices=sorted(TARGETS), default="horn")
    sp.add_argument("--kind", choices=("strong", "deletion"), default="strong")
    add_format(sp)
    sp.set_defaults(fn=_cmd_stats)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
