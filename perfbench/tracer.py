"""Per-layer tracing by wrapping the names one aspback module imports from another.

The program itself is not edited: the tracer replaces module attributes with
timing wrappers while a traced pass runs and puts the originals back after.
Each wrapped call is a span charged to the layer that defines the callee
(the last part of the function's ``__module__``).  A layer's self time is the
sum of its spans' durations minus the durations of their direct child spans.

Spans are aggregated as they close (calls, total and self time per wrapped
name), so memory stays flat on passes with millions of calls.  Worker
processes forked by ``solve --jobs 2`` inherit the wrappers, but what they
record stays in the worker: that evaluation shows up as one evaluate span in
the parent, with no horn or evaluate counts from inside it.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# (module that imported the name, name).  Leaves out per-rule helpers such as
# rule_flags, whose call count would dominate the wrapping cost.
WRAPPED = (
    ("cli", "parse_program"),
    ("cli", "find_backdoor"),
    ("cli", "answer_sets"),
    ("cli", "in_target_class"),
    ("cli", "witness_cycle"),
    ("cli", "verify_backdoor"),
    ("detect", "core"),
    ("detect", "delete_atoms"),
    ("detect", "ta_reduct"),
    ("detect", "witness_cycle"),
    ("detect", "in_target_class"),
    ("evaluate", "is_model"),
    ("evaluate", "propagate_definite"),
    ("evaluate", "check_answer_set"),
    ("depgraph", "core"),
    # program.in_target_class imports witness_cycle at call time, so the
    # attribute on depgraph itself must be wrapped to see those calls.
    ("depgraph", "witness_cycle"),
)

LAYERS = ("cli", "program", "detect", "reducts", "depgraph", "evaluate", "horn")


class Tracer:
    """Span aggregation for one traced pass over a workload's cases."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self._in_parent = True
        os.register_at_fork(after_in_child=self._forked)
        self.layer_of: dict[str, str] = {"cli.main": "cli"}
        self.reset()

    def _forked(self) -> None:
        self._in_parent = False

    def reset(self) -> None:
        # stack entries: [span key, start, time covered by child spans]
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.is_model_false = 0
        self.check_false = 0
        self.nodes = 0
        self.witness_atoms = 0

    # -- spans ------------------------------------------------------------

    def _enter(self, key: str) -> None:
        self._stack.append([key, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        key, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[key] += 1
        self.total_s[key] += dur
        self.self_s[key] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def root(self, fn, *args):
        """Run fn as the root span of one CLI call, charged to the cli layer."""
        self._stack.clear()  # a case cut by its time cap leaves spans open
        self._enter("cli.main")
        try:
            return fn(*args)
        finally:
            self._exit()

    def _wrap(self, mod_name: str, attr: str):
        mod = self._modules[mod_name]
        orig = getattr(mod, attr)
        key = f"{mod_name}.{attr}"
        self.layer_of[key] = orig.__module__.rsplit(".", 1)[-1]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._in_parent:  # forked worker: not visible
                return orig(*args, **kwargs)
            tracer._enter(key)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._observe(key, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(mod, attr, wrapper)
        self._saved.append((mod, attr, orig))

    def _observe(self, key: str, result) -> None:
        if key == "evaluate.is_model" and not result:
            self.is_model_false += 1
        elif key == "evaluate.check_answer_set" and not result:
            self.check_false += 1
        elif key == "cli.find_backdoor":
            self.nodes += result.nodes_explored
            if result.witness is not None:
                self.witness_atoms += len(result.witness)

    def install(self) -> None:
        for mod_name, attr in WRAPPED:
            self._wrap(mod_name, attr)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    # -- results ----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, s in self.self_s.items():
            out[self.layer_of[key]] += s
        return out

    def counters(self) -> dict[str, int | float]:
        """Machine-independent counts; they must repeat exactly per seed."""
        c = self.calls
        candidates = c["evaluate.check_answer_set"]
        propagations = c["evaluate.propagate_definite"]
        accepted = candidates - self.check_false
        return {
            "horn.propagate_calls": propagations,
            "horn.is_model_calls": c["evaluate.is_model"],
            "evaluate.candidates": candidates,
            "evaluate.failed_model": self.is_model_false,
            "evaluate.failed_minimal": self.check_false - self.is_model_false,
            # one propagation per candidate builds it; the rest scan subsets
            "evaluate.subsets_scanned": propagations - candidates,
            "evaluate.accept_ratio": accepted / candidates if candidates else 0.0,
            "detect.nodes": self.nodes,
            "detect.witness_atoms": self.witness_atoms,
            "program.core_calls": c["detect.core"] + c["depgraph.core"],
            "reducts.delete_atoms_calls": c["detect.delete_atoms"],
            "depgraph.witness_cycle_calls": (c["cli.witness_cycle"]
                                             + c["detect.witness_cycle"]
                                             + c["depgraph.witness_cycle"]),
        }

    def spans(self) -> dict[str, dict]:
        return {key: {"layer": self.layer_of[key], "calls": self.calls[key],
                      "total_s": self.total_s[key], "self_s": self.self_s[key]}
                for key in sorted(self.calls)}
