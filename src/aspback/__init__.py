"""Ground answer set programming via backdoors to tractable rule classes."""

from .detect import (BackdoorQuery, BackdoorResult, ConflictGraph,
                     find_backdoor, horn_conflict_graph, vertex_cover_min,
                     verify_backdoor)
from .depgraph import (CycleWitness, DependencyDigraph, IncidenceGraph,
                       UndirectedDepGraph, build_ddg, build_udg,
                       describe_witness, dot_ddg, dot_incidence, dot_udg,
                       find_directed_cycle, find_undirected_cycle,
                       incidence_graph, witness_cycle)
from .evaluate import (Candidate, EvalReport, answer_sets, candidate_sets,
                       check_answer_set, horn_star_answer_sets, mode_result)
from .generate import (GenConfig, HittingSetInstance, child_seed,
                       disjoint_copies, from_hitting_set, parse_hitting_set,
                       random_program)
from .horn import is_model, least_model
from .oracle import (brute_answer_sets, brute_min_backdoor,
                     is_answer_set_direct)
from .program import (ACYCLIC_CLASSES, ParseError, Program, ProgramBuilder,
                      Rule, RuleFlags, TargetClass, core, in_target_class,
                      parse_program, render_program, render_rule, rule_flags)
from .reducts import (TruthAssignment, assignments_over, delete_atoms,
                      gl_reduct, ta_reduct)

__version__ = "0.1.0"

__all__ = [
    "ACYCLIC_CLASSES",
    "BackdoorQuery", "BackdoorResult", "Candidate", "ConflictGraph",
    "CycleWitness", "DependencyDigraph", "EvalReport", "GenConfig",
    "HittingSetInstance", "IncidenceGraph", "ParseError", "Program",
    "ProgramBuilder", "Rule", "RuleFlags", "TargetClass", "TruthAssignment",
    "UndirectedDepGraph", "answer_sets", "assignments_over",
    "brute_answer_sets", "brute_min_backdoor", "build_ddg", "build_udg",
    "candidate_sets", "check_answer_set", "child_seed", "core",
    "delete_atoms", "describe_witness", "disjoint_copies", "dot_ddg",
    "dot_incidence", "dot_udg", "find_backdoor", "find_directed_cycle",
    "find_undirected_cycle", "from_hitting_set", "gl_reduct",
    "horn_conflict_graph", "horn_star_answer_sets", "in_target_class",
    "incidence_graph", "is_answer_set_direct", "is_model", "least_model",
    "mode_result", "parse_hitting_set", "parse_program", "random_program",
    "render_program", "render_rule", "rule_flags", "ta_reduct",
    "verify_backdoor", "vertex_cover_min", "witness_cycle",
    "__version__",
]
