"""Module layering, read from the source: which aspback modules each module
imports, at the top or inside a function."""

import ast
from pathlib import Path

import aspback

SRC = Path(aspback.__file__).parent


def _aspback_imports(source):
    """Names of the aspback modules that this module source imports;
    "aspback" stands for the package itself."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] if "." in a.name else a.name
                    for a in node.names if a.name.split(".")[0] == "aspback"}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level:  # from . import x, from .x import y
                out |= {parts[0]} if node.module else {a.name for a in node.names}
            elif parts[0] == "aspback":
                out |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
    return out


def _imports_of(module):
    return _aspback_imports((SRC / f"{module}.py").read_text())


def test_scan_sees_every_import_form():
    source = """
import re
import aspback.detect
from aspback import evaluate
from aspback.cli import main
from . import oracle
from .reducts import ta_reduct

def f():
    from .depgraph import witness_cycle
"""
    assert _aspback_imports(source) == {"detect", "evaluate", "cli", "oracle",
                                        "reducts", "depgraph"}
    assert _aspback_imports("import aspback") == {"aspback"}


def test_program_imports_no_other_module():
    assert _imports_of("program") == set()


def test_oracle_does_not_import_what_it_checks():
    assert not _imports_of("oracle") & {"detect", "evaluate", "cli", "aspback"}
