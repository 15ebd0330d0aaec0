"""Every name that src/ defines is used by src/, every name the package
exports exists, and every name the benchmark's tracer wraps exists.

A name that only the tests call is library code that no command runs:
the tests would check it instead of the code that produces the outputs.
The scan is by name, not by type: a top-level function, class or module
constant counts as used when a load of that name, or an attribute of
that name, appears in src/ outside its own definition; a method counts
as used when an attribute of its name does.  Dunder names are called by
Python itself and are not scanned.
"""

import ast
import importlib
import pathlib

import spintomo

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spintomo"
TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: names that only code outside src/ calls, each with its caller
ALLOWED = {
    "measure.average_projector": "perfbench's noisy_tomo check averages a projector with it",
    "qmath._PhiloxKey.generate_state": "numpy's Philox calls it for its key",
}

#: (module, attribute) pairs of the tracer's spans that name nothing: their
#: metrics read 0 until the package names its own stages
DEAD_SPANS = {
    ("cli", "sample_frequencies"),
    ("cli", "average_projector"),
    ("_kernels", "average_conjugated"),
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node, is_method) of every scanned definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{module}.{node.name}.{sub.name}", sub.name, sub, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id, node, False


def _references(tree: ast.Module):
    """(name, is_attribute, line) of every load of a name and every attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno


def unused_names() -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = [(module, *ref) for module, tree in trees.items() for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for qualified, name, node, is_method in _definitions(module, tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                ref_name == name
                and (is_attribute or not is_method)
                and not (ref_module == module and node.lineno <= line <= node.end_lineno)
                for ref_module, ref_name, is_attribute, line in refs
            ):
                unused.append(qualified)
    return unused


def test_every_src_name_has_a_caller_in_src():
    unused = set(unused_names())
    assert sorted(unused - ALLOWED.keys()) == []
    # an allowed name that gains a caller in src/ leaves the list
    assert sorted(ALLOWED.keys() - unused) == []


def test_every_exported_name_exists():
    # ``from spintomo import *`` fails on a name that __all__ keeps after
    # its definition or import is gone
    assert [name for name in spintomo.__all__ if not hasattr(spintomo, name)] == []


def test_every_traced_name_exists():
    # the tracer skips a missing attribute, so a renamed function would
    # silently zero its metric; the file is read, not imported
    spans = next(ast.literal_eval(node.value) for node in ast.parse(TRACING.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "SPANS")
    missing = {(module, attr) for module, attr, _ in spans
               if not hasattr(importlib.import_module(f"spintomo.{module}"), attr)}
    assert sorted(missing - DEAD_SPANS) == []
    # a dead span that names something again leaves the list
    assert sorted(DEAD_SPANS - missing) == []
