"""Every name that src/ defines is used by src/, every default parameter
of src/ is passed by src/, every name the package exports exists, and
every name the benchmark's tracer wraps exists.

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

#: default parameters that no src/ caller passes, each with its reason
UNPASSED_DEFAULTS = {
    "cli.main.argv": "the console entry point calls main() without arguments",
    "measure.average_projector.seed": "perfbench's noisy_tomo check passes it",
    "qmath._PhiloxKey.generate_state.dtype": "numpy's signature for a key source",
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


def _passes(call: ast.Call, index: int, name: str) -> bool:
    """Whether a call passes the parameter at this positional index, or of
    this name, counting a *args or **kwargs argument as passing it."""
    return (index < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (None, name) for kw in call.keywords))


def unpassed_defaults() -> list:
    """Every default parameter of a src/ function or method that no call
    in src/ passes, by position or by name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = []
    for module, tree in trees.items():
        for qualified, fn_name, node, is_method in _definitions(module, tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            positional = node.args.posonlyargs + node.args.args
            # a method's first parameter is bound by the attribute access
            offset = 1 if is_method and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list) else 0
            with_default = [(i - offset, a.arg) for i, a in enumerate(positional)
                            if i >= len(positional) - len(node.args.defaults)]
            with_default += [(float("inf"), a.arg) for a, d in  # passed by name only
                             zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            callers = [call for call in calls
                       if getattr(call.func, "attr", None) == fn_name
                       or (not is_method and getattr(call.func, "id", None) == fn_name)]
            unpassed += [f"{qualified}.{param}" for index, param in with_default
                         if not any(_passes(call, index, param) for call in callers)]
    return unpassed


def test_every_default_parameter_is_passed_in_src():
    # a default that no src/ caller overrides is a knob only tests can set
    unpassed = set(unpassed_defaults())
    assert sorted(unpassed - UNPASSED_DEFAULTS.keys()) == []
    # an allowed default that gains a caller in src/ leaves the list
    assert sorted(UNPASSED_DEFAULTS.keys() - unpassed) == []


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
