"""List the functions of quatode that no command and no acceptance test runs.

Usage::

    python tools/reach.py TREE

TREE is a checkout of this repository.  With its ``src`` first on
``sys.path``, a ``sys.settrace`` hook records every call into
``src/quatode`` while ``cli.main`` runs, in this process, the command set
of ``tools/same_outputs.py`` (every problem under ``solve --verify`` by
auto, picard and oracle, ``check``, and the ``decompose`` calls) on TREE's
problems and on three bad inputs: a pole inside the span, ``ln`` of a
negative argument and an unknown function.  Then ``tests/test_acceptance.py``
runs under the same hook, which is set before quatode is imported, so
module-level calls count.  Printed: each function or method of
``src/quatode`` that was never called, with its line, marked ``[traced]``
where TREE's ``solvebench/spans.py`` wraps it by name (read from that
file's ``patches`` list), and a count.  Exit status 0.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
from pathlib import Path

BAD = (
    ("bad_pole", "a0 = 0\na1 = 1/(t-0.5)\na2 = 0\na3 = 0\nt_end = 1\n"),
    ("bad_ln", "a0 = 0\na1 = ln(t-2)\na2 = 0\na3 = 0\nt_end = 1\n"),
    ("bad_function", "a0 = 0\na1 = foo(t)\na2 = 0\na3 = 0\nt_end = 1\n"),
)


def functions(src: Path) -> dict[tuple[str, int], str]:
    """(file, first line) -> ``module.qualname`` of every function and
    method in ``src``, the first line being the code object's (the first
    decorator's, if any)."""
    out = {}
    for path in sorted(src.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = f"{prefix}{getattr(child, 'name', '')}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[(str(path), first)] = f"{module}.{name}"
                    visit(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{name}.")

        visit(ast.parse(path.read_text()), "")
    return out


def traced(tree: Path) -> set[tuple[str, int]]:
    """(file, first line) of each function that ``solvebench/spans.py``
    patches: the ``(owner, "name", ...)`` rows of its ``patches`` list,
    each ``owner`` evaluated in that module with the dotted-name aliases
    (such as ``coeff_cls = coeffs.CoefficientSet``) assigned before it."""
    path = tree / "solvebench" / "spans.py"
    sys.path.insert(0, str(path.parent))
    names = dict(vars(importlib.import_module("spans")))
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        name, value = node.targets[0].id, node.value
        if isinstance(value, ast.Attribute):
            with contextlib.suppress(NameError, AttributeError):
                names[name] = eval(ast.unparse(value), names)
        elif name == "patches":
            for row in value.elts:
                owner = eval(ast.unparse(row.elts[0]), names)
                code = getattr(owner, row.elts[1].value).__code__
                out.add((code.co_filename, code.co_firstlineno))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    src = tree / "src" / "quatode"
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pytest
    import same_outputs

    known = functions(src)
    prefix = str(src) + os.sep
    called: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno))
        return None

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        files = same_outputs.problems(tree, workdir)
        for name, text in BAD:
            files.append(workdir / f"{name}.prob")
            files[-1].write_text(text)
        quiet = io.StringIO()
        sys.settrace(hook)
        try:
            from quatode import cli
            pinned = traced(tree)
            with (contextlib.redirect_stdout(quiet),
                  contextlib.redirect_stderr(quiet)):
                for _, build in same_outputs.commands(files):
                    cli.main(build(workdir)[0])
                    quiet.seek(0)
                    quiet.truncate()
                code = pytest.main([str(tree / "tests" / "test_acceptance.py"),
                                    "-q", "-p", "no:cacheprovider"])
        finally:
            sys.settrace(None)
    missed = sorted((name, key) for key, name in known.items()
                    if key not in called)
    for name, key in missed:
        mark = "  [traced]" if key in pinned else ""
        print(f"{name}  (line {key[1]}){mark}")
    print(f"{len(missed)} of {len(known)} functions not reached; "
          f"tests/test_acceptance.py exit {int(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
