"""Which ``src/`` functions no user path reaches.  No options::

    python3 benchmarks/reach.py

Runs the user paths CI runs (the JustQL tour, every ``examples/*.py``,
``benchmarks/perf/run.py --quick`` and the subsystem scenarios of
``python -m repro scenario``) with a profile hook in every Python
process they start, and writes ``benchmarks/reach_unreached.txt``: one
``path::qualname`` per named function of ``src/`` that none of them
called, sorted.  A function that only tests or the paper figures call
is listed; committing the list makes new unreached code show in review.

The hook is a ``sitecustomize`` module on ``PYTHONPATH``, so it is
installed in subprocesses too.  Each process records the code objects
it ran and, at exit, writes their ``(file, first line)`` pairs.  A
qualname comes from the source's syntax tree, matched on its ``def``
line or its first decorator line (where a decorated function's code
starts), so the list names functions, not line numbers.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "reach_unreached.txt"

#: Installed in every process: record each code object called, and at
#: exit write the ``file<TAB>first line`` of those under ``src/``.
HOOK = '''\
import atexit, os, sys, threading

_codes = set()


def _hook(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    lines = {{f"{{os.path.realpath(c.co_filename)}}\\t{{c.co_firstlineno}}\\n"
              for c in _codes}}
    path = os.path.join({out!r}, f"{{os.getpid()}}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(line for line in lines
                          if line.startswith({src!r}))


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def user_paths() -> list[list[str]]:
    """The commands whose reach is audited, run from the repo root."""
    sys.path.insert(0, str(SRC))
    from repro.scenarios import PAPER, SCENARIOS
    python = sys.executable
    examples = sorted((ROOT / "examples").glob("*.py"))
    subsystems = [name for name in SCENARIOS if name not in PAPER]
    return [
        [python, "-m", "repro", "--script", "examples/justql_tour.sql"],
        *[[python, str(path.relative_to(ROOT))] for path in examples],
        [python, "benchmarks/perf/run.py", "--quick"],
        [python, "-m", "repro", "scenario", *subsystems],
    ]


def named_functions(path: Path) -> dict[int, str]:
    """``def`` and first-decorator lines of ``path``'s named functions,
    each mapped to its qualname (``Class.method``,
    ``outer.<locals>.inner``)."""
    found: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found[child.lineno] = qualname
                if child.decorator_list:
                    found[child.decorator_list[0].lineno] = qualname
                visit(child, f"{qualname}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def reached_lines(records: Path) -> set[tuple[str, int]]:
    """Every ``(file, first line)`` any audited process called."""
    reached = set()
    for record in records.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, lineno = line.split("\t")
            reached.add((filename, int(lineno)))
    return reached


def main() -> int:
    src = os.path.realpath(SRC) + os.sep
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = Path(scratch, "hook")
        records = Path(scratch, "records")
        hook_dir.mkdir()
        records.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(out=str(records), src=src), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(hook_dir), str(SRC)]))
        for command in user_paths():
            print("reach:", " ".join(command[1:]), flush=True)
            subprocess.run(command, cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        reached = reached_lines(records)

    unreached = set()
    for path in sorted(SRC.rglob("*.py")):
        filename = os.path.realpath(path)
        functions = named_functions(path)
        called = {qualname for lineno, qualname in functions.items()
                  if (filename, lineno) in reached}
        unreached.update(f"{path.relative_to(ROOT)}::{qualname}"
                         for qualname in functions.values()
                         if qualname not in called)
    OUT.write_text("".join(f"{line}\n" for line in sorted(unreached)),
                   encoding="utf-8")
    print(f"reach: {len(unreached)} functions unreached -> "
          f"{OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
