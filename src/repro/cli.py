"""A JustQL shell (the web-portal/notebook stand-in of Figure 1).

One-shot::

    python -m repro "CREATE TABLE t (fid integer:primary key, geom point)"
    python -m repro --script setup.sql

Interactive::

    python -m repro
    justql> SHOW TABLES;

Scenarios (every paper figure and subsystem experiment, each checking
its claims)::

    python -m repro scenario            # all of them (minutes)
    python -m repro scenario -h         # the list, one line each
    python -m repro scenario replication streaming

The shell keeps one engine (and one user session) for its lifetime, prints
result sets as aligned tables, and reports each query's simulated
latency.  ``--user`` picks the namespace; multiple shells could share an
engine through the service layer, but the CLI is single-user by design.
"""

from __future__ import annotations

import argparse
import re
import sys

from repro.errors import JustError
from repro.service.client import JustClient
from repro.service.server import JustServer
from repro.sql.result import ResultSet

PROMPT = "justql> "
CONTINUATION = "   ...> "

#: What ends an interactive session, with or without a semicolon.
_EXIT = ("exit", "quit")

#: Truncate very wide cells so tables stay readable.
MAX_CELL_WIDTH = 48


def format_result(result: ResultSet, max_rows: int = 50) -> str:
    """Render a result set as an aligned text table."""
    rows = result.rows
    if result.message is not None and result.columns == ["status"]:
        return result.message
    if not rows:
        return "(0 rows)"
    columns = result.columns or list(rows[0].keys())

    def cell(value) -> str:
        text = "NULL" if value is None else str(value)
        if len(text) > MAX_CELL_WIDTH:
            text = text[:MAX_CELL_WIDTH - 1] + "…"
        return text

    shown = rows[:max_rows]
    table = [[cell(row.get(c)) for c in columns] for row in shown]
    widths = [max(len(column), *(len(line[i]) for line in table))
              for i, column in enumerate(columns)]
    lines = [" | ".join(c.ljust(w) for c, w in zip(columns, widths)),
             "-+-".join("-" * w for w in widths)]
    for line in table:
        lines.append(" | ".join(c.ljust(w)
                                for c, w in zip(line, widths)))
    footer = f"({len(rows)} rows"
    if len(rows) > max_rows:
        footer += f", showing first {max_rows}"
    if result.job is not None:
        footer += f", {result.sim_ms:.1f} sim-ms"
    footer += ")"
    lines.append(footer)
    return "\n".join(lines)


#: The pieces a script is cut into: a ``--`` comment, a quoted string
#: (``''`` is two strings back to back; an unterminated one runs to the
#: end), a semicolon, or a run of other text.
_PIECES = re.compile(
    r"""--[^\n]*|'[^']*(?:'|\Z)|"[^"]*(?:"|\Z)|;|[^-'";]+|-""")


def _split(text: str) -> tuple[list[str], str]:
    """``text``'s complete statements, cut at the semicolons outside
    quotes and ``--`` comments (which are dropped, as the lexer skips
    them), and the unfinished text after the last one."""
    statements = []
    current: list[str] = []
    for piece in _PIECES.findall(text):
        if piece == ";":
            statement = "".join(current).strip()
            if statement:
                statements.append(statement)
            current = []
        elif not piece.startswith("--"):
            current.append(piece)
    return statements, "".join(current)


def split_statements(text: str) -> list[str]:
    """Split a script into statements; the last needs no semicolon."""
    statements, tail = _split(text)
    tail = tail.strip()
    return statements + [tail] if tail else statements


class Shell:
    """State and execution for one CLI session."""

    def __init__(self, user: str = "cli",
                 out=None):
        self.out = out if out is not None else sys.stdout
        self.client = JustClient(JustServer(), user)

    def execute(self, statement: str) -> bool:
        """Run one statement, print the result; False on engine error."""
        try:
            result = self.client.execute_query(statement)
        except JustError as exc:
            print(f"error: {exc}", file=self.out)
            return False
        print(format_result(result), file=self.out)
        return True

    def run_script(self, text: str) -> int:
        failures = 0
        for statement in split_statements(text):
            if not self.execute(statement):
                failures += 1
        return failures

    def interact(self, stdin=None) -> None:
        stdin = stdin if stdin is not None else sys.stdin
        print("JUST reproduction — JustQL shell "
              "(end statements with ';', Ctrl-D to exit)", file=self.out)
        pending = ""
        while True:
            prompt = CONTINUATION if pending.strip() else PROMPT
            print(prompt, end="", file=self.out, flush=True)
            line = stdin.readline()
            if not line:
                break
            statements, pending = _split(pending + line)
            if pending.strip().lower() in _EXIT:
                statements.append(pending.strip())
            for statement in statements:
                if statement.lower() in _EXIT:
                    print("bye", file=self.out)
                    return
                self.execute(statement)
        print("bye", file=self.out)


def main(argv: list[str] | None = None, out=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "scenario":
        from repro.scenarios import main as scenario_main
        return scenario_main(argv[1:], out=out)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="JustQL shell for the JUST reproduction engine.")
    parser.add_argument("statement", nargs="?",
                        help="one statement to execute (quote it)")
    parser.add_argument("--script", help="file of ';'-separated "
                                         "statements to run")
    parser.add_argument("--user", default="cli",
                        help="user namespace (default: cli)")
    args = parser.parse_args(argv)
    shell = Shell(user=args.user, out=out)

    if args.script:
        with open(args.script, encoding="utf-8") as handle:
            return min(1, shell.run_script(handle.read()))
    if args.statement:
        return 0 if shell.execute(args.statement) else 1
    shell.interact()
    return 0


if __name__ == "__main__":
    sys.exit(main())
