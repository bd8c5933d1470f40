"""List the src statements that no `crvanet simulate` or `crvanet sweep` run reaches.

usage: PYTHONPATH=src python3 tools/traffic.py

Line-traces src/crvanet with the standard library's sys.settrace (no
coverage package needed) while it runs, in this process:

- `crvanet simulate` for each scheme three ways (plain, with --trace, and
  with --trace --trace-mobility) on four scenarios of 0.5 s or less: the
  default; one vehicle and one channel; an empty fleet; and 10 vehicles
  under 3 towers, with PU and SU means of a few ms;
- `crvanet sweep` on each axis, with CRVANET_PARALLEL=1 so that every point
  runs here.

It then prints each src statement that no run reached, as path:line and
its first source line, skipping `raise` statements and docstrings. What is
left is the error handling that does not raise, the fallbacks for rare
inputs, and API that no command calls. Each command must exit 0. Traces,
CSVs and charts go to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crvanet"

SCENARIOS = {   # name -> scenario file text
    "default": "runningTime = 0.5 s\n",
    "one-vehicle-one-channel": "runningTime = 0.5 s\nnVehicles = 1\nnChannels = 1\nnPuTowers = 1\n",
    "empty-fleet": "runningTime = 0.2 s\nnVehicles = 0\n",
    "three-towers-short-means": ("runningTime = 0.5 s\nnVehicles = 10\nnChannels = 30\n"
                                 "nPuTowers = 3\n"
                                 "puHoldMean = 3 ms\npuGapMean = 4 ms\n"
                                 "suHoldMean = 5 ms\nsuGapMean = 2 ms\n"),
}
SWEEP_VALUES = {"vehicles": "1,6", "channels": "2,10", "speed": "40,80"}   # axis -> values


def _reached_by_statement(tree: ast.Module) -> dict[int, tuple[int, ...]]:
    """For each statement worth reaching, its first line -> the lines whose
    execution shows it ran: a simple statement's own lines, a compound
    statement's header lines (up to its first child statement)."""
    lines: dict[int, tuple[int, ...]] = {}
    docstrings = {id(body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  for body in [node.body]
                  if body and isinstance(body[0], ast.Expr)
                  and isinstance(body[0].value, ast.Constant)
                  and isinstance(body[0].value.value, str)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise) or id(node) in docstrings:
            continue
        children = [child.lineno for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.stmt)]
        last = min(children) - 1 if children else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        lines[node.lineno] = tuple(range(first, max(first, last) + 1))
    return lines


def _commands(tmp: str) -> list[list[str]]:
    """Every traced command's argv."""
    commands = []
    for name, text in SCENARIOS.items():
        for scheme in ("standalone", "cooperative", "proposed"):
            path = os.path.join(tmp, f"{name}-{scheme}.txt")
            Path(path).write_text(text + f"scheme = {scheme}\n")
            trace = os.path.join(tmp, "trace.csv")
            for extra in ([], ["--trace", trace], ["--trace", trace, "--trace-mobility"]):
                commands.append(["simulate", "--config", path] + extra)
    base = os.path.join(tmp, "sweep-base.txt")
    Path(base).write_text("runningTime = 0.05 s\n")
    for axis, values in SWEEP_VALUES.items():
        commands.append(["sweep", "--config", base, "--axis", axis, "--values", values,
                         "--seeds", "1", "--out", os.path.join(tmp, f"sweep-{axis}")])
    return commands


def main() -> int:
    src, hit = str(SRC) + os.sep, set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(src) else None

    os.environ["CRVANET_PARALLEL"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        commands = _commands(tmp)
        sys.settrace(trace_calls)
        try:   # as `python -m crvanet`, module bodies traced too
            for sys.argv[1:] in commands:
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        runpy.run_module("crvanet", run_name="__main__")
                except SystemExit as exc:
                    if exc.code:
                        raise SystemExit(f"crvanet {' '.join(sys.argv[1:])} exited {exc.code}")
        finally:
            sys.settrace(None)

    unreached = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        for first, lines in sorted(_reached_by_statement(ast.parse(text)).items()):
            if not any((str(path), line) in hit for line in lines):
                unreached += 1
                print(f"src/crvanet/{path.name}:{first}: {source[first - 1].strip()}")
    print(f"{unreached} statements unreached over {len(commands)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
