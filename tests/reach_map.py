"""Reach map: which functions of the package the command line runs.

A pytest plugin, loaded by name; the `test_*.py` pattern does not collect it:

    PYTHONPATH=src:tests python -m pytest -q -p reach_map

While the suite runs, `lpdensity.cli.main` is wrapped so that a
`sys.setprofile` hook records the code of every Python function called
while it is live; tests import `main` after the plugin loads, so they call
the wrapper.  At the end the plugin lists each `def` in `src/lpdensity`
(methods and nested functions included) that no such call ran, and fails
the run unless the def is on KEEP with its reason.  A KEEP entry that names
no def, or a def the command line does run, is stale and fails the run too.
The hook slows every command run in the suite, so this is a job of its own,
not part of tier-1.
"""

import ast
import functools
import sys
from pathlib import Path

import lpdensity
from lpdensity import cli

PACKAGE = Path(lpdensity.__file__).resolve().parent

# "module.qualname" -> why the def stays although no command runs it
KEEP = {
    "lpfunc.scale": "bench/tracing.py wraps it by name in TRACED",
    "haar_uncond.build_expansion_fn": (
        "bench/tracing.py wraps it by name in TRACED; the oracle that expansion_norms is checked against"
    ),
}


def package_defs() -> dict:
    """(file, first line, name) -> "module.qualname" for every def in the
    package.  The first line is the one a code object reports: that of the
    first decorator, if any."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = f"{prefix}{child.name}"
                    defs[(str(path), first, child.name)] = f"{module}.{qualname}"
                    visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return defs


class ReachMap:
    def __init__(self):
        self.defs = package_defs()  # read before any test runs, as the loaded code is
        self.codes = set()  # the code of each call made inside cli.main
        self.lines = []

    def profile(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def wrap(self, main):
        @functools.wraps(main)
        def profiled(*args, **kwargs):
            previous = sys.getprofile()
            sys.setprofile(self.profile)
            try:
                return main(*args, **kwargs)
            finally:
                sys.setprofile(previous)

        return profiled

    def report(self) -> list:
        """The lines that fail the run: defs no command runs and stale
        KEEP entries."""
        defs = self.defs
        reached = set()
        for code in self.codes:
            name = defs.get((str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name))
            if name is not None:
                reached.add(name)
        unreached = sorted(set(defs.values()) - reached - set(KEEP))
        lines = [f"never runs inside cli.main: {name}" for name in unreached]
        for name, why in sorted(KEEP.items()):
            if name not in defs.values():
                lines.append(f"stale keep-list entry, no such def: {name} ({why})")
            elif name in reached:
                lines.append(f"stale keep-list entry, runs inside cli.main: {name} ({why})")
        return lines


def pytest_configure(config):
    config._reach_map = ReachMap()
    cli.main = config._reach_map.wrap(cli.main)


def pytest_sessionfinish(session, exitstatus):
    reach = session.config._reach_map
    reach.lines = reach.report()
    if reach.lines and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config._reach_map.lines
    terminalreporter.section("reach map")
    for line in lines:
        terminalreporter.write_line(line)
    if not lines:
        kept = ", ".join(sorted(KEEP))
        terminalreporter.write_line(f"every def in {PACKAGE.name} runs inside cli.main, or is kept: {kept}")
