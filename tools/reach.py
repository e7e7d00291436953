"""Which functions of src/ the commands reach, which only the tests reach, and which nothing does.

Run from anywhere inside the repository:

    python3 tools/reach.py

It runs two line-level ``sys.settrace`` censuses, each in its own child
process, and records for every code object of ``src/gauss_hodge`` the lines
that it ran:

    commands  the commands of tools/digest.py, in one process that imports the
              package fresh under the trace.  Their input files are written
              first by an untraced child (digest.write_inputs), so the traced
              run starts with every cache cold; it must print the untraced
              digest.
    tests     the tier-1 suite, under a plugin that puts the hook back before
              each test.  CPython removes a trace hook that raises, as one does
              when the recursion limit is hit inside it, so each test that
              ends without the hook is named: the rest of it was not traced.

Each function is judged by the lines of its own body (with those of its
comprehensions and lambdas), not by its ``def`` lines, which run at import
with any default values on them: it is reached by a command, reached only by
tests, or reached by nothing.  The tool prints the line totals, the lines that
nothing reaches, and the functions of the last two classes.  It exits 1 if the
traced digest differs from the untraced one, if the commands lose the hook, if
a traced test fails, or if a function is reached by nothing.  Standard
library only, with pytest for the test census.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "gauss_hodge"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = _load("reach_digest", ROOT / "tools" / "digest.py")


def _key(code, root: Path) -> str:
    """The name of a code object under ``root`` that both a census and units() give it."""
    return f"{Path(code.co_filename).relative_to(root)}:{code.co_firstlineno}:{code.co_qualname}"


class Tracer:
    """A global trace hook that records, per code object of the files under
    ``root``, the lines it ran; other frames are not traced."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.prefix = str(self.root) + os.sep
        self.hits: dict[str, set] = {}
        self._local: dict = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code in self._local:
            return self._local[code]
        local = None
        if code.co_filename.startswith(self.prefix):
            lines = self.hits.setdefault(_key(code, self.root), set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local
        self._local[code] = local
        return local

    def result(self) -> dict:
        return {key: sorted(lines) for key, lines in self.hits.items() if lines}


def _commands_child(request: dict) -> dict:
    sys.path.insert(0, request["src"])
    tracer = Tracer(Path(request["src"]) / "gauss_hodge")
    sys.settrace(tracer)
    try:
        result = digest._run_commands(request["argvs"])
        kept = sys.gettrace() is tracer
    finally:
        sys.settrace(None)
    return {**result, "kept": kept, "hits": tracer.result()}


def _tests_child(request: dict) -> dict:
    import pytest

    tracer = Tracer(Path(request["root"]))
    lost = []

    class Reinstall:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item):
            sys.settrace(tracer)
            yield
            if sys.gettrace() is not tracer:
                lost.append(item.nodeid)

    sys.settrace(tracer)  # collection imports the package
    try:
        status = pytest.main(request["args"], plugins=[Reinstall()])
    finally:
        sys.settrace(None)
    return {"status": int(status), "lost": lost, "hits": tracer.result()}


def _child(request: dict, cwd: Path) -> tuple[dict, str]:
    """Run one census in a child process in ``cwd``; (its result, its stdout)."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out = Path(tmp) / "result.json"
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                              cwd=cwd, input=json.dumps({**request, "out": str(out)}),
                              capture_output=True, text=True)
        if proc.returncode or not out.exists():
            raise RuntimeError(f"{request['census']} census exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        return json.loads(out.read_text()), proc.stdout


def command_census(src: Path) -> tuple[dict, dict]:
    """(untraced, traced) results of digest's commands under the package in
    ``src``; the traced one carries the "hits"."""
    argvs = digest.commands()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        workdir = Path(tmp)
        digest.write_inputs(src, workdir)
        untraced = digest.run(src, argvs, workdir)
        traced, _ = _child({"census": "commands", "src": str(src), "argvs": argvs}, workdir)
    return untraced, traced


def suite_census(root: Path, args: list, cwd: Path) -> dict:
    """pytest ``args`` run in ``cwd``, tracing the files under ``root``:
    {"status": pytest's exit code, "lost": the tests that lost the hook,
    "hits", "summary": pytest's last line}."""
    result, stdout = _child({"census": "tests", "root": str(root), "args": args}, cwd)
    lines = stdout.strip().splitlines()
    return {**result, "summary": lines[-1] if lines else ""}


def units(root: Path) -> tuple[dict, list]:
    """({file: its executable lines}, [the functions under ``root``]).  A
    function is {"name", "file", "line", "lines", "keys"}: ``lines`` are those
    of its code, its ``def`` line included, and ``keys`` name its code object
    and those of the comprehensions and lambdas inside it."""
    executable, functions, base = {}, [], root.resolve()
    for path in sorted(root.rglob("*.py")):
        rel = str(path.relative_to(root))
        lines = executable[rel] = set()

        def visit(code, owner):
            code_lines = {line for *_, line in code.co_lines() if line}
            lines.update(code_lines)
            if not code.co_flags & inspect.CO_OPTIMIZED:  # a module or a class body
                owner = None
            elif owner is None or not code.co_name.startswith("<"):
                owner = {"name": f"{path.stem}.{code.co_qualname}", "file": rel,
                         "line": code.co_firstlineno, "lines": set(), "keys": []}
                functions.append(owner)
            if owner is not None:
                owner["lines"] |= code_lines
                owner["keys"].append(_key(code, base))
            for const in code.co_consts:
                if inspect.iscode(const):
                    visit(const, owner)

        visit(compile(path.read_text(), str(path.resolve()), "exec"), None)
    return executable, functions


def classify(functions: list, commands: dict, tests: dict) -> list[str]:
    """Each function's class from the two censuses' hits: "command", "tests"
    or "nothing"."""
    return ["command" if any(k in commands for k in f["keys"]) else
            "tests" if any(k in tests for k in f["keys"]) else "nothing" for f in functions]


def _lines(hits: dict) -> set:
    return {(key.split(":")[0], line) for key, lines in hits.items() for line in lines}


def _ranges(lines) -> str:
    """Sorted line numbers as "3, 7-9"."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(executable: dict, functions: list, classes: list, commands: dict,
           tests: dict) -> list[str]:
    """The census as printed lines: the line totals, the lines nothing
    reaches, and the functions reached only by tests or by nothing."""
    every = {(rel, line) for rel, lines in executable.items() for line in lines}
    by_commands = _lines(commands) & every
    by_tests = (_lines(tests) & every) - by_commands
    unreached = every - by_commands - by_tests
    out = [f"lines: {len(every)} executable; commands reach {len(by_commands)}, "
           f"tests alone {len(by_tests)} more, nothing {len(unreached)}"]
    for rel in sorted(executable):
        missed = [line for r, line in unreached if r == rel]
        if missed:
            out.append(f"  not reached  {rel} {_ranges(missed)}")
    counts = Counter(classes)
    out.append(f"functions: {len(functions)}; reached by a command {counts['command']}, "
               f"only by tests {counts['tests']}, by nothing {counts['nothing']}")
    for cls, title in (("tests", "reached only by tests"), ("nothing", "reached by nothing")):
        out += [f"  {title}  {f['file']}:{f['line']} {f['name']} ({len(f['lines'])} lines)"
                for f, c in zip(functions, classes) if c == cls]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        request = json.load(sys.stdin)
        child = _commands_child if request["census"] == "commands" else _tests_child
        Path(request["out"]).write_text(json.dumps(child(request)))
        return 0

    untraced, traced = command_census(SRC)
    same = traced["digest"] == untraced["digest"] and traced["codes"] == untraced["codes"]
    print(f"commands: {len(untraced['codes'])}; traced digest {traced['digest'][:8]}… "
          f"{'=' if same else '!='} untraced {untraced['digest'][:8]}…"
          f"{'' if traced['kept'] else '; the hook was lost, the census is short'}")
    tests = suite_census(PACKAGE, TIER1, ROOT)
    print(f"tests: {tests['summary']} (pytest exit {tests['status']}); "
          f"hook lost in {len(tests['lost'])}, the rest of each untraced")
    print("".join(f"  untraced tail  {nodeid}\n" for nodeid in tests["lost"]), end="")
    executable, functions = units(PACKAGE)
    classes = classify(functions, traced["hits"], tests["hits"])
    print("\n".join(report(executable, functions, classes, traced["hits"], tests["hits"])))
    sound = same and traced["kept"] and not tests["status"]
    return 0 if sound and "nothing" not in classes else 1


if __name__ == "__main__":
    sys.exit(main())
