"""tools/reach.py's test census and classification on a synthetic package and
suite; neither the CLI's commands nor tier-1 is traced."""

import importlib.util
import textwrap
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent.parent / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = '''\
def used():
    return 1


def defined_only(a=1,
                 b=2):
    return a + b


def recurse(depth):
    return recurse(depth + 1)
'''

SUITE = '''\
import pytest

from pkg import mod


def test_overflow_in_the_hook():
    with pytest.raises(RecursionError):
        mod.recurse(0)


def test_after():
    assert mod.used() == 1
'''


def test_census_survives_the_recursion_test_and_ignores_def_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "test_suite.py").write_text(SUITE)
    (tmp_path / "pytest.ini").write_text(textwrap.dedent("""\
        [pytest]
        pythonpath = .
        """))
    args = ["-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest"]
    result = reach.suite_census(tmp_path / "pkg", args, tmp_path)
    assert result["status"] == 0 and result["summary"].startswith("2 passed")
    # the hook was lost inside the first test only, and put back for the next
    assert result["lost"] == ["test_suite.py::test_overflow_in_the_hook"]

    executable, functions = reach.units(tmp_path / "pkg")
    assert executable["mod.py"] == {1, 2, 5, 6, 7, 10, 11}
    assert [f["name"] for f in functions] == ["mod.used", "mod.defined_only", "mod.recurse"]
    classes = reach.classify(functions, {}, result["hits"])
    # defined_only's default on its continuation line runs at import, but no line of its body
    assert classes == ["tests", "nothing", "tests"]
    assert reach.classify(functions, {functions[0]["keys"][0]: [2]}, result["hits"])[0] == "command"

    lines = reach.report(executable, functions, classes, {}, result["hits"])
    assert lines[0] == "lines: 7 executable; commands reach 0, tests alone 6 more, nothing 1"
    assert "  not reached  mod.py 7" in lines
    assert lines[-1] == "  reached by nothing  mod.py:5 mod.defined_only (2 lines)"


def test_ranges():
    assert reach._ranges([9, 3, 7, 8]) == "3, 7-9"
