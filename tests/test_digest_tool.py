"""tools/digest.py on a handful of commands; no git, no benchmark pool."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

SRC = digest.ROOT / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("digest")
    digest.write_inputs(SRC, path)
    return path


def test_input_files_are_named_by_role(workdir):
    files = {argv[argv.index("--input") + 1] for argv in digest.commands() if "--input" in argv}
    assert files == {p.name for p in workdir.iterdir()}


def test_file_commands_exit_as_their_role_says(workdir):
    """Every command after the workload pools: the closed files, the zero
    potential and the zero files solve, the open forms exit 1 and the file
    that is not JSON 2; report summarises a verify file, exits 1 on an empty
    file and 2 on a record with no check."""
    argvs = digest.commands()[-17:]
    assert argvs[0][:3] == ["verify", "--mode", "float"]
    result = digest.run(SRC, argvs, workdir)
    assert result["codes"] == [0] * 10 + [1, 1, 1, 2] + [0, 1, 2]
    assert not (workdir / digest.OUTPUT).exists()


def test_one_digest_per_command_list(workdir):
    argvs = [["lelong", "--from-potential", "z*conj(z)", "--n", "1", "--degree", "4"],
             ["verify", "--n", "1", "--degree", "4", "--trials", "1", "--seed", "3"],
             ["solve", "--equation", "dbar", "--input", "dbar-exact.json"],
             ["solve", "--equation", "d", "--input", "not-json.json"]]
    first = digest.run(SRC, argvs, workdir)
    assert first == digest.run(SRC, argvs, workdir)
    assert first["codes"] == [0, 0, 0, 2]
    # another seed, or the same commands in another order, gives another digest
    other = [argv if argv[0] != "verify" else argv[:-1] + ["4"] for argv in argvs]
    assert digest.run(SRC, other, workdir)["digest"] != first["digest"]
    assert digest.run(SRC, argvs[::-1], workdir)["digest"] != first["digest"]
