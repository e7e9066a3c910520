"""The command line's output on the shipped fixtures, pinned byte for byte.

``cli_golden.json`` holds the stdout, stderr and exit code of every command
below on each fixture.  Output that changes on purpose is rewritten with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of the JSON file is then the whole change in behaviour.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from maxplus.cli import run_command

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "cli_golden.json"
FIXTURES = ("demo10-dense.mpx", "demo10-sparse.mpx", "one.mpx", "blocks12-ties.mpx")
# Each is [command, fixture, *options].
COMMANDS = (
    ("roots",),
    ("expand",),
    ("expand", "--json"),
    ("expand", "--reduce"),
    ("expand", "--reduce", "--json"),
    ("power", "7"),
    ("power", "1000"),
    ("power", "7", "--csr"),
    ("power", "1000", "--csr"),
    ("power", "7", "--naive"),
    ("power", "1000", "--naive"),
    ("verify",),
    ("verify", "--t-range", "0..30"),
    ("visualize",),
    ("eigen",),
)
CASES = [[command, f"fixtures/{name}", *options] for name in FIXTURES for command, *options in COMMANDS]


def run(argv):
    """(stdout, stderr, exit code) of one command line, run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    path = str(ROOT / argv[1])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([argv[0], path, *argv[2:]])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _golden():
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    want = _golden()[" ".join(argv)]
    assert run(argv) == {key: want[key] for key in ("stdout", "stderr", "exit")}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([{"argv": argv, **run(argv)} for argv in CASES], indent=1) + "\n")
