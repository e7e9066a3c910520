"""Command-line output on seeded dense matrices, pinned by SHA-256.

``dense_digests.json`` holds, for each instance below, the digests of the
stdout of ``maxplus expand --json``, ``maxplus expand --reduce --json``,
``maxplus visualize`` and ``maxplus eigen``.  The instances are dense
(n 64-120), where the array paths of the pipeline run, over several value
families: small integers, tie-heavy {-1, 0}, p/q rationals, +-10^6,
[-1000, 1000] off the diagonal (no loop sets the maximum cycle mean),
entries of size 10^17, whose sums leave int64, and block-reducible {-1, 0}
matrices of 9-18 strongly connected components on relabelled nodes, whose
roots come from a search per component.  Output that changes on purpose is
rewritten with

    PYTHONPATH=src python tests/test_dense_digests.py

and the diff of the JSON file then names every instance that changed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from maxplus.cli import run_command, serialize_matrix
from fixtures import seeded_matrix

DIGESTS = Path(__file__).parent / "dense_digests.json"
COMMANDS = (("expand", "--json"), ("expand", "--reduce", "--json"), ("visualize",), ("eigen",))


INSTANCES = (
    "small/64/1.0",
    "small/120/1.0",
    "small/96/0.6",
    "ties/80/1.0",
    "pq/72/1.0",
    "wide/64/0.9",
    "big/64/1.0",
    "small/80/0.4",
    "nodiag/72/0.9",
    "blocks/72/0.4",
    "blocks/96/0.6",
    "blocks/120/0.4",
)


def _digests(name, tmp_dir):
    path = Path(tmp_dir) / "matrix.mpx"
    path.write_text(serialize_matrix(seeded_matrix(name)))
    out = {}
    for command, *options in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run_command([command, str(path), *options]) == 0
        out[" ".join((command, *options))] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return out


def test_digests_cover_every_instance():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(INSTANCES)


@pytest.mark.parametrize("name", INSTANCES)
def test_output_matches_pinned_digests(name, tmp_path):
    assert _digests(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps({name: _digests(name, tmp) for name in INSTANCES}, indent=1) + "\n")
