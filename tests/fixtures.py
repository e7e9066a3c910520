"""Golden 10x10 example and its hand-checked expansion data.

All node indices here are 0-based; the CLI and the circuit pretty-printer
use 1-based numbering.  Values marked "printed" reproduce a published
rendering of this example verbatim.  Four entries of that rendering (three
in C1, one in R1) contradict its own defining quantities, which are best
walk weights with length divisible by 2 in the visualized matrix and are
re-derivable by hand or from the closure oracle; those factors ship in
both a "printed" and a "verified" variant, see test_acceptance for the
entry-by-entry analysis.  ``workload_module`` loads the benchmark's
seeded instance generators, and ``seeded_matrix`` draws a named seeded
matrix of one of the test families.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from maxplus import TropicalMatrix
from maxplus.oracle import random_irreducible_matrix, random_matrix

E = None

DEMO_ROWS = [
    [E, 7, E, E, E, E, E, E, E, E],
    [9, E, 8, 3, 7, E, E, E, E, E],
    [8, E, E, E, E, E, E, E, E, E],
    [E, E, E, 6, 2, 5, E, E, E, E],
    [E, E, 5, E, E, E, E, E, E, E],
    [E, E, E, E, E, E, 1, 6, E, E],
    [E, E, E, E, 2, E, E, E, E, E],
    [E, E, E, E, E, E, E, E, 2, E],
    [E, E, E, E, E, 1, 4, E, E, 1],
    [E, E, E, E, E, E, E, E, 1, E],
]


def demo_matrix() -> TropicalMatrix:
    return TropicalMatrix.from_rows([row[:] for row in DEMO_ROWS])


DEMO_N = 10
DEMO_M = 18
DEMO_ROOTS = (8, 7, 6, 4, 3, 0)

# Verified by the exhaustive multi-circuit oracle (see test_oracle): the
# graph has no node-disjoint circuit family covering all ten nodes, so the
# longest multi-circuit has length 9 and the bottom element keeps
# multiplicity 1.
DEMO_MULTIPLICITIES = (2, 1, 1, 1, 3, 1)
DEMO_EPS_MULTIPLICITY = 1
DEMO_MMCS_LENGTHS = (0, 2, 3, 4, 5, 8, 9)

# Circuit node tuples in canonical rotation (smallest node first), 0-based.
DEMO_MMCS_CIRCUITS = (
    frozenset(),
    frozenset({(0, 1)}),
    frozenset({(0, 1, 2)}),
    frozenset({(0, 1, 2), (3,)}),
    frozenset({(0, 1, 4, 2), (3,)}),
    frozenset({(0, 1, 4, 2), (3,), (5, 7, 8)}),
    frozenset({(0, 1, 3, 5, 7, 8, 6, 4, 2)}),
)

DEMO_GROUPS = ((0, 1, 2), (3, 4), (5, 6, 7, 8, 9))
DEMO_RATES = (8, 6, 3)
DEMO_QUASI_CIRCUITS = ((0, 1), (3,), (5, 7, 8))

# Visualization golden values: scalings and visualized submatrices per group.
DEMO_D1 = (0, 1, 0, -9, -3, -16, -9, -19, -13, -20)
DEMO_A1_ROWS = [
    [E, 0, E, E, E, E, E, E, E, E],
    [0, E, -1, -15, -5, E, E, E, E, E],
    [0, E, E, E, E, E, E, E, E, E],
    [E, E, E, -2, 0, -10, E, E, E, E],
    [E, E, 0, E, E, E, E, E, E, E],
    [E, E, E, E, E, E, 0, -5, E, E],
    [E, E, E, E, 0, E, E, E, E, E],
    [E, E, E, E, E, E, E, E, 0, E],
    [E, E, E, E, E, -10, 0, E, E, -14],
    [E, E, E, E, E, E, E, E, 0, E],
]

DEMO_D2 = (0, 0, -9, -4, -10, -6, -11)
DEMO_A2_ROWS = [
    [0, -4, -10, E, E, E, E],
    [E, E, E, E, E, E, E],
    [E, E, E, 0, -1, E, E],
    [E, 0, E, E, E, E, E],
    [E, E, E, E, E, 0, E],
    [E, E, -8, 0, E, E, -10],
    [E, E, E, E, E, 0, E],
]

DEMO_D3 = (0, -3, -3, -2, -4)
DEMO_A3_ROWS = [
    [E, -5, 0, E, E],
    [E, E, E, E, E],
    [E, E, E, 0, E],
    [0, 0, E, E, -4],
    [E, E, E, 0, E],
]

# Expansion factors.  R rows / C columns follow the circuit node order.
DEMO_R1_PRINTED_ROWS = [
    [0, -2, -1, -6, -2, -10, -16, -11, -18, -24],
    [-1, -1, -1, -7, -3, -9, -17, -12, -17, -25],
]
# Row 2, col 3 printed as -1; the best even-length 2 -> 3 walk in the
# visualized matrix is 2 -> 3 -> 1 -> 2 -> 3 with weight -2 (the direct arc
# has odd length), which the closure oracle confirms.
DEMO_R1_VERIFIED_ROWS = [
    [0, -2, -1, -6, -2, -10, -16, -11, -18, -24],
    [-1, -1, -2, -7, -3, -9, -17, -12, -17, -25],
]
# As printed in the published rendering of this example.
DEMO_C1_PRINTED_ROWS = [
    [0, -1],
    [0, -1],
    [-1, 0],
    [-10, -9],
    [-3, -4],
    [-16, -17],
    [-10, -9],
    [-20, -19],
    [-14, -13],
    [-21, -20],
]
# Verified against the defining quantities (best walk weights with length
# divisible by 2 in the visualized matrix, conjugated back): rows 2 and 9
# differ from the printed table; everything else coincides.
DEMO_C1_VERIFIED_ROWS = [
    [0, -1],
    [0, 1],
    [-1, 0],
    [-10, -9],
    [-3, -4],
    [-16, -17],
    [-10, -9],
    [-20, -19],
    [-13, -14],
    [-21, -20],
]

DEMO_R2_ROWS = [[E, E, E, 0, -4, -1, -6, -1, -5, -10]]
DEMO_C2_ROWS = [[E], [E], [E], [0], [E], [E], [E], [E], [E], [E]]

DEMO_R3_ROWS = [
    [E, E, E, E, E, 0, 3, -1, -6, 0],
    [E, E, E, E, E, -8, -2, 3, -2, -8],
    [E, E, E, E, E, -4, -1, -5, 2, -4],
]
DEMO_C3_ROWS = [
    [E, E, E],
    [E, E, E],
    [E, E, E],
    [E, E, E],
    [E, E, E],
    [0, -4, -8],
    [E, E, E],
    [-11, -3, -7],
    [-6, -10, -2],
    [-12, -4, -8],
]

DEMO_S1_ROWS = [[E, 0], [0, E]]
DEMO_S2_ROWS = [[0]]
DEMO_S3_ROWS = [[E, 0, E], [E, E, 0], [0, E, E]]


def tm(rows) -> TropicalMatrix:
    return TropicalMatrix.from_rows([row[:] for row in rows])


def workload_module():
    """``perfbench/workloads.py``, loaded from its file without importing ``perfbench``."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def seeded_matrix(name) -> TropicalMatrix:
    """The seeded matrix called ``name``, "family/n/density", drawn from a generator seeded by it.

    Families: small ([-5, 5]), ties ({-1, 0}), pq (p/q, |p| <= 20),
    wide (irreducible, +-10^6), nodiag ([-1000, 1000] off the diagonal,
    so no loop sets the maximum cycle mean), blocks (block-reducible
    {-1, 0}: see ``_tie_blocks``) and big (10^17 * [-5, 5] plus noise).
    """
    family, n, density = name.split("/")
    n, density = int(n), float(density)
    rng = random.Random(name)
    if family == "small":
        return random_matrix(rng, n, density)
    if family == "ties":
        return random_matrix(rng, n, density, -1, 0)
    if family == "pq":
        m = random_matrix(rng, n, density, -20, 20)
        return TropicalMatrix(n, n, {k: Fraction(v, rng.choice((1, 2, 3, 4, 6))) for k, v in m.entries.items()})
    if family == "wide":
        return random_irreducible_matrix(rng, n, density, -(10**6), 10**6)
    if family == "blocks":
        return _tie_blocks(rng, n, density)
    if family == "nodiag":
        m = random_matrix(rng, n, density, -1000, 1000)
        return TropicalMatrix(n, n, {(i, j): v for (i, j), v in m.entries.items() if i != j})
    m = random_matrix(rng, n, density)
    return TropicalMatrix(n, n, {k: 10**17 * v + rng.randint(-9, 9) for k, v in m.entries.items()})


def _tie_blocks(rng, n, density):
    """Block-reducible {-1, 0} matrix: many SCCs on relabelled nodes.

    A shuffled node order is cut into blocks of 1-16 nodes (at most n / 2).
    A block is closed by a cycle through its nodes (a loop on a single
    node) and filled at ``density``, except that half of the single nodes
    are left circuit-free.  About n arcs run from a block to a later one, so the
    blocks are the strongly connected components.
    """
    order = list(range(n))
    rng.shuffle(order)
    blocks, entries = [], {}
    start = 0
    while start < n:
        block = order[start:start + rng.randint(1, min(16, n // 2))]
        start += len(block)
        blocks.append(block)
        if len(block) == 1 and rng.random() < 0.5:
            continue
        for k, u in enumerate(block):
            entries[(u, block[(k + 1) % len(block)])] = rng.choice((-1, 0))
        for i in block:
            for j in block:
                if rng.random() < density:
                    entries.setdefault((i, j), rng.choice((-1, 0)))
    for _ in range(n):
        first = rng.randrange(len(blocks) - 1)
        later = blocks[rng.randrange(first + 1, len(blocks))]
        entries[(rng.choice(blocks[first]), rng.choice(later))] = rng.choice((-1, 0))
    return TropicalMatrix(n, n, entries)
