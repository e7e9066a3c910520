"""Command-line interface and file formats.

Matrix files come in two shapes, both with exact values only (integers or
"p/q" rationals; "." or "-inf" for the bottom element):

  dense    first line "n", then n whitespace-separated rows
  sparse   first line "n m", then m lines "i j w" with 1-based indices

Expansions serialize to a JSON document with every value carried as an
exact decimal string and every count or index as a JSON integer, so a
dump/load round trip gives an equal expansion.  Digits are ASCII digits.
The writers and ``run_command`` take values of any length; the readers,
called outside ``run_command``, report a value past the interpreter's
limit on decimal digits as a MatrixFormatError.

Exit codes: 0 success (or verified match), 1 verified mismatch, 2 usage,
parse, or domain errors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .charpoly import characteristic_roots
from .csr import CsrExpansion, CsrTerm, expand
from .digraph import CircuitRecord, _principal_eigen
from .oracle import brute_power_check
from .partition import partition_nodes
from .tropical import TropicalMatrix, as_value, matrix_power
from .visualize import visualize_all


class MatrixFormatError(ValueError):
    """A matrix or expansion file does not follow the documented grammar."""


_COUNT_RE = re.compile(r"[0-9]+\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


@contextlib.contextmanager
def _any_length_values():
    """Lift the interpreter's limit on decimal digits, where it has one, for the block."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def _int(digits: str) -> int:
    """int(digits), with the interpreter's limit on decimal digits as a format error."""
    try:
        return int(digits)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


def parse_value_token(token: str):
    """One value token: integer, "p/q", or the bottom element ("." / "-inf")."""
    if token in (".", "-inf"):
        return None
    if _INT_RE.match(token):
        return _int(token)
    num, sep, den = token.partition("/")
    if sep and _INT_RE.match(num) and _COUNT_RE.match(den) and _int(den) > 0:
        return as_value(Fraction(_int(num), _int(den)))
    raise MatrixFormatError(f"bad value token {token!r}")


def format_value(v) -> str:
    return "." if v is None else str(v)


def parse_matrix(text: str) -> TropicalMatrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    header = lines[0].split()
    if len(header) == 1:
        return _parse_dense(header, lines[1:])
    if len(header) == 2:
        return _parse_sparse(header, lines[1:])
    raise MatrixFormatError("header must be 'n' (dense) or 'n m' (sparse)")


def _parse_count(x, what: str, from_json: bool = False) -> int:
    """A count or an index: ASCII digits in text, a nonnegative int (not a bool) in JSON."""
    if type(x) is not (int if from_json else str) or not _COUNT_RE.match(str(x)):
        raise MatrixFormatError(f"{what} must be a nonnegative integer, got {x!r}")
    return _int(x)


def _parse_triples(triples, rows, cols, from_json=False) -> dict:
    """The entries of 1-based (i, j, w) triples: indices in range, w finite, each cell once."""
    entries = {}
    for item in triples:
        if len(item) != 3:
            raise MatrixFormatError(f"entry needs 'i j w', got {item!r}")
        i = _parse_count(item[0], "row index", from_json)
        j = _parse_count(item[1], "col index", from_json)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixFormatError(f"index ({i}, {j}) outside {rows}x{cols}")
        v = parse_value_token(item[2])
        if v is None:
            raise MatrixFormatError("entry values must be finite")
        if (i - 1, j - 1) in entries:
            raise MatrixFormatError(f"duplicate entry ({i}, {j})")
        entries[(i - 1, j - 1)] = v
    return entries


def _parse_dense(header, body) -> TropicalMatrix:
    n = _parse_count(header[0], "dimension")
    if n == 0:
        raise MatrixFormatError("dimension must be positive")
    if len(body) != n:
        raise MatrixFormatError(f"expected {n} rows, found {len(body)}")
    rows = []
    for ln in body:
        tokens = ln.split()
        if len(tokens) != n:
            raise MatrixFormatError(f"expected {n} entries per row, found {len(tokens)}")
        rows.append([parse_value_token(tok) for tok in tokens])
    return TropicalMatrix.from_rows(rows)


def _parse_sparse(header, body) -> TropicalMatrix:
    n = _parse_count(header[0], "dimension")
    m = _parse_count(header[1], "entry count")
    if n == 0:
        raise MatrixFormatError("dimension must be positive")
    if len(body) != m:
        raise MatrixFormatError(f"expected {m} entry lines, found {len(body)}")
    return TropicalMatrix(n, n, _parse_triples((ln.split() for ln in body), n, n))


@_any_length_values()
def serialize_matrix(a: TropicalMatrix) -> str:
    lines = [str(a.rows)]
    grid = a.to_rows()
    for row in grid:
        lines.append(" ".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


@_any_length_values()
def matrix_grid(a: TropicalMatrix) -> str:
    """Aligned dense rendering (no header line)."""
    cells = [[format_value(v) for v in row] for row in a.to_rows()]
    widths = [max(len(cells[i][j]) for i in range(a.rows)) for j in range(a.cols)]
    return "\n".join(
        " ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)) for row in cells
    )


def matrix_digest(a: TropicalMatrix) -> str:
    return "sha256:" + hashlib.sha256(serialize_matrix(a).encode()).hexdigest()


def _matrix_block(m: TropicalMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [
            [i + 1, j + 1, format_value(v)] for (i, j), v in sorted(m.entries.items())
        ],
    }


def _matrix_from_block(block, rows, cols) -> TropicalMatrix:
    r = _parse_count(block["rows"], "block rows", True)
    c = _parse_count(block["cols"], "block cols", True)
    if r != rows or c != cols:
        raise MatrixFormatError("matrix block dimensions are inconsistent")
    return TropicalMatrix(r, c, _parse_triples(block["entries"], r, c, True))


def _node_ids(values, n, what) -> tuple:
    """0-based node ids from a JSON list of 1-based ones."""
    ids = tuple(_parse_count(v, what, True) - 1 for v in values)
    if not all(0 <= v < n for v in ids):
        raise MatrixFormatError(f"{what} outside 1..{n}")
    return ids


@_any_length_values()
def dump_expansion(x: CsrExpansion, input_digest: str | None = None) -> dict:
    terms = []
    for term in x.terms:
        terms.append(
            {
                "group": term.group,
                "rate": format_value(term.rate),
                "reduced": term.reduced,
                "circuit": {
                    "nodes": [v + 1 for v in term.circuit.nodes],
                    "weight": format_value(term.circuit.weight),
                },
                "nodes": [v + 1 for v in term.nodes],
                "scaling": [format_value(v) for v in term.scaling],
                "classes": None
                if term.classes is None
                else [[v + 1 for v in cls] for cls in term.classes],
                "C": _matrix_block(term.C),
                "S": _matrix_block(term.S),
                "R": _matrix_block(term.R),
            }
        )
    return {
        "format": "maxplus-expansion/1",
        "tool": f"maxplus {__version__}",
        "n": x.n,
        "threshold": x.threshold,
        "input_digest": input_digest,
        "terms": terms,
    }


def load_expansion(doc: dict) -> CsrExpansion:
    if not isinstance(doc, dict) or doc.get("format") != "maxplus-expansion/1":
        raise MatrixFormatError("not a maxplus-expansion/1 document")
    try:
        n = _parse_count(doc["n"], "n", True)
        terms = []
        for raw in doc["terms"]:
            ell = _parse_count(raw["S"]["rows"], "block rows", True)
            classes = raw.get("classes")
            if classes is not None:
                classes = tuple(_node_ids(cls, n, "class member") for cls in classes)
            reduced = raw.get("reduced", False)
            if type(reduced) is not bool:
                raise MatrixFormatError(f"reduced must be true or false, got {reduced!r}")
            if reduced != (classes is not None):
                raise MatrixFormatError("reduced must be true exactly when classes are given")
            scaling = tuple(parse_value_token(v) for v in raw["scaling"])
            if None in scaling:
                raise MatrixFormatError("scaling values must be finite")
            circuit = CircuitRecord(
                _node_ids(raw["circuit"]["nodes"], n, "circuit node"),
                parse_value_token(raw["circuit"]["weight"]),
            )
            terms.append(
                CsrTerm(
                    rate=parse_value_token(raw["rate"]),
                    C=_matrix_from_block(raw["C"], n, ell),
                    S=_matrix_from_block(raw["S"], ell, ell),
                    R=_matrix_from_block(raw["R"], ell, n),
                    circuit=circuit,
                    group=_parse_count(raw["group"], "group", True),
                    nodes=_node_ids(raw["nodes"], n, "node"),
                    scaling=scaling,
                    classes=classes,
                )
            )
        if _parse_count(doc["threshold"], "threshold", True) != 2 * n * n:
            raise MatrixFormatError(f"threshold must be 2 n^2 = {2 * n * n}")
        return CsrExpansion(n=n, terms=tuple(terms))
    except MatrixFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFormatError(f"bad expansion document: {exc}")


def _read_matrix(path: str) -> TropicalMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _cmd_roots(args) -> int:
    a = _read_matrix(args.file)
    mmcs = characteristic_roots(a)
    for root, mult in zip(mmcs.roots, mmcs.multiplicities):
        print(f"{format_value(root)} (x{mult})")
    if mmcs.epsilon_multiplicity:
        print(f"-inf (x{mmcs.epsilon_multiplicity})")
    print("mmcs:")
    for k, mc in enumerate(mmcs.multicircuits):
        print(f"  M_{k} = {mc}  (length {mc.total_length}, weight {format_value(mc.total_weight)})")
    return 0


def _cmd_expand(args) -> int:
    a = _read_matrix(args.file)
    x = expand(a, reduce_by_cyclicity=args.reduce)
    if args.json:
        doc = dump_expansion(x, input_digest=matrix_digest(a))
        print(json.dumps(doc, indent=2))
        return 0
    print(f"n = {x.n}")
    print(f"threshold = {x.threshold}")
    for term in x.terms:
        print(
            f"term {term.group}: rate = {format_value(term.rate)}, "
            f"circuit = {term.circuit}"
            + (", reduced" if term.reduced else "")
        )
        print("C =")
        print(matrix_grid(term.C))
        print("S =")
        print(matrix_grid(term.S))
        print("R =")
        print(matrix_grid(term.R))
    if not x.terms:
        print("no terms: the matrix is acyclic, powers from n on are all '-inf'")
    return 0


def _parse_t_range(spec: str):
    lo, sep, hi = spec.partition("..")
    if not sep or _parse_count(lo, "t-range start") > _parse_count(hi, "t-range end"):
        raise MatrixFormatError(f"bad t-range {spec!r}, expected 'a..b'")
    return range(int(lo), int(hi) + 1)


def _cmd_power(args) -> int:
    a = _read_matrix(args.file)
    t = _parse_count(args.t, "exponent")
    mode = "naive" if args.naive else "csr" if args.csr else None
    if mode is None:
        mode = "csr" if t >= 2 * a.rows * a.rows else "naive"
    if mode == "naive":
        result = matrix_power(a, t)
    else:
        result = expand(a).evaluate(t)
    sys.stdout.write(serialize_matrix(result))
    return 0


def _cmd_verify(args) -> int:
    a = _read_matrix(args.file)
    x = expand(a)
    if args.t_range:
        ts = _parse_t_range(args.t_range)
    else:
        ts = range(x.threshold, x.threshold + 21)
    report = brute_power_check(a, x, ts, seed=args.seed)
    if report.match:
        print(f"verify: OK ({report.instance})")
        return 0
    i, j, t, expected, got = report.counterexample
    print(
        f"verify: MISMATCH at entry ({i + 1}, {j + 1}), t = {t}: "
        f"expected {format_value(expected)}, expansion gives {format_value(got)}"
        + (f" [seed {report.seed}]" if report.seed is not None else "")
    )
    return 1


def _cmd_visualize(args) -> int:
    a = _read_matrix(args.file)
    mmcs = characteristic_roots(a)
    part = partition_nodes(mmcs, a.rows)
    vis = visualize_all(a, part)
    if not vis.groups:
        print("acyclic matrix: nothing to visualize")
        return 0
    for gv in vis.groups:
        nodes = ",".join(str(v + 1) for v in gv.nodes)
        print(
            f"group {gv.group}: nodes ({nodes}), rate = "
            f"{format_value(part.growth_rates[gv.group - 1])}, "
            f"circuit = {part.quasi_critical[gv.group - 1]}"
        )
        print("d = (" + ", ".join(format_value(v) for v in gv.scaling) + ")")
        print(matrix_grid(gv.matrix))
    return 0


def _cmd_eigen(args) -> int:
    a = _read_matrix(args.file)
    rate, critical, vectors = _principal_eigen(a)
    print(f"eigenvalue = {format_value(rate)}")
    print("critical nodes: " + ", ".join(str(v + 1) for v in sorted(critical.nodes)))
    print(
        "critical arcs: "
        + ", ".join(f"({u + 1},{v + 1})" for u, v in sorted(critical.arcs))
    )
    for node, column in vectors:
        vec = ", ".join(format_value(column.get(i, 0)) for i in range(a.rows))
        print(f"x_{node + 1} = ({vec})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Exact max-plus matrix powers via CSR expansions.",
    )
    parser.add_argument("--version", action="version", version=f"maxplus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="roots of the characteristic polynomial and the MMCS")
    p.add_argument("file")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("expand", help="compute the CSR expansion")
    p.add_argument("file")
    p.add_argument("--reduce", action="store_true", help="reduce terms by cyclicity classes")
    p.add_argument("--json", action="store_true", help="emit the expansion as JSON")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("power", help="t-th max-plus power of the matrix")
    p.add_argument("file")
    p.add_argument("t")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--naive", action="store_true", help="repeated multiplication")
    mode.add_argument("--csr", action="store_true", help="evaluate the CSR expansion")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("verify", help="check the expansion against naive powers")
    p.add_argument("file")
    p.add_argument("--t-range", help="inclusive range 'a..b' (default: threshold..threshold+20)")
    p.add_argument("--seed", type=int, help="seed recorded in the report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("visualize", help="per-group visualized submatrices and scalings")
    p.add_argument("file")
    p.set_defaults(func=_cmd_visualize)

    p = sub.add_parser("eigen", help="maximum eigenvalue, critical graph, eigenvectors")
    p.add_argument("file")
    p.set_defaults(func=_cmd_eigen)
    return parser


@_any_length_values()
def run_command(argv) -> int:
    """Run one command line and return its exit code.

    Values of any length cross the file formats: the interpreter's limit on
    decimal digits, where it has one, is lifted for the run and restored.
    """
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: --help, --version or a usage error
        return 0 if exc.code in (0, None) else 2
    except OSError as exc:
        print(f"maxplus: cannot read input: {exc}", file=sys.stderr)
        return 2
    except MatrixFormatError as exc:
        print(f"maxplus: bad input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"maxplus: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
