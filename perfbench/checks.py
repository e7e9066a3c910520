"""Output checks, made outside the timed regions.

None of them calls into ``maxplus.csr``: the reference values come from
the benchmark's own copy of the input entries (``Instance.rows``), from
``maxplus.oracle`` or from a digest recorded with the benchmark.
"""

from __future__ import annotations


class Tally:
    """Checks attempted and failed; the first few failures are kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def matrix_row(m, i):
    """Finite entries of row i of a library matrix, as {column: value}."""
    row = {}
    for j in range(m.cols):
        v = m.get(i, j)
        if v is not None:
            row[j] = v
    return row


def row_times(row, inst):
    """Max-plus product of a row vector {k: value} with the instance matrix."""
    out = {}
    for k, rv in row.items():
        for j, w in inst.rows[k]:
            cand = rv + w
            cur = out.get(j)
            if cur is None or cand > cur:
                out[j] = cand
    return out


def check_step(tally, inst, e_t, e_next, i, t):
    """row_i(A^(t+1)) == row_i(A^t) (x) A, on two evaluated powers."""
    ok = matrix_row(e_next, i) == row_times(matrix_row(e_t, i), inst)
    tally.check(ok, f"row {i + 1}: evaluate({t} + 1) != evaluate({t}) (x) A")


def check_eigenvector(tally, inst, lam, node, column):
    """A (x) x == lam (x) x for an n x 1 eigenvector column."""
    x = {i: v for (i, _), v in column.entries.items()}
    lhs = {}
    for i in range(inst.n):
        for k, w in inst.rows[i]:
            if k in x:
                cand = w + x[k]
                cur = lhs.get(i)
                if cur is None or cand > cur:
                    lhs[i] = cand
    rhs = {i: lam + v for i, v in x.items()}
    tally.check(lhs == rhs, f"eigenvector x_{node + 1} fails A (x) x == {lam} (x) x")
