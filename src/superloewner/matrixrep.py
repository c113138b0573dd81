"""Vectorized module backend for Monte Carlo batches.

The depth-truncated vacuum module is finite dimensional (24 states at
depth bound 2, 228 at 4), and each assembly operator has 1 to 9 nonzero
entries at depth 2.  `MatrixModule` enumerates the canonical PBW basis once
and keeps, for each X(-j) and L_{-j}, an entry table: the operator's
nonzero entries, read by `act_mode`/`sugawara` from the exact module's
tables of per-monomial images, cast to complex and grouped by row.
`BatchAssembler` then runs the one assembly formula,
`evolution.assemble`, on a (dim, paths) coefficient block; its `apply`
back end adds, row by row, the block's entry columns times the per-path
coefficients, and skips a piece whose coefficient is absent under the
`series` skip rule.  Dual-word functionals become precomputed rows.  No
assembly operator lowers depth, so the Monte Carlo builds the module only
as deep as its dual words read (`word_depth`): the components it reads
are the same in any deeper module.

The tables are built at an exact rational level k when k is given
exactly (int, str or Fraction) or is a float equal to a rational of
denominator at most 1000, so the only float error in an observable is
the final cast; any other k is built in complex floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import evolution
from .affine import Module, Vector, act_mode, act_word, mode, sugawara
from .scalars import COMPLEX, EXACT, to_complex
from .series import _absent
from .superalgebra import SYMBOLS


class EntryTable(NamedTuple):
    """The nonzero entries of one operator on the basis: `rows` holds
    (row, ((col, value), ...)) with each row's columns in increasing
    order."""
    rows: tuple
    nnz: int


def _basis_monomials(nrep: int) -> list:
    """Canonical monomials of depth <= nrep in the engine's sort order."""
    modes = sorted(((s, -d) for s in range(5) for d in range(1, nrep + 1)),
                   key=lambda m: (m[1], m[0]))
    out = []

    def extend(prefix, start, budget):
        out.append(tuple(prefix))
        for idx in range(start, len(modes)):
            s, n = modes[idx]
            if -n > budget:
                continue
            if prefix and prefix[-1] == (s, n) and s >= 3:
                continue  # odd mode at most once per (symbol, n) slot
            prefix.append((s, n))
            extend(prefix, idx, budget + n)
            prefix.pop()

    extend([], 0, nrep)
    return sorted(set(out), key=lambda m: (len(m), m))


def _exact_level(k):
    """Exact value of the level k, or None when k is built in floats."""
    if isinstance(k, (int, str, Fraction)):
        return Fraction(k)
    near = Fraction(k).limit_denominator(1000)
    return near if float(near) == k else None


class MatrixModule:
    """Entry tables of the mode and Virasoro operators at level k."""

    def __init__(self, k, nrep: int):
        self.nrep = nrep
        exact = _exact_level(k)
        if exact is None:
            self._module = Module(COMPLEX, complex(k), nrep)
        else:
            self._module = Module(EXACT, EXACT.from_rational(exact), nrep)
        self.k = to_complex(self._module.k)
        self.basis = _basis_monomials(nrep)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._tables = {}
        self._rows = {}

    def _vector_of(self, mono) -> Vector:
        return Vector(self._module, {mono: self._module.ring.one})

    def table(self, symbol: str, n: int) -> EntryTable:
        """Entry table of X(n), or of L_n when symbol is VIRASORO."""
        key = (symbol, n)
        if key not in self._tables:
            rows = {}
            for j, mono in enumerate(self.basis):
                v = self._vector_of(mono)
                image = (sugawara(n, v, project=True)
                         if symbol == evolution.VIRASORO
                         else act_mode(mode(symbol, n), v, project=True))
                for m2, c in image.terms.items():
                    rows.setdefault(self.index[m2], []).append(
                        (j, to_complex(c)))
            self._tables[key] = EntryTable(
                tuple((i, tuple(rows[i])) for i in sorted(rows)),
                sum(map(len, rows.values())))
        return self._tables[key]

    def word_row(self, word) -> np.ndarray:
        """Row vector of the functional <0| word . |0> on the basis."""
        if word not in self._rows:
            row = np.zeros(self.dim, dtype=complex)
            for j, mono in enumerate(self.basis):
                v = act_word(word, self._vector_of(mono), project=True)
                row[j] = to_complex(v.floor_coeff())
            row.flags.writeable = False  # shared by every caller
            self._rows[word] = row
        return self._rows[word]

    def floor_block(self, paths: int) -> np.ndarray:
        block = np.zeros((self.dim, paths), dtype=complex)
        block[self.index[()], :] = 1.0
        return block


class BatchAssembler:
    """Assemble Berezin-projected states for a whole path batch at once.

    The batch FlowState carries numpy arrays over paths (or scalars) as
    series coefficients; `assemble` returns the (dim, paths) block whose
    column p is the state of path p on the basis of `mm`.
    """

    def __init__(self, mm: MatrixModule, order: int):
        self.mm = mm
        self.order = min(order, mm.nrep)
        js = range(1, self.order + 1)
        self.vir = [mm.table(evolution.VIRASORO, -j) for j in js]
        self.modes = {s: [mm.table(s, -j) for j in js] for s in SYMBOLS}

    def _apply(self, pieces, block: np.ndarray) -> np.ndarray:
        # each row gets (sum of value * block[col]) * c, the rounding of
        # a matrix product, with one (paths,) temporary per row
        out = np.zeros(block.shape, dtype=complex)
        for (sym, j), c in pieces:
            if _absent(c):
                continue
            tables = self.vir if sym == evolution.VIRASORO \
                else self.modes[sym]
            for row, entries in tables[j - 1].rows:
                (col, value), *rest = entries
                acc = block[col] * value
                for col, value in rest:
                    acc += block[col] * value
                acc *= c
                out[row] += acc
        return out

    def assemble(self, state, paths: int) -> np.ndarray:
        return evolution.assemble(state, self._apply,
                                  self.mm.floor_block(paths), self.mm.nrep)
