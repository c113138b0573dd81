"""Vectorized module backend for Monte Carlo batches.

The depth-truncated vacuum module is finite dimensional (24 states at
depth bound 2, 228 at 4), so the per-path state assembly reduces to
sparse matrix-vector work: enumerate the canonical PBW basis once, build
the matrices of X(-j) and L_{-j} with the exact dict engine and cast
them to complex.  `BatchAssembler` then runs the one assembly formula,
`evolution.assemble`, on a (dim, paths) coefficient block; its `apply`
back end is a sum of matrix products weighted by per-path coefficients.
Dual-word functionals become precomputed rows.  No assembly operator
lowers depth, so the Monte Carlo builds the module only as deep as its
dual words read (`word_depth`): the components it reads are the same
in any deeper module.

The matrices are built at an exact rational level k when k is given
exactly (int, str or Fraction) or is a float equal to a rational of
denominator at most 1000, so the only float error in an observable is
the final cast; any other k is built in complex floats.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import evolution
from .affine import Module, Vector, act_mode, act_word, mode, sugawara
from .scalars import COMPLEX, EXACT, to_complex
from .superalgebra import SYMBOLS


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
    """Sparse matrices of the mode and Virasoro operators at level k."""

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
        self._mode_mats = {}
        self._vir_mats = {}

    def _vector_of(self, mono) -> Vector:
        return Vector(self._module, {mono: self._module.ring.one})

    def _matrix(self, apply_fn) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        for j, mono in enumerate(self.basis):
            image = apply_fn(self._vector_of(mono))
            for m2, c in image.terms.items():
                rows.append(self.index[m2])
                cols.append(j)
                vals.append(to_complex(c))
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim),
                             dtype=complex)

    def mode_matrix(self, symbol: str, n: int) -> sp.csr_matrix:
        key = (symbol, n)
        if key not in self._mode_mats:
            self._mode_mats[key] = self._matrix(
                lambda v: act_mode(mode(symbol, n), v, project=True))
        return self._mode_mats[key]

    def virasoro_matrix(self, n: int) -> sp.csr_matrix:
        if n not in self._vir_mats:
            self._vir_mats[n] = self._matrix(
                lambda v: sugawara(n, v, project=True))
        return self._vir_mats[n]

    def word_row(self, word) -> np.ndarray:
        """Row vector of the functional <0| word . |0> on the basis."""
        row = np.zeros(self.dim, dtype=complex)
        for j, mono in enumerate(self.basis):
            v = act_word(word, self._vector_of(mono), project=True)
            row[j] = to_complex(v.floor_coeff())
        return row

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
        self.vir = [mm.virasoro_matrix(-j) for j in range(1, self.order + 1)]
        self.modes = {s: [mm.mode_matrix(s, -j)
                          for j in range(1, self.order + 1)]
                      for s in SYMBOLS}

    def _apply(self, pieces, block: np.ndarray) -> np.ndarray:
        out = np.zeros_like(block)
        for (sym, j), c in pieces:
            mats = self.vir if sym == evolution.VIRASORO else self.modes[sym]
            out += (mats[j - 1] @ block) * c
        return out

    def assemble(self, state, paths: int) -> np.ndarray:
        return evolution.assemble(state, self._apply,
                                  self.mm.floor_block(paths), self.mm.nrep)
