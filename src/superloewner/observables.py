"""Current-field and dual-word observables of the flow.

`observable_current` is the Berezin-projected vacuum matrix element of
the E-current against the represented flow,

    O(z) = int deta2 deta1 <0| E(z) G_t |0> (x) (1 + eta1 eta2),

as a closed series formula in the flow coordinates:

    O = (1 - 2 x^{12,H} - 2 x^{1,f} x^{2,e}) O_E
        + (x^{12,F} - x^{1,f} x^{2,f}) O_H
        - k d x^{12,F} + 2k x^{1,f} d x^{2,f},

    O_E = -k e^{-2 x^H} d x^F,
    O_H = -2k (d x^H + x^E e^{-2 x^H} d x^F),

obtained by conjugating E(z) through the exponential factors (weight-1
current transport plus the central terms (X|E) g'(z) k).  The formula
agrees exactly with the direct route <0|E(n) assemble_state_vector(s)>
wherever both are defined; the acceptance suite asserts that on random
rational states.  Only coefficients of z^{-n-1} with n <= N-1 are
order-exact because the formal derivative drops one order.

`dual_words` is the default depth <= 2 observable family for the Monte
Carlo martingale test: the empty word plus every single mode X(n) with
n in {1, 2}.
"""

from __future__ import annotations

from .affine import Module, mode, expectation
from .evolution import FlowState, assemble_state_vector
from .series import TailSeries, series_derive, series_exp, series_mul
from .superalgebra import SYMBOLS


def observable_current(state: FlowState, k, ring) -> TailSeries:
    """O(z) as a tail series in z; coeff(-n-1) pairs with <0|E(n) . |0>."""
    em2 = series_exp(-(state.xH + state.xH))
    dF = series_derive(state.xF)
    dH = series_derive(state.xH)
    d12F = series_derive(state.x12F)
    d2f = series_derive(state.x2f)
    two = ring.from_int(2)

    em2_dF = em2 * dF
    o_e = em2_dF.scale(-k)
    o_h = (dH + series_mul(state.xE, em2_dF)).scale(-two * k)

    out = o_e
    out = out - series_mul(state.x12H, o_e).scale(two)
    out = out - series_mul(series_mul(state.x1f, state.x2e), o_e).scale(two)
    out = out + series_mul(state.x12F, o_h)
    out = out - series_mul(series_mul(state.x1f, state.x2f), o_h)
    out = out - d12F.scale(k)
    out = out + series_mul(state.x1f, d2f).scale(two * k)
    return out


def current_via_module(state: FlowState, module: Module, n: int):
    """Oracle route: <0| E(n) assemble_state_vector(state) |0>."""
    v = assemble_state_vector(state, module)
    return expectation([mode("E", n)], v)


def dual_words(depth: int = 2) -> list:
    """Default dual-word family: empty word + single modes X(n), n <= depth."""
    words = [("1", ())]
    for n in range(1, depth + 1):
        for s in SYMBOLS:
            words.append((f"{s}({n})", (mode(s, n),)))
    return words

