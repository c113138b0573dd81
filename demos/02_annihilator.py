#!/usr/bin/env python3
"""The exact Berezin annihilator identity on the vacuum module.

Applies the drift operator

    Xi(kappa, tau) = -2 L_{-2} + (kappa/2) L_{-1}^2
                     + (tau/2)[ sum_a J_a(-1)^2
                       + eta1 eta2 (E_{-a/2}(-1)E_{a/2}(-1)
                                    - E_{a/2}(-1)E_{-a/2}(-1)) ]

to |0> (x) (1 + eta1 eta2) and Berezin-integrates.  The result is an
exact zero in rational arithmetic precisely when tau = 2/(k + 3/2),
for every kappa; at any other tau a definite depth-2 vector survives.
"""

from fractions import Fraction

from superloewner import Module, Vector, annihilator_apply, berezin
from superloewner.grassmann import GrassRing
from superloewner.scalars import EXACT

G = GrassRing(EXACT)


def residual(k, kappa, tau):
    module = Module(G, EXACT.from_rational(k), 4)
    v0 = Vector.floor_vector(module)
    v = v0 + v0.scale(G.eta12)
    out = annihilator_apply(G.from_rational(kappa), G.from_rational(tau), v)
    return {m: berezin(c) for m, c in out.terms.items()
            if not berezin(c).is_zero()}


print("Berezin residual of Xi(kappa, tau) on |0> (x) (1 + eta1 eta2)\n")
for k in (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(10)):
    tau_c = Fraction(2) / (k + Fraction(3, 2))
    for kappa in (Fraction(2), Fraction(8, 3), Fraction(4)):
        res = residual(k, kappa, tau_c)
        status = "exact 0" if not res else f"NONZERO {res}"
        print(f"  k={str(k):>4}  kappa={str(kappa):>4}  "
              f"tau=2/(k+3/2)={str(tau_c):>5}  ->  {status}")

print("\nDetuning tau away from 2/(k+3/2) leaves a depth-2 residual:")
res = residual(Fraction(1), Fraction(2), Fraction(1, 3))
for mono, coeff in sorted(res.items()):
    from superloewner.affine import monomial_name
    print(f"  {monomial_name(mono):>24}  {coeff}")
