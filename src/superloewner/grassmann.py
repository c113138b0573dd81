"""The Grassmann algebra on two generators and the Berezin integral.

Elements live on the basis (1, eta1, eta2, eta12), eta12 = eta1*eta2.
The generators anticommute among themselves and square to zero; they
commute with all module operators (the convention pinned by the
standard-form identity (eta1 A + eta2 B)^2 = eta1 eta2 (AB - BA) for odd
operators A, B).  The sign rule is the product table of the extension,
eta1 eta2 = eta12 and eta2 eta1 = -eta12.

Berezin integration is the double integral with d(eta1) innermost, so
int deta2 deta1 (eta1 eta2) = 1: it reads off the top component.
"""

from __future__ import annotations

from .scalars import Ring

_ETA12 = 3  # slot of eta1*eta2 on the basis (1, eta1, eta2, eta12)


def berezin(a):
    """int deta2 deta1 a: the eta1*eta2 component."""
    return a.coeffs[_ETA12]


def GrassRing(base: Ring) -> Ring:
    """The ring of Grassmann coefficients over `base`: its lift is the
    body, and it carries the generators eta1, eta2 and eta1*eta2."""
    ring = Ring.extend(base, ("eta1", "eta2", "eta12"),
                       {("eta1", "eta2"): (1, "eta12"),
                        ("eta2", "eta1"): (-1, "eta12")}, "grassmann")
    ring.eta1, ring.eta2, ring.eta12 = ring.gens
    return ring
