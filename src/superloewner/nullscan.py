"""Null-vector condition scanner on a Verma-level layer.

Probes whether

    psi = (-2 L_{-2} + (kappa/2) L_{-1}^2
           + (tau/2) sum_a (-1)^{p_a} X_a(-1) X^a(-1)) |v_lambda>

can be a null vector.  Null-ness is equivalent to X(1) psi = 0 and
X(2) psi = 0 for every basis X, and those reduce to two condition
families:

    one:  ((tau k - tau h - 2) X(-1) + kappa X(0) L_{-1}
           + tau sum_a (-1)^{p_a} [X, X_a](0) X^a(-1)) |v> = 0
    two:  (kappa + tau h - 4) X(0) |v> = 0,        h = h_vee = 3/2.

The candidate psi is `affine.annihilator_apply`, the operator Xi of the
annihilator check, with its odd Casimir terms at weight 1 instead of
eta1 eta2; condition one sums the same `superalgebra.CASIMIR` table and
h is `superalgebra.H_VEE`.  Both routes are implemented:
`null_conditions` evaluates the two families from the structure
tables, and `direct_residuals` reduces X(1) psi, X(2) psi from first
principles (they agree; the test suite asserts it).  The layer is Verma-level: E(0), e(0) kill the highest
weight vector, H(0) acts by lambda, and F(0), f(0) are free symbols, so
residuals are exact linear combinations of monomials like E(-1)|v> or
H(-1)F(0)|v>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .affine import (Module, Vector, act_mode, annihilator_apply, mode,
                     monomial_name, sugawara)
from .scalars import EXACT, to_complex
from .superalgebra import CASIMIR, H_VEE, SYMBOLS, bracket_symbols


def _verma(ring, k, lam) -> Module:
    root = ring.root  # the module's k and weight are root scalars
    return Module(ring, root.coerce(k), 3, floor="verma",
                  weight=root.coerce(lam))


def condition_one(x: str, k, lam, kappa, tau, ring=EXACT) -> Vector:
    """Residual of the first condition family for basis symbol x."""
    v = Vector.floor_vector(_verma(ring, k, lam))
    k, kappa, tau = (ring.coerce(p) for p in (k, kappa, tau))
    h_vee = ring.from_rational(H_VEE)
    res = act_mode(mode(x, -1), v).scale(tau * k - tau * h_vee
                                         - ring.from_int(2))
    res = res + act_mode(mode(x, 0), sugawara(-1, v)).scale(kappa)
    for num, den, xa, xd in CASIMIR:
        base = act_mode(mode(xd, -1), v).scale(ring.from_int(num) / den)
        for s2, c in bracket_symbols(x, xa).items():
            res = res + act_mode(mode(s2, 0), base).scale(
                tau * ring.from_int(c))
    return res


def condition_two(x: str, k, lam, kappa, tau, ring=EXACT) -> Vector:
    """Residual (kappa + tau h - 4) X(0)|v>."""
    v = Vector.floor_vector(_verma(ring, k, lam))
    kappa, tau = (ring.coerce(p) for p in (kappa, tau))
    coeff = kappa + tau * ring.from_rational(H_VEE) - ring.from_int(4)
    return act_mode(mode(x, 0), v).scale(coeff)


def candidate_psi(k, lam, kappa, tau, ring=EXACT) -> Vector:
    """The degree-2 null-vector candidate Xi(kappa, tau)|v_lambda>."""
    v = Vector.floor_vector(_verma(ring, k, lam))
    kappa, tau = (ring.coerce(p) for p in (kappa, tau))
    return annihilator_apply(kappa, tau, v, odd=ring.one)


def direct_residuals(x: str, k, lam, kappa, tau, ring=EXACT) -> tuple:
    """(X(1) psi, X(2) psi) reduced from first principles."""
    psi = candidate_psi(k, lam, kappa, tau, ring=ring)
    return (act_mode(mode(x, 1), psi), act_mode(mode(x, 2), psi))


@dataclass
class NullScanRecord:
    check: str
    parameters: dict
    residual_terms: dict
    passed: bool

    def to_json(self) -> dict:
        return {"check": self.check, "parameters": self.parameters,
                "residual_terms": self.residual_terms, "pass": self.passed}


@dataclass
class NullScanReport:
    records: list = field(default_factory=list)

    def to_json(self) -> list:
        return [r.to_json() for r in self.records]

    def all_residuals_zero(self) -> bool:
        return all(r.passed for r in self.records)


def _terms_json(vec: Vector) -> dict:
    out = {}
    for mono, c in sorted(vec.terms.items()):
        cc = to_complex(c)
        out[monomial_name(mono)] = [cc.real, cc.imag]
    return out


def null_conditions(k, lam, kappa, tau, ring=EXACT) -> NullScanReport:
    """Residual report for every X in {E, H, F, e, f}.

    A record "passes" when its residual is exactly zero, i.e. the
    corresponding null-vector condition holds at these parameters.
    """
    params = {"k": str(k), "lambda": str(lam),
              "kappa": str(kappa), "tau": str(tau)}
    report = NullScanReport()
    for x in SYMBOLS:
        r1 = condition_one(x, k, lam, kappa, tau, ring=ring)
        report.records.append(NullScanRecord(
            check=f"condition-1[X={x}]", parameters=params,
            residual_terms=_terms_json(r1), passed=r1.is_zero()))
        r2 = condition_two(x, k, lam, kappa, tau, ring=ring)
        report.records.append(NullScanRecord(
            check=f"condition-2[X={x}]", parameters=params,
            residual_terms=_terms_json(r2), passed=r2.is_zero()))
    return report
