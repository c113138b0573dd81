"""Command line interface.

Subcommands: verify-annihilator, verify-virasoro, null-scan, simulate,
martingale-test, trace.  Flags override config-file values; exit code 0
means every check passed, 1 means a check failed, 2 a usage or config
error.  Verification subcommands take exact rationals ("1/2" works).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .grassmann import GrassRing, GrassmannScalar, berezin
from .affine import Module, Vector, annihilator_apply, mode, sugawara, act_mode
from .harness import (ConfigError, RunConfig, check_level, martingale_test,
                      parse_config_file, parse_value, simulate, trace,
                      trajectory_columns, trajectory_rows, write_csv,
                      write_json)
from .nullscan import null_conditions
from .scalars import EXACT


def _frac(text: str) -> Fraction:
    return parse_value("flag", text, Fraction)


def _fracs(flag: str, text: str) -> list:
    return [parse_value(flag, s, Fraction) for s in text.split(",")]


def _levels(text: str) -> list:
    ks = _fracs("--k-list", text)
    for k in ks:
        check_level(k)
    return ks


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superloewner",
        description="SLE with osp(1|2) internal symmetry: verification "
                    "and simulation")
    p.add_argument("--config", help="key=value config file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, rational_params=False):
        conv = _frac if rational_params else float
        sp.add_argument("--k", type=conv)
        sp.add_argument("--kappa", type=conv)
        sp.add_argument("--tau", type=conv)
        sp.add_argument("--order", type=int)
        sp.add_argument("--depth", type=int)
        sp.add_argument("--dt", type=float)
        sp.add_argument("--t-max", dest="t_max", type=float)
        sp.add_argument("--paths", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("csv", "json"))

    sp = sub.add_parser("verify-annihilator",
                        help="exact Berezin annihilator identity")
    common(sp, rational_params=True)
    sp.add_argument("--k-list", default="1/2,1,3,10")
    sp.add_argument("--kappa-list", default="2,8/3,4")

    sp = sub.add_parser("verify-virasoro",
                        help="exact Virasoro bracket and central charge")
    common(sp, rational_params=True)
    sp.add_argument("--k-list", default="1/2,1,3")

    sp = sub.add_parser("null-scan",
                        help="null-vector residual scan on the Verma layer")
    common(sp, rational_params=True)
    sp.add_argument("--lam", type=_frac, default=Fraction(1))
    sp.add_argument("--samples", type=int, default=10)

    for name in ("simulate", "martingale-test", "trace"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--checkpoints",
                        help="comma separated times, e.g. 0.1,0.25")
        sp.add_argument("--variant", choices=("derived", "displayed"))
    return p


def _merge_config(args) -> RunConfig:
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for f in dataclasses.fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            if f.name == "checkpoints" and isinstance(v, str):
                v = tuple(parse_value("--checkpoints", x, float)
                          for x in v.split(",") if x)
            values[f.name] = float(v) if isinstance(v, Fraction) else v
    return RunConfig(**values).validate()


def _emit(payload, cfg_out):
    if cfg_out:
        write_json(cfg_out, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_verify_annihilator(args) -> int:
    ks = _levels(args.k_list)
    kappas = _fracs("--kappa-list", args.kappa_list)
    G = GrassRing(EXACT)
    records = []
    ok = True
    for k in ks:
        for kap in kappas:
            kk = EXACT.from_rational(k)
            tau = EXACT.from_int(2) * (kk + EXACT.from_rational("3/2")).inverse()
            module = Module(G, GrassmannScalar.body(kk), 4)
            v0 = Vector.floor_vector(module)
            v = v0 + v0.scale(G.eta12)
            out = annihilator_apply(GrassmannScalar.body(
                EXACT.from_rational(kap)), GrassmannScalar.body(tau), v)
            resid = {m: berezin(c) for m, c in out.terms.items()}
            nonzero = {str(m): str(c) for m, c in resid.items()
                       if not c.is_zero()}
            passed = not nonzero
            ok &= passed
            records.append({"check": "annihilator", "k": str(k),
                            "kappa": str(kap), "tau": f"2/({k}+3/2)",
                            "residual_terms": nonzero, "pass": passed})
    _emit({"records": records, "pass": ok}, args.out)
    return 0 if ok else 1


def cmd_verify_virasoro(args) -> int:
    ks = _levels(args.k_list)
    records = []
    ok = True
    for k in ks:
        kk = EXACT.from_rational(k)
        module = Module(EXACT, kk, 4)
        vac = Vector.floor_vector(module)
        expect = kk * (EXACT.from_int(2) * kk
                       + EXACT.from_int(3)).inverse()
        got = sugawara(2, sugawara(-2, vac)).floor_coeff()
        passed = got == expect
        ck = kk * (kk + EXACT.from_rational("3/2")).inverse()
        tests = [vac, act_mode(mode("H", -1), vac),
                 act_mode(mode("e", -1), vac)]
        for (m, n) in ((1, -1), (2, -2), (1, -2), (2, -1)):
            for v in tests:
                lhs = (sugawara(m, sugawara(n, v, project=True), project=True)
                       - sugawara(n, sugawara(m, v, project=True),
                                  project=True))
                rhs = sugawara(m + n, v, project=True).scale(
                    EXACT.from_int(m - n))
                if m + n == 0:
                    rhs = rhs + v.scale(ck * EXACT.from_int(m ** 3 - m) / 12)
                passed &= lhs == rhs
        ok &= passed
        records.append({"check": "virasoro", "k": str(k),
                        "L2L-2_vacuum_coeff": str(got),
                        "expected": str(expect), "pass": passed})
    _emit({"records": records, "pass": ok}, args.out)
    return 0 if ok else 1


def cmd_null_scan(args) -> int:
    import random
    rng = random.Random(getattr(args, "seed", None) or 7)
    k = args.k if args.k is not None else Fraction(1)
    check_level(k)
    lam = args.lam
    records = []
    ok = True
    for i in range(args.samples):
        tau = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        kappa = Fraction(4) - Fraction(3, 2) * tau
        rep = null_conditions(k, lam, kappa, tau)
        # the no-go: for tau > 0 and lam != 0 some residual must survive
        nogo = not rep.all_residuals_zero()
        ok &= nogo
        records.append({"sample": i, "k": str(k), "lambda": str(lam),
                        "kappa": str(kappa), "tau": str(tau),
                        "nonzero_residual": nogo,
                        "records": rep.to_json()})
    vacuum = null_conditions(k, 0, Fraction(2),
                             Fraction(2) / (k + Fraction(3, 2)))
    # at lambda = 0 and tau = 2/(k+3/2) the condition-one residuals are
    # supported entirely on lowering zero modes, which the vacuum
    # relations F(0)|0> = f(0)|0> = 0 kill
    cond1_vacuum = all(
        "(0)" in name
        for r in vacuum.records if r.check.startswith("condition-1")
        for name in r.residual_terms)
    payload = {"no_go_confirmed": ok,
               "vacuum_condition1_zero_in_vacuum_quotient": cond1_vacuum,
               "samples": records}
    _emit(payload, args.out)
    return 0 if (ok and cond1_vacuum) else 1


def cmd_simulate(args) -> int:
    cfg = _merge_config(args)
    result = simulate(cfg)
    rows = trajectory_rows(result, path=0)
    cols = trajectory_columns(cfg.order)
    if cfg.out and cfg.format == "csv":
        write_csv(cfg.out, cols, rows)
        print(f"wrote {len(rows)} checkpoint rows to {cfg.out}")
    elif cfg.out:
        write_json(cfg.out, {"columns": cols, "rows": rows})
        print(f"wrote {len(rows)} checkpoint rows to {cfg.out}")
    else:
        print(",".join(cols))
        for row in rows:
            print(",".join("%.17g" % v for v in row))
    return 0


def cmd_martingale_test(args) -> int:
    cfg = _merge_config(args)
    report = martingale_test(cfg)
    if cfg.out:
        write_json(cfg.out, report.to_json())
    print(report.text())
    return 0 if report.all_pass() else 1


def cmd_trace(args) -> int:
    cfg = _merge_config(args)
    result = trace(cfg)
    payload = result.to_json()
    if cfg.out and cfg.format == "csv":
        rows = [[t, z.real, z.imag, s] for t, z, s in
                zip(result.times, result.tips, result.swallowed)]
        write_csv(cfg.out, ["t", "tip.re", "tip.im", "swallowed"], rows)
        print(f"wrote {len(rows)} trace rows to {cfg.out}")
    else:
        _emit(payload, cfg.out)
    return 0


_COMMANDS = {
    "verify-annihilator": cmd_verify_annihilator,
    "verify-virasoro": cmd_verify_virasoro,
    "null-scan": cmd_null_scan,
    "simulate": cmd_simulate,
    "martingale-test": cmd_martingale_test,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
