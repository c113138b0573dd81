"""Command line interface.

Subcommands: verify-annihilator, verify-virasoro, null-scan, simulate
and martingale-test, each with only the flags it reads.  The two run
commands also read a config file, but only the keys they read; a
flag overrides it and parses as the config value of its field does
("1/2" works).  Exit code 0 means every check passed, 1 means a check
failed, 2 a usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .grassmann import GrassRing, berezin
from .affine import Module, Vector, annihilator_apply, mode, sugawara, act_mode
from .harness import (FLAGS, READS, ConfigError, RunConfig, check_level,
                      convert_field, csv_text, json_text, martingale_test,
                      parse_config_file, parse_value, simulate,
                      trajectory_columns, trajectory_rows, write_csv,
                      write_json)
from .nullscan import null_conditions
from .scalars import EXACT
from .superalgebra import H_VEE, structure_constants


def _frac(text: str) -> Fraction:
    return parse_value("flag", text, Fraction)


def _fracs(flag: str, text: str) -> list:
    return [parse_value(flag, s, Fraction) for s in text.split(",")]


def _levels(text: str) -> list:
    ks = _fracs("--k-list", text)
    for k in ks:
        check_level(k)
    return ks


_HELP = {"checkpoints": "comma separated times, e.g. 0.1,0.25"}


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superloewner", allow_abbrev=False,
        description="SLE with osp(1|2) internal symmetry: verification "
                    "and simulation")
    p.add_argument("--config", help="key=value config file (simulate and "
                                    "martingale-test only)")
    sub = p.add_subparsers(dest="command", required=True)
    # no prefix matching: "--k" must not stand for "--k-list" or "--kappa"
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add("verify-annihilator", help="exact Berezin annihilator identity")
    sp.add_argument("--k-list", default="1/2,1,3,10")
    sp.add_argument("--kappa-list", default="2,8/3,4")
    sp.add_argument("--out")

    sp = add("verify-virasoro",
             help="exact Virasoro bracket and central charge")
    sp.add_argument("--k-list", default="1/2,1,3")
    sp.add_argument("--out")

    sp = add("null-scan",
             help="null-vector residual scan on the Verma layer")
    sp.add_argument("--k", type=_frac, default=Fraction(1))
    sp.add_argument("--lam", type=_frac, default=Fraction(1))
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--out")

    # run-command flags are converted by harness.convert_field, as
    # config-file values are
    for name, fields in FLAGS.items():
        sp = add(name)
        for f in fields:
            sp.add_argument(_flag(f), dest=f, help=_HELP.get(f))
    return p


def _merge_config(args) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    for f in FLAGS[args.command]:
        text = getattr(args, f)
        if text is not None:
            values[f] = convert_field(f, text, _flag(f))
    unread = set(values) - set(READS[args.command])
    if unread:
        raise ConfigError(f"config keys {sorted(unread)} are not read by "
                          f"{args.command}")
    return RunConfig(**values).validate()


def _emit(payload, cfg_out):
    if cfg_out:
        write_json(cfg_out, payload)
    print(json_text(payload), end="")


def cmd_verify_annihilator(args) -> int:
    ks = _levels(args.k_list)
    kappas = _fracs("--kappa-list", args.kappa_list)
    G = GrassRing(EXACT)
    records = []
    ok = True
    for k in ks:
        for kap in kappas:
            tau = structure_constants(k).tau_default
            module = Module(G, EXACT.from_rational(k), 4)
            v0 = Vector.floor_vector(module)
            v = v0 + v0.scale(G.eta12)
            out = annihilator_apply(G.from_rational(kap), G.lift(tau), v)
            resid = {m: berezin(c) for m, c in out.terms.items()}
            nonzero = {str(m): str(c) for m, c in resid.items()
                       if not c.is_zero()}
            passed = not nonzero
            ok &= passed
            records.append({"check": "annihilator", "k": str(k),
                            "kappa": str(kap), "tau": f"2/({k}+{H_VEE})",
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
        ck = structure_constants(kk).central_charge
        # <0|L_2 L_{-2}|0> = c_k/2
        expect = ck / 2
        got = sugawara(2, sugawara(-2, vac)).floor_coeff()
        passed = got == expect
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
    if args.samples < 1:
        raise ConfigError("null-scan needs at least one sample")
    rng = random.Random(args.seed)
    k, lam = args.k, args.lam
    check_level(k)

    def scan(*params):
        try:
            return null_conditions(*params)
        except OverflowError:  # the JSON residuals are floats
            raise ConfigError("k or lambda is too large: a residual "
                              "coefficient overflows a float") from None

    records = []
    ok = True
    for i in range(args.samples):
        tau = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        kappa = Fraction(4) - H_VEE * tau
        rep = scan(k, lam, kappa, tau)
        # the no-go: for tau > 0 and lam != 0 some residual must survive
        nogo = not rep.all_residuals_zero()
        ok &= nogo
        records.append({"sample": i, "k": str(k), "lambda": str(lam),
                        "kappa": str(kappa), "tau": str(tau),
                        "nonzero_residual": nogo,
                        "records": rep.to_json()})
    vacuum = scan(k, 0, Fraction(2), Fraction(2) / (k + H_VEE))
    # at lambda = 0 and tau = 2/(k + h_vee) the condition-one residuals are
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
    rows = trajectory_rows(simulate(cfg))
    cols = trajectory_columns(cfg.order)
    payload = {"columns": cols, "rows": rows}
    as_csv = cfg.format == "csv"
    if not cfg.out:
        sys.stdout.write(csv_text(cols, rows) if as_csv
                         else json_text(payload))
    else:
        if as_csv:
            write_csv(cfg.out, cols, rows)
        else:
            write_json(cfg.out, payload)
        print(f"wrote {len(rows)} checkpoint rows to {cfg.out}")
    return 0


def cmd_martingale_test(args) -> int:
    cfg = _merge_config(args)
    report = martingale_test(cfg)
    if cfg.out:
        write_json(cfg.out, report.to_json())
    print(report.text())
    return 0 if report.all_pass() else 1


_COMMANDS = {
    "verify-annihilator": cmd_verify_annihilator,
    "verify-virasoro": cmd_verify_virasoro,
    "null-scan": cmd_null_scan,
    "simulate": cmd_simulate,
    "martingale-test": cmd_martingale_test,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config and args.command not in FLAGS:
            raise ConfigError(f"--config applies to {', '.join(FLAGS)}"
                              f" only, not {args.command}")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
