"""Command-line interface.

Every subcommand wraps its payload in a deterministic envelope
{"command", "version", "params", "result"}; exact rationals are serialized
as "num/den" strings and integers never degrade to floats.

Exit codes: 0 success, 1 usage error, 2 computation refused (hypothesis
violated), 3 internal cross-check failure.  Every check, in a handler or in
the library, raises through `arith._cross_check`; `main` alone turns that
AssertionError into exit 3 and names the failed check on stderr.

Each subcommand imports the latq modules it runs inside its own handler, so
a cold process loads only those (and numpy only when a kernel needs it).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd

from . import __version__
from .arith import _cross_check

USAGE_ERROR = 1
REFUSED = 2
CROSSCHECK_FAILED = 3

# qseries.DEFAULT_PREC; only `theta` loads qseries, through _qs()
_DEFAULT_PREC = 128


def _qs():
    from . import qseries

    return qseries


def _theta_e7(prec):
    # the E7 identity lives in gram, so that the verdict's shell check reads
    # it without loading qseries or the rest of the lattice code
    from .gram import theta_e7

    return _qs().QSeries(1, prec, tuple(theta_e7(prec)))


_THETA_CLOSED = {
    "A1": lambda prec: _qs().theta_A(1, prec),
    "A2": lambda prec: _qs().theta_A(2, prec),
    "A5": lambda prec: _qs().theta_A(5, prec),
    "D4": lambda prec: _qs().theta_D(4, prec),
    "D6": lambda prec: _qs().theta_D(6, prec),
    "A1D4": lambda prec: _qs().theta_A(1, prec) * _qs().theta_D(4, prec),
    "E7": _theta_e7,
}

_LATTICE_NAMES = {"A1D4": "A1+D4"}


def _lattice(name: str):
    from . import lattices as lt

    return lt.standard_lattice(_LATTICE_NAMES.get(name, name))


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _emit(args, command, params, result, csv_rows, csv_header):
    if args.format == "json":
        envelope = {
            "command": command,
            "version": __version__,
            "params": params,
            "result": result,
        }
        print(json.dumps(envelope, sort_keys=True))
    elif args.format == "csv":
        print(",".join(csv_header))
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        _print_text(command, params, result)


def _print_text(command, params, result):
    pstr = " ".join(f"{k}={v}" for k, v in params.items())
    print(f"{command} [{pstr}]")
    if isinstance(result, dict):
        for k, v in result.items():
            print(f"  {k}: {v}")
    else:
        for item in result:
            print(f"  {item}")


def _cmd_theta(args):
    prec = args.prec
    name = args.lattice
    closed = None
    enum = None
    if args.method in ("closed", "both"):
        closed = _THETA_CLOSED[name](prec).integer_coefficients()
    if args.method in ("enum", "both"):
        cached = _cache_lookup(args, name, prec)
        if cached is not None:
            enum = cached
        else:
            # only a cache miss enumerates; the closed forms and a cache hit
            # need no lattice code
            from . import lattices as lt

            enum = lt.theta_counts(_lattice(name), prec)
            _cache_store(args, name, prec, enum)
    if args.method == "both":
        _cross_check(closed == enum, "cli.theta_closed_vs_enum", "closed form and enumeration differ")
    coeffs = closed if closed is not None else enum
    _emit(
        args,
        "theta",
        {"lattice": name, "prec": prec, "method": args.method},
        {"grid": 1, "coefficients": coeffs},
        csv_rows=list(enumerate(coeffs)),
        csv_header=("exponent", "coefficient"),
    )
    return 0


def _cache_lookup(args, name, prec):
    if not args.cache:
        return None
    try:
        records = _qs().load_theta_cache(args.cache)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        print(f"ignoring cache: {exc}", file=sys.stderr)
        return None
    hit = records.get((name, 1, prec))
    return list(hit) if hit is not None else None


def _cache_store(args, name, prec, coeffs):
    if not args.cache:
        return
    try:
        records = _qs().load_theta_cache(args.cache)
    except FileNotFoundError:
        records = {}
    except ValueError as exc:
        # rewriting would drop the records a refused file still holds
        print(f"leaving cache unchanged: {exc}", file=sys.stderr)
        return
    records[(name, 1, prec)] = list(coeffs)
    _qs().save_theta_cache(args.cache, records)


def _cmd_repcount(args):
    from . import lattices as lt

    L = _lattice(args.lattice)
    count = lt.rep_count(L, args.norm)
    _emit(
        args,
        "repcount",
        {"lattice": args.lattice, "norm": args.norm},
        {"count": count},
        csv_rows=[(args.lattice, args.norm, count)],
        csv_header=("lattice", "norm", "count"),
    )
    return 0


def _cmd_siegel(args):
    from . import siegel as sg

    rep = sg.siegel_r(args.form, args.t)
    result = {"r": rep.r}
    if args.report:
        result.update(
            {
                "t_A": rep.t_a,
                "t1": rep.t1,
                "t2": rep.t2,
                "D": rep.D,
                "delta": rep.delta,
                "alpha": {str(p): _frac_str(a) for p, a in rep.alphas},
                "local_factors": {str(p): _frac_str(a) for p, a in rep.local_factors},
                "cohen_H": _frac_str(rep.cohen),
                "L2_bounds": list(rep.l_value_bounds),
                "routes_agree": rep.routes_agree,
            }
        )
    _emit(
        args,
        "siegel",
        {"form": args.form, "t": args.t},
        result,
        csv_rows=[(args.form, args.t, rep.r)],
        csv_header=("form", "t", "r"),
    )
    return 0


def _cmd_orbits(args):
    from . import polarisation as po

    if args.sweep:
        rows = []
        for t in range(1, args.t + 1):
            for d in range(1, args.d + 1):
                g = gcd(2 * t, 2 * d)
                for f in range(1, g + 1):
                    if g % f:
                        continue
                    rep = po.orbit_count_formula(t, d, f)
                    oracle = po.orbit_count_oracle(t, d, f)
                    rows.append((t, d, f, rep.case, rep.exists, rep.count, oracle, rep.count == oracle))
        first = next((r[:3] for r in rows if not r[-1]), None)
        _cross_check(first is None, "cli.orbit_sweep", f"orbit count formula and oracle differ at (t, d, f) = {first}")
        _emit(
            args,
            "orbits-sweep",
            {"t_max": args.t, "d_max": args.d},
            [list(r) for r in rows],
            csv_rows=rows,
            csv_header=("t", "d", "f", "case", "exists", "count_formula", "count_oracle", "match"),
        )
        return 0
    if args.f is None:
        print("provide --f or --sweep", file=sys.stderr)
        return USAGE_ERROR
    rep = po.orbit_count_formula(args.t, args.d, args.f)
    oracle = po.orbit_count_oracle(args.t, args.d, args.f)
    _cross_check(rep.count == oracle, "cli.orbit_count", f"orbit count formula {rep.count} != oracle {oracle}")
    _emit(
        args,
        "orbits",
        {"t": args.t, "d": args.d, "f": args.f},
        {
            "exists": rep.exists,
            "count": rep.count,
            "case": rep.case,
            "witness_c": rep.witness_c,
        },
        csv_rows=[(args.t, args.d, args.f, rep.case, rep.exists, rep.count, oracle, True)],
        csv_header=("t", "d", "f", "case", "exists", "count_formula", "count_oracle", "match"),
    )
    return 0


def _cmd_index(args):
    from . import polarisation as po

    try:
        formula = po.stable_index_formula(args.t, args.d, args.f)
        oracle = po.stable_index_oracle(args.t, args.d, args.f)
    except po.HypothesisViolation as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSED
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _cross_check(formula == oracle, "cli.stable_index", f"index formula {formula} != oracle {oracle}")
    _emit(
        args,
        "index",
        {"t": args.t, "d": args.d, "f": args.f},
        {"index": formula},
        csv_rows=[(args.t, args.d, args.f, formula)],
        csv_header=("t", "d", "f", "index"),
    )
    return 0


def _cmd_e7_search(args):
    from . import kodaira as ko

    res = ko.search(args.d, max_roots=args.max_roots)
    result = {
        "d": args.d,
        "min_orthogonal": res.min_orthogonal,
        "witness": list(res.witness) if res.witness else None,
        "weight": res.weight,
        "shell_size": res.shell_size,
        "success": res.success,
    }
    if args.all:
        result["achievable"] = list(res.achievable)
    _emit(
        args,
        "e7-search",
        {"d": args.d, "max_roots": args.max_roots},
        result,
        csv_rows=[(args.d, res.min_orthogonal, res.weight, res.shell_size)],
        csv_header=("d", "min_orthogonal", "weight", "shell_size"),
    )
    return 0


def _cmd_inequality(args):
    from . import kodaira as ko

    if args.m_max < 1:
        raise ValueError("--m-max must be positive")
    rows = []
    for m in range(1, args.m_max + 1):
        holds, slack = ko.inequality_check(m, args.coeff)
        rows.append((m, slack, holds))
    _emit(
        args,
        "inequality",
        {"coeff": args.coeff, "m_max": args.m_max},
        [list(r) for r in rows],
        csv_rows=rows,
        csv_header=("m", "slack", "holds"),
    )
    return 0


def _cmd_verdict(args):
    from . import kodaira as ko

    v = ko.verdict(args.d)
    _emit(
        args,
        "verdict",
        {"d": args.d},
        {
            "classification": v.classification,
            "n_orthogonal": v.n_orthogonal,
            "weight": v.weight,
            "witness": list(v.witness) if v.witness else None,
        },
        csv_rows=[(args.d, v.classification, v.n_orthogonal, v.weight)],
        csv_header=("d", "classification", "n_orthogonal", "weight"),
    )
    return 0


def _cmd_table1(args):
    from . import kodaira as ko
    from . import lattices as lt

    L = lt.E7()
    rows = []
    for d, p, lam in ko.WITNESS_TABLE:
        nrm = lt.norm(L, lam)
        cnt = ko.orthogonal_root_count(lam)
        rows.append((d, p, " ".join(str(x) for x in lam), nrm, cnt, nrm == 2 * d and cnt == 2 * p))
    failed = [r[0] for r in rows if not r[-1]]
    _cross_check(not failed, "cli.table1_witnesses", f"witness rows fail their norm or root count at d = {failed}")
    _emit(
        args,
        "table1",
        {},
        [
            {
                "d": d,
                "pairs": p,
                "vector": vec,
                "norm": nrm,
                "orthogonal_roots": cnt,
                "match": match,
            }
            for d, p, vec, nrm, cnt, match in rows
        ],
        csv_rows=rows,
        csv_header=("d", "pairs", "vector", "norm", "orthogonal_roots", "match"),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latq", description="exact lattice / theta / local density toolkit")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--cache", default=None, help="theta coefficient cache file")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS)
    common.add_argument("--cache", default=argparse.SUPPRESS, help="theta coefficient cache file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", parents=[common], help="theta series coefficients")
    p.add_argument("--lattice", required=True, choices=sorted(_THETA_CLOSED))
    p.add_argument("--prec", type=int, default=_DEFAULT_PREC)
    p.add_argument("--method", choices=("closed", "enum", "both"), default="both")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("repcount", parents=[common], help="representation number of a norm")
    p.add_argument("--lattice", required=True)
    p.add_argument("--norm", type=int, required=True)
    p.set_defaults(func=_cmd_repcount)

    p = sub.add_parser("siegel", parents=[common], help="exact representation number via local densities")
    p.add_argument("--form", required=True, choices=("S5", "A1D4", "A5"))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_siegel)

    p = sub.add_parser("orbits", parents=[common], help="polarisation orbit counts")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", type=int, default=None)
    p.add_argument("--sweep", action="store_true", help="sweep all f for t, d up to the given bounds")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("index", parents=[common], help="stable orthogonal group index")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("e7-search", parents=[common], help="short vectors orthogonal to few roots")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-roots", type=int, default=14)
    p.add_argument("--all", action="store_true", help="include the achievable count set")
    p.set_defaults(func=_cmd_e7_search)

    p = sub.add_parser("inequality", parents=[common], help="root counting inequality scan")
    p.add_argument("--coeff", type=int, choices=(5, 6), required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=_cmd_inequality)

    p = sub.add_parser("verdict", parents=[common], help="Kodaira-type verdict for degree d")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("table1", parents=[common], help="recompute the bundled witness table")
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return CROSSCHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
