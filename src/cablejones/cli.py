"""Command-line frontend.

Subcommands:

  jones      print the (optionally normalized) invariant of an expression
  eval       numeric normalized value at A0 = exp(i*pi/2N)
  growth     per-N growth/decay table, optionally as CSV
  trinomial  print a coefficient table
  verify     run the self-check suites (symfun, bracket)

Exit codes: 0 success, 1 computation error or out of memory (error name on
stderr) or an output pipe closed by its reader, 2 usage error.  ``verify``
exits 0 only if every selected suite passes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from itertools import product as iter_product

from . import asympt, bracket, jones, linkexpr, symfun, trinomial
from .laurent import ComputationError

__all__ = ["entry", "main"]

def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _int(text: str) -> int:
    """An integer option, read as the expression grammar reads an integer."""
    try:
        return linkexpr.parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_colors(text: str) -> tuple[int, ...]:
    try:
        return tuple(linkexpr.parse_integer(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad color list {text!r}; expected e.g. 2,2,3") from None


def _parse_range(text: str) -> list[int]:
    """a:b:x<k> is the geometric sweep a, a*k, ... up to b; or a comma list."""
    try:
        if ":" not in text:
            return [linkexpr.parse_integer(p) for p in text.split(",")]
        a, b, k = text.split(":")
        a, b, k = map(linkexpr.parse_integer, (a, b, k[1:] if k.startswith("x") else "0"))
        if a < 1 or b < a or k < 2:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected a:b:x2 or a comma list") from None
    out = []
    n = a
    while n <= b:
        out.append(n)
        n *= k
    return out


def _cmd_trinomial(args) -> int:
    table = trinomial.trinomial_table(_parse_colors(args.colors))
    if args.json:
        print(json.dumps(table.as_json_dict()))
    else:
        for m, c in table.items():
            print(f"{m} : {c}")
    return 0


def _cmd_jones(args) -> int:
    if args.split_mult is not None and not args.normalized:
        raise ValueError("--split-mult needs --normalized")
    e = linkexpr.parse(args.expr)
    colors = _parse_colors(args.colors)
    if args.normalized:
        split_mult = 1 if args.split_mult is None else args.split_mult
        result = jones.normalized_jones(e, colors, split_mult)
        if isinstance(result, jones.DeferredRatio):
            msg = (f"[{result.color}]^{result.power} does not divide; "
                   "use `eval` for the limit value")
            if args.json:
                print(json.dumps({"deferred": True,
                                  "numerator": result.numerator.to_json_dict(),
                                  "divisor_color": result.color,
                                  "divisor_power": result.power}))
            else:
                print(msg)
            return 0
    else:
        result = jones.colored_jones(e, colors)
    print(json.dumps(result.to_json_dict()) if args.json else str(result))
    return 0


def _cmd_eval(args) -> int:
    e = linkexpr.parse(args.expr)
    value = asympt.eval_normalized_at_root(e, args.color_all, args.split_mult)
    if args.json:
        print(json.dumps({"re": value.real, "im": value.imag}))
    else:
        print(_fmt_complex(value))
    return 0


def _cmd_growth(args) -> int:
    e = linkexpr.parse(args.expr)
    ns = _parse_range(args.n)
    try:  # before the rows are computed, so a bad path costs nothing
        out = (open(args.csv, "w", newline="") if args.csv
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        raise ValueError(f"cannot write {args.csv!r}: {exc.strerror}") from None
    with out as fh:
        records = asympt.growth_table(e, ns, args.split_mult, threads=args.threads)
        w = csv.writer(fh, lineterminator="\r\n" if args.csv else "\n")
        w.writerow(["N", "maxdeg", "mindeg", "maxabscoeff", "abs_eval", "vc_value"])
        w.writerows([r.N, r.maxdeg, r.mindeg, r.maxabscoeff, f"{r.abs_eval:.12g}",
                     "" if r.vc_value is None else f"{r.vc_value:.12g}"]
                    for r in records)
    return 0


def _cmd_verify(args) -> int:
    suites = []
    if args.suite in ("symfun", "all"):
        suites.append(("symfun", _verify_symfun()))
    if args.suite in ("bracket", "all"):
        suites.append(("bracket", _verify_bracket()))
    width = max(len(name) for name, _ in suites)
    ok = True
    for name, passed in suites:
        print(f"{name:<{width}}  {'pass' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


def _verify_symfun() -> bool:
    """The acceptance sweep: g <= 3 factors, colors <= 4, p <= 3."""
    for g in range(1, 4):
        for colors in iter_product(range(1, 5), repeat=g):
            for p in range(1, 4):
                report = symfun.verify_coefficients(colors, p)
                if not report.passed:
                    print(report, file=sys.stderr)
                    return False
    return True


_TREFOIL = "cable(3,2;1;unknot)"
_BRACKET_CASES = (
    *(f"cable({r},{s};1;unknot)" for r, s in ((2, 3), (-2, 3), (2, 5), (3, 4), (2, 2), (2, 4))),
    *(f"cable({r},2;1;{_TREFOIL})" for r in (1, 3, 5, 7, 13, -1)),
    *(f"cable({r},3;1;{_TREFOIL})" for r in (2, -2, 1)))


def _verify_bracket() -> bool:
    for text in _BRACKET_CASES:
        e = linkexpr.parse(text)
        engine = jones.normalized_jones(e, (2,) * linkexpr.component_count(e), 1)
        word, strands, _ = bracket.cable_word(e)
        match = bracket.equal_up_to_monomial(
            engine, bracket.jones_from_bracket(word, strands))
        if match is None or match.mirrored:
            print(f"bracket mismatch at {text}", file=sys.stderr)
            return False
        print(f"{text}: sign {match.sign:+d}, shift {match.shift}")
    return True


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cablejones",
        description="Colored Jones polynomials of cabled links, exactly.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trinomial", help="print a coefficient table")
    p.add_argument("--colors", required=True, help="comma list, e.g. 3,3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_trinomial)

    p = sub.add_parser("jones", help="invariant of an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--colors", required=True, help="one per component")
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--split-mult", type=_int, help="with --normalized; default 1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_jones)

    p = sub.add_parser("eval", help="normalized value at exp(i*pi/2N)")
    p.add_argument("--expr", required=True)
    p.add_argument("--color-all", type=_int, required=True, metavar="N")
    p.add_argument("--split-mult", type=_int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("growth", help="per-N growth/decay table")
    p.add_argument("--expr", required=True)
    p.add_argument("--n", required=True, help="sweep a:b:x2 or comma list")
    p.add_argument("--split-mult", type=_int, default=1)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.add_argument("--threads", type=_int, default=1)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", choices=("symfun", "bracket", "all"), default="all")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # As the note on SIGPIPE in Python's signal docs: what is still
        # buffered goes to devnull, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ComputationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's allocation failures subclass it
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # every linkexpr input error subclasses it
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
