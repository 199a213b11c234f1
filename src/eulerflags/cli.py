"""Command-line front end.

Subcommands: eval (cochain/coboundary values on a points or flags file),
witness (the obstruction tuple and the coboundary-killing matrices), verify
(seeded property suites), euler (flat-bundle pipeline), itu (Monte Carlo),
realize (points realizing a flag tuple).  Exact values travel as rational
strings; everything else is JSON on stdout.

Exit codes: 0 success, 1 bad input (parse, arity, validation) or a stdout
closed before the output was written, 2 property violation — an invariant
check failed or a verify suite found a counterexample.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .cocycles import (coboundary, coc, coco, coboundary_kill_witness,
                       obstruction_witness, pcoc, smi, sul)
from .flags import realize_points
from .linalg import InputError, PropertyViolation
from .montecarlo import itu_estimate
from .serialize import (dump_points, fmt_matrix, fmt_rational, load_bundle,
                        load_flags, load_gs, load_json, load_points)
from .simplicial import euler_number
from .verify import SUITES, run_suites

_POINT_KINDS = {"pcoc": pcoc, "sul": sul, "smi": smi}
_FLAG_KINDS = {"coco": coco, "coc": coc}


class _Parser(argparse.ArgumentParser):
    def error(self, message):                    # bad flags are input errors
        raise InputError(message)


def _emit(doc):
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_eval(args):
    kind = args.kind
    base = kind[1:] if kind.startswith("d") else kind
    if args.mode is not None and base != "coc":
        raise InputError(f"--mode applies only to coc and dcoc, not {kind}")
    doc = load_json(args.input)
    if base in _POINT_KINDS:
        f = _POINT_KINDS[base]
        _, xs = load_points(doc)
    else:  # argparse's choices leave only the flag kinds
        f = _FLAG_KINDS[base]
        _, xs = load_flags(doc)
    if base == "coc":
        f = lambda t: coc(t, mode=args.mode or "factorized")
    value = coboundary(f, xs) if kind.startswith("d") else f(xs)
    print(fmt_rational(value))
    return 0


def _cmd_witness(args):
    if args.kind == "obstruction":
        pts, value = obstruction_witness(args.n)
        if (value == 0) != (args.n == 2):
            raise PropertyViolation("obstruction dichotomy violated")
        _emit({"kind": "obstruction", "n": args.n,
               "points": [[fmt_rational(x) for x in p] for p in pts],
               "value": fmt_rational(value)})
    else:
        flags, mats = coboundary_kill_witness(args.n)
        _emit({"kind": "coboundary-kill", "n": args.n,
               "flags": [fmt_matrix(F.basis) for F in flags],
               "matrices": [fmt_matrix(g) for g in mats],
               "determinants": ["-1"] * len(mats),
               "fixings_verified": True})
    return 0


def _cmd_verify(args):
    reports = run_suites(args.suite, args.seed, args.trials)
    _emit(reports[0] if args.suite != "all" else reports)
    return 0 if all(not r["failures"] for r in reports) else 2


def _cmd_euler(args):
    bundle = load_bundle(load_json(args.input))
    raw, integer, per = euler_number(bundle, args.mode)
    _emit({"euler_number": integer, "raw": fmt_rational(raw),
           "per_simplex": [fmt_rational(v) for v in per]})
    return 0


def _cmd_itu(args):
    _, gs = load_gs(load_json(args.gs))
    est = itu_estimate(gs, samples=args.samples, seed=args.seed,
                       mode=args.mode)
    _emit(dataclasses.asdict(est))
    return 0


def _cmd_realize(args):
    n, flags = load_flags(load_json(args.input))
    xs = realize_points(flags)
    _emit(dump_points(n, xs))
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="eulerflags", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eval", help="evaluate a cochain or its coboundary")
    q.add_argument("kind", choices=sorted(_POINT_KINDS) + sorted(_FLAG_KINDS)
                   + ["dpcoc", "dsul", "dcoco", "dcoc"])
    q.add_argument("input", help="points/flags JSON file, or - for stdin")
    q.add_argument("--mode", choices=["factorized", "naive"],
                   help="coc and dcoc evaluation mode (default factorized)")
    q.set_defaults(func=_cmd_eval)

    q = sub.add_parser("witness", help="explicit witness constructions")
    q.add_argument("kind", choices=["obstruction", "coboundary-kill"])
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=_cmd_witness)

    q = sub.add_parser("verify", help="seeded property suites")
    q.add_argument("--suite", default="all",
                   choices=["all"] + sorted(SUITES))
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--trials", type=int, default=100)
    q.set_defaults(func=_cmd_verify)

    q = sub.add_parser("euler", help="flat-bundle Euler number")
    q.add_argument("input", help="bundle JSON file, or - for stdin")
    q.add_argument("--mode", choices=["smillie", "sullivan"],
                   default="smillie")
    q.set_defaults(func=_cmd_euler)

    q = sub.add_parser("itu", help="Monte Carlo ball-integral estimate")
    q.add_argument("--gs", required=True,
                   help="matrix-tuple JSON file, or - for stdin")
    q.add_argument("--samples", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--mode", choices=["ball", "projective"], default="ball")
    q.set_defaults(func=_cmd_itu)

    q = sub.add_parser("realize", help="points realizing a flag tuple")
    q.add_argument("input", help="flags JSON file, or - for stdin")
    q.set_defaults(func=_cmd_realize)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early (`eulerflags verify ... | head`); point
        # fd 1 at devnull so that the interpreter's final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
