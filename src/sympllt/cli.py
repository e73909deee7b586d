"""Command-line interface.

Exit codes: 0 success, 1 bound violated, 2 usage error (including a file
that cannot be read, parsed or written), 3 numerical failure.  All
configuration is flags; no environment variables.
"""

import argparse
import os
import sys

import numpy as np

from . import diagnostics, matio
from .errors import (DimensionError, DomainError, InvalidEntryError, ParseError,
                     SympLLTError, UsageError)
from .symplectic import BlockPartition, algorithm_w1, algorithm_w2

USAGE_EXIT = 2
NUMERICAL_EXIT = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sympllt",
        description="Block LL^T factorization experiments for SPD matrices "
                    "with symplectic structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_arguments(cmd, required):
        cmd.add_argument("--family", required=required, choices=list(diagnostics.FAMILIES))
        cmd.add_argument("--theta", type=float, default=3.0)
        cmd.add_argument("--n", type=int, default=6)
        cmd.add_argument("--t", type=float, default=1e6)
        cmd.add_argument("--seed", type=int, default=1)

    gen = sub.add_parser("gen", help="generate a test matrix and write it to a file")
    add_family_arguments(gen, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(run=_cmd_gen)

    fac = sub.add_parser("factor", help="factor a matrix file, write the block factor")
    fac.add_argument("--alg", required=True, choices=["w1", "w2"])
    fac.add_argument("--in", dest="infile", required=True)
    fac.add_argument("--out", required=True)
    fac.set_defaults(run=_cmd_factor)

    diag = sub.add_parser("diagnose", help="print all diagnostics for one matrix")
    add_family_arguments(diag, required=False)
    diag.add_argument("--in", dest="infile")
    diag.add_argument("--csv")
    diag.set_defaults(run=_cmd_diagnose)

    tab = sub.add_parser("table", help="recompute one of the three report tables")
    tab.add_argument("--id", type=int, required=True, choices=list(diagnostics.TABLES))
    tab.add_argument("--csv")
    tab.set_defaults(run=_cmd_table)

    sweep = sub.add_parser("sweep", help="diagnostics over a range of sizes")
    sweep.add_argument("--family", default="random", choices=[
        name for name, (_, _, max_n) in diagnostics.FAMILIES.items() if max_n is not None])
    sweep.add_argument("--from", dest="n_from", type=int, required=True)
    sweep.add_argument("--to", dest="n_to", type=int, required=True)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--csv", required=True)
    sweep.set_defaults(run=_cmd_sweep)

    chk = sub.add_parser("check", help="run the full bound-check suite")
    chk.add_argument("--scope", default="all")
    chk.add_argument("--inject-w2-fault", action="store_true",
                     help="corrupt the computed w2 factor to prove the "
                          "backward check can fail (self-test)")
    chk.set_defaults(run=_cmd_check)
    return parser


def _require_writable(path):
    """Raise OSError now if an --out or --csv ``path`` cannot be written.

    ``main`` checks each one given before any command runs, so a run that
    cannot save its result fails at once.  Opens the file a symlink points
    to for appending, which leaves an existing file as it is, and removes
    that file again if this made it.
    """
    real = os.path.realpath(path)
    existed = os.path.exists(real)
    with open(real, "a", encoding="ascii"):
        pass
    if not existed:
        os.remove(real)


def _cmd_gen(args):
    p, _ = diagnostics.generate_family(args.family, **vars(args))
    matio.write_matrix(args.out, p.assemble())
    return 0


def _cmd_factor(args):
    p = BlockPartition.from_matrix(matio.read_matrix(args.infile))
    f = algorithm_w1(p) if args.alg == "w1" else algorithm_w2(p)
    matio.write_matrix(args.out, f.assemble())
    return 0


def _finish(rows, csv, text):
    """Write ``rows`` to ``csv`` if given, print ``text``; 3 if a row failed, else 0."""
    if csv:
        diagnostics.write_csv(csv, rows)
    print(text)
    return 0 if all(r.ok for r in rows) else NUMERICAL_EXIT


def _cmd_diagnose(args):
    if bool(args.infile) == bool(args.family):
        raise UsageError("diagnose takes exactly one of --family and --in")
    if args.infile:
        p = BlockPartition.from_matrix(matio.read_matrix(args.infile))
        family, param = "file", 0.0
    else:
        p, param = diagnostics.generate_family(args.family, **vars(args))
        family = args.family
    row = diagnostics.diagnose(p, family, param)
    code = _finish([row], args.csv, diagnostics.format_table([row]))
    if not row.ok:
        print(f"numerical failure: {row.error}", file=sys.stderr)
    return code


def _cmd_table(args):
    rows = diagnostics.run_table(args.id)
    return _finish(rows, args.csv, diagnostics.format_table(rows, title=f"table {args.id}"))


def _cmd_sweep(args):
    rows = diagnostics.run_sweep(args.family, args.n_from, args.n_to, args.seed)
    bad = sum(not r.ok for r in rows)
    return _finish(rows, args.csv, f"wrote {len(rows)} rows to {args.csv}"
                   + (f" ({bad} failed rows marked NaN)" if bad else ""))


def _cmd_check(args):
    report = diagnostics.run_checks(scope=args.scope,
                                    inject_w2_fault=args.inject_w2_fault)
    print(report.describe())
    return report.exit_code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for path in (vars(args).get("out"), vars(args).get("csv")):
            if path is not None:
                _require_writable(path)
        # an overflow is reported by the exit code and the error line, so
        # numpy need not warn of it (reading an --in file, for instance)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(args)
    except (UsageError, ParseError, DimensionError, InvalidEntryError, DomainError,
            OSError) as exc:
        # OSError: an --in file that cannot be read or an --out/--csv path
        # that cannot be written (missing, a directory, no permission)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SympLLTError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
