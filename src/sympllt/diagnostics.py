"""Experiment driver: per-matrix diagnostics, the three report tables,
size sweeps, and the fixtures the bound-check suite runs over."""

import csv
import math
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .checks import CheckSuiteReport, check_all_bounds
from .dense import _is_int, spectral_norm
from .errors import FactorError, InvalidEntryError, ParseError, SingularError, UsageError
from .matio import _read_lines
from .symplectic import BlockPartition
from .testmat import (PASCAL_MAX_N, RANDOM_MAX_N, diag_family, hyperbolic_spd,
                      hyperbolic_spd_inverse, minij, pascal_symplectic, random_pdp)
from .workers import _fork_cpus, _forked

# Every named family as (generator, param, sweep limit).  The generator takes
# the family arguments theta, n, t and seed by keyword, ignores those it does
# not use and returns a BlockPartition; a diagnostics row reports the argument
# named param (None: 0); a size sweep takes n up to the limit (None: no sweep).
FAMILIES = {
    "minij": (lambda **_: BlockPartition.from_matrix(minij()), None, None),
    "hyperbolic": (lambda theta, **_: BlockPartition.from_matrix(
        hyperbolic_spd(theta)), "theta", None),
    "hyperbolic-inverse": (lambda theta, **_: BlockPartition.from_matrix(
        hyperbolic_spd_inverse(theta)), "theta", None),
    "pascal": (lambda n, **_: pascal_symplectic(n), "n", PASCAL_MAX_N),
    "diagt": (lambda t, theta, **_: BlockPartition.from_matrix(
        diag_family(t, theta)[1]), "t", None),
    "random": (lambda n, seed, **_: random_pdp(n, seed), "n", RANDOM_MAX_N),
}
_THETAS = (3.0, 4.0, 6.0, 7.0)  # the thetas of report tables 1 and 2 and of the fixtures


def generate_family(name, **args):
    """(BlockPartition, param) of the named family; see FAMILIES."""
    make, param, _ = FAMILIES[name]
    return make(**args), (args[param] if param else 0.0)


@dataclass(frozen=True)
class DiagnosticsRow:
    family: str
    param: float
    n: int
    kappa2_A: float
    norm2_A: float
    kappa2_A11: float
    norm2_A11: float
    norm2_invA11: float
    dist_sympl: float
    dist_sympl_rel: float
    relerr_w1: float
    relerr_w2: float
    omega_A: float
    omega_L1: float
    omega_L2: float
    error: str = ""

    @property
    def ok(self):
        return not self.error


_FIELDS = fields(DiagnosticsRow)
CSV_COLUMNS = [f.name for f in _FIELDS]
TABLE_QUANTITIES = CSV_COLUMNS[3:-1]  # the fields after family, param, n; before error


# diagnose's fields as (field, getter), each computed on its own: a getter
# that raises leaves its own field NaN, and a cached block that failed raises
# again in every getter that reads it.  A row's error is its first failing
# step's: relerr_w2 comes right after kappa2_A11 because it forms l11, l21,
# the Schur complement and its reverse Cholesky, so it fails first where
# either factor cannot be formed, and every overflow has the same message.
_STEPS = (
    ("omega_A", lambda p: p.omega_norm),
    ("kappa2_A", lambda p: p.kappa),
    ("kappa2_A11", lambda p: p.kappa_a11),
    ("norm2_A11", lambda p: p.norm_a11),
    ("relerr_w2", lambda p: spectral_norm(p.w2.residual()) / p.norm),
    ("norm2_invA11", lambda p: p.norm_inv_a11),
    ("dist_sympl", lambda p: p.dist),
    ("dist_sympl_rel", lambda p: p.dist / p.norm),
    ("relerr_w1", lambda p: spectral_norm(p.w1.residual()) / p.norm),
    ("omega_L1", lambda p: spectral_norm(p.w1.omega())),
    ("omega_L2", lambda p: spectral_norm(p.w2.omega())),
)
_ALL_STEPS = {name for name, _ in _STEPS}
# The cached factor blocks of BlockPartition that a split row forms in this
# process for both rounds' fields, in the order a job forms them.
_BLOCKS = ("l11", "l21", "omega11", "l11_inv_t", "schur", "_w2_l22", "gram")
# From _SPLIT_MIN_N (BENCH_24.json) a row is split as rounds of _forked jobs,
# each job the names of the blocks and steps it computes, the first job here
# and the second in a child forked for its round, so that each block is
# formed once (BENCH_30.json): the blocks here while a child computes the
# factor-free fields, then W2's fields here while a child forked from the
# cached blocks computes the others.  This process holds no inv(a11) or
# drift while it forms omega11, the row's memory peak (a cut that left them
# to it peaked above the whole row).
_SPLIT_MIN_N = 96
_ROUNDS = [[set(_BLOCKS), {"omega_A", "kappa2_A11", "norm2_A11"}],
           [{"kappa2_A", "relerr_w2", "omega_L2"},
            {"norm2_invA11", "dist_sympl", "dist_sympl_rel", "relerr_w1", "omega_L1"}]]


def diagnose(a, family="custom", param=0.0):
    """All reported quantities for one SPD matrix of even order.

    Runs both factorization routes.  A singular input or leading block, a
    factorization failure, or a computed quantity that overflows marks
    NaN each field that needs it, and the row's error is the message of
    its first failing field in _STEPS order.
    A NaN or infinite input raises InvalidEntryError, before any fork.

    From n = _SPLIT_MIN_N, if _fork_cpus() > 1, forked children compute
    part of the row bit for bit in two rounds (_ROUNDS, _forked).  A first
    child computes ||omega(A)||, ||A11|| and kappa(A11) while this process
    forms the factor blocks; then a second, forked from them, computes W1's
    fields, ||inv(A11)|| and the distance to symplecticity while this
    process computes kappa(A) and W2's fields.  ``taskset -c 0`` keeps the
    row here.  ``ru_maxrss`` and a profiler see only this process's share.
    """
    # an overflow ends up in the row's error, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        p = a if isinstance(a, BlockPartition) else BlockPartition.from_matrix(a)
        # p.norm tests the input finite, and every share divides by it
        values = dict.fromkeys(TABLE_QUANTITIES, math.nan) | {
            "family": family,
            "param": float(param),
            "n": p.n,
            "norm2_A": p.norm,
        }
        # asked here, not left to _forked, for memory: in one process a row in
        # _ROUNDS' job order peaks at 5.88 order-2n matrices, in _STEPS' at 4.76
        split = p.n >= _SPLIT_MIN_N and _fork_cpus() > 1
        rounds = _ROUNDS if split else [[_ALL_STEPS]]
        shares = [share for jobs in rounds
                  for share in _forked([partial(_run_steps, p, names) for names in jobs])]
        for done, _ in shares:
            values |= done
        _, error = min((f for _, failed in shares for f in failed), default=(0, ""))
        return DiagnosticsRow(error=error, **values)


def _run_steps(p, names):
    # the named blocks of _BLOCKS, then the named steps of _STEPS: {field:
    # value} of each step that computed, and [(index, message)] of each that
    # raised.  A block that raises is left uncached, so that each step that
    # reads it raises its own error, as in one process
    for name in filter(names.__contains__, _BLOCKS):
        with suppress(FactorError, SingularError, InvalidEntryError):
            getattr(p, name)
    done, failed = {}, []
    for i, (name, get) in enumerate(_STEPS):
        if name in names:
            try:
                done[name] = get(p)
            except (FactorError, SingularError) as exc:
                failed.append((i, str(exc)))
            except InvalidEntryError:
                # p.norm tested the input finite, so this NaN or infinity was computed
                failed.append((i, "a computed quantity overflowed to a non-finite value"))
    return done, failed


# each report table's rows, one column each in format_table, as (family, args)
TABLES = {
    1: [("hyperbolic", {"theta": t}) for t in _THETAS],
    2: [("hyperbolic-inverse", {"theta": t}) for t in _THETAS],
    3: [("pascal", {"n": n}) for n in (6, 8, 10, 12)],
}


def _family_row(family, **args):
    matrix, param = generate_family(family, **args)
    return diagnose(matrix, family, param)


def run_table(table_id):
    """Rows of report table 1 (S^T S), 2 (its inverse) or 3 (Pascal family)."""
    if not _is_int(table_id) or table_id not in TABLES:
        raise UsageError(f"run_table: table id must be 1, 2 or 3, got {table_id!r}")
    return [_family_row(family, **args) for family, args in TABLES[table_id]]


def run_sweep(family, n_from, n_to, seed=0):
    """One diagnostics row per half-dimension n in [n_from, n_to].

    The random family derives the per-size seed as seed + n, so a sweep is
    reproducible from its single seed.  Factorization failures mark their
    row and the sweep continues.

    The rows are computed by _forked, each whole and bit for bit in one
    process (none split as diagnose splits one); the lowest n's error raises.
    """
    max_n = FAMILIES[family][2] if family in FAMILIES else None
    if max_n is None:
        raise UsageError(f"run_sweep: unsupported family {family!r}")
    if not all(map(_is_int, (n_from, n_to, seed))):
        raise UsageError(f"run_sweep: n_from, n_to and seed must be integers,"
                         f" got {n_from!r}, {n_to!r}, {seed!r}")
    if not 1 <= n_from <= n_to <= max_n:
        raise UsageError(f"run_sweep: bad range {n_from}..{n_to}"
                         f" ({family} takes n in 1..{max_n})")
    return _forked([partial(_family_row, family, n=n, seed=seed + n)
                    for n in range(n_from, n_to + 1)])


def _record(row):
    # a row's CSV fields: floats as Python's shortest round-tripping repr,
    # the other fields as str
    return [repr(float(getattr(row, f.name))) if f.type is float
            else str(getattr(row, f.name)) for f in _FIELDS]


def write_csv(path, rows):
    """One header line, then one record per row (see _record)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_record(row) for row in rows)


def read_csv(path):
    """The rows of a ``write_csv`` file, bitwise.  A non-ASCII byte, a wrong or
    missing header, a record csv.reader rejects or of the wrong length, or a
    field its type cannot parse or that is not written as ``write_csv`` writes
    its value raises UsageError naming the line; a non-ASCII byte anywhere wins."""
    try:
        return _read_lines(path, _csv_rows, lambda line: [line])
    except ParseError as exc:
        raise UsageError(str(exc)) from None


def _csv_rows(lines):
    rows = []
    reader = csv.reader(lines)
    try:
        header = next(reader, [])
        if header != CSV_COLUMNS:
            raise ParseError(1, f"unexpected CSV header {header!r}")
        for record in reader:
            if len(record) != len(CSV_COLUMNS):
                raise ParseError(reader.line_num,
                                 f"expected {len(CSV_COLUMNS)} fields, got {len(record)}")
            try:
                row = DiagnosticsRow(*(f.type(v) for f, v in zip(_FIELDS, record)))
            except ValueError as exc:
                raise ParseError(reader.line_num, str(exc)) from None
            for name, got, want in zip(CSV_COLUMNS, record, _record(row)):
                if got != want:
                    raise ParseError(reader.line_num,
                                     f"{name} field {got!r} is not written as {want!r}")
            rows.append(row)
    except csv.Error as exc:  # a field over csv.field_size_limit(); a NUL before Python 3.11
        raise ParseError(reader.line_num, str(exc)) from None
    return rows


def format_table(rows, title=""):
    """Human-readable layout: quantities as rows, one column per matrix,
    values in 5-significant-digit scientific notation."""
    out = []
    if title:
        out.append(title)
    header = ["quantity"] + [f"{r.family}({r.param:g})" for r in rows]
    widths = [max(14, len(h)) for h in header]
    out.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for name in TABLE_QUANTITIES:
        cells = [name] + [f"{getattr(r, name):.4e}" for r in rows]
        out.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# aggregated check suite

# the check suite's fixtures as (family, args, label), in seed order: a
# fixture's index in this list seeds its perturbations (see run_checks)
FIXTURES = [("minij", {}, ""), *[(family, {"theta": t}, f"{t:g}") for t in _THETAS
                                 for family in ("hyperbolic", "hyperbolic-inverse")],
            *[("pascal", {"n": n}, f"{n}") for n in (2, 6, 8, 10, 12)],
            ("diagt", {"t": 1e6, "theta": 1e-10}, "1e6"),
            *[("random", {"n": n, "seed": s}, f"n{n}-s{s}")
              for n in (5, 10, 20) for s in (1, 2, 3)]]


def standard_fixtures(scope="all"):
    """(index, name, partition) of each entry of FIXTURES in the family
    ``scope`` ('all': every entry), in order, building only those; a name
    is '<family>' or '<family>/<label>'.  As the index seeds perturbations,
    a scoped run repeats the full run's lines for its fixtures bitwise."""
    return [(i, f"{family}/{label}" if label else family, generate_family(family, **args)[0])
            for i, (family, args, label) in enumerate(FIXTURES) if scope in ("all", family)]


def run_checks(scope="all", inject_w2_fault=False):
    """check_all_bounds on each fixture of the set, seeded by the fixture's
    index, with every result tagged by the fixture's name.

    ``scope`` selects one family ('hyperbolic', 'pascal', ...); 'identity' runs
    against the identity matrix alone.  The fault injection flag corrupts
    the computed lower-right w2 block by checks.W2_FAULT to prove the
    backward check can fail.
    """
    fixtures = ([(0, "identity", BlockPartition.from_matrix(np.eye(4)))] if scope == "identity"
                else standard_fixtures(scope))
    if not fixtures:
        scopes = ", ".join(["all", "identity", *dict.fromkeys(f for f, _, _ in FIXTURES)])
        raise UsageError(f"run_checks: no fixtures match scope {scope!r} (scopes: {scopes})")

    return CheckSuiteReport(tuple(replace(r, context=name) for i, name, p in fixtures
                                  for r in check_all_bounds(p, 7700 + 13 * i, inject_w2_fault)))
