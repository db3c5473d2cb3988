"""Command-line front door.

Subcommands:
  verify-lemma1    closed-form inverting-automorphism search over a (p, u) grid
  lemma2-campaign  randomized intertwiner necessity trials plus orbit controls
  growth           layer-size table and invariant fit for an elementary module
  audit-parity     validate a model file and audit the rank-vs-T-multiplicity parity
  check-records    hypothesis-gated checks on external class-group records

Exit codes are uniform: 0 success, 1 mathematical contradiction or
violation found, 2 input/usage error.  All commands are deterministic
given their flags and --seed; --no-timestamps suppresses the only
non-reproducible output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from random import Random

from . import __version__
from .errors import (
    ModelInvariantError,
    PrecisionError,
    SearchSpaceError,
    UndeterminedError,
)
from .iwasawa import (
    ElementaryLambdaModule,
    GammaModel,
    fit_invariants,
    invariants_of,
    layer_exponents,
    parity_audit,
    stable_level,
)
from .linalg import (
    PadicMatrix,
    intertwiner_solve,
    orbit_block_construct,
    random_unipotent_matrix,
    rank_divisibility_check,
    zeta_order,
)
from .metacyclic import MetacyclicGroup
from .padic import require_odd_prime, teichmuller
from .records import check_records, parse_records_file

#: Grid points with |G|^2 at most this many candidate pairs also get an
#: automorphism count in the report.
ENUMERATION_BUDGET = 200_000


@dataclass
class Report:
    command: str
    seed: int
    precision: int
    checks: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    wall_clock: float | None = None

    def add(self, **check):
        self.checks.append(check)


#: One encoder for every machine line: ``json.dumps`` builds a new one per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _emit(report: Report, fmt: str, no_timestamps: bool, stream) -> None:
    """Write the report: one JSON object per line in machine format.

    Lines go out one by one; a report joined into one string first would
    hold a second copy of the whole output in memory.
    """
    if fmt == "machine":
        header = {
            "record": "header",
            "command": report.command,
            "seed": report.seed,
            "precision": report.precision,
            "version": __version__,
        }
        stream.write(_encode(header) + "\n")
        for check in report.checks:
            stream.write(_encode({"record": "check"} | check) + "\n")
        summary = {"record": "summary"} | report.counters
        if not no_timestamps and report.wall_clock is not None:
            summary["wall_clock_s"] = round(report.wall_clock, 3)
        stream.write(_encode(summary) + "\n")
        return
    print(f"# anticyclo {report.command} (seed={report.seed}, precision={report.precision})", file=stream)
    for check in report.checks:
        verdict = check.get("verdict", "info")
        rest = {k: v for k, v in check.items() if k != "verdict"}
        detail = ", ".join(f"{k}={v}" for k, v in rest.items())
        print(f"[{verdict}] {detail}", file=stream)
    counters = ", ".join(f"{k}={v}" for k, v in sorted(report.counters.items()))
    print(f"summary: {counters}" if counters else "summary: (none)", file=stream)
    if not no_timestamps and report.wall_clock is not None:
        print(f"wall-clock: {report.wall_clock:.3f}s", file=stream)


def _parse_zeta(text: str, p: int, precision: int):
    """Exponent syntax: '1', '-1', or 't<a>' for the Teichmuller lift of a."""
    text = text.strip()
    if text in {"1", "-1"}:
        return int(text)
    m = re.fullmatch(r"t(\d+)", text)
    if m:
        return teichmuller(int(m.group(1)), p, precision)
    raise ValueError(f"cannot parse exponent {text!r}: use 1, -1, or t<a>")


_MU_RE = re.compile(r"p(?:\^(\d+))?")
#: One monomial with its sign: c*T^k or cT^k (c and ^k optional), or a
#: constant c.  Groups: sign, c of a T-term, k, constant.
_TERM = r"([+-]?)(?:(?:(\d+)\*?)?T(?:\^(\d+))?|(\d+))"
_TERM_RE = re.compile(_TERM)
#: A whole polynomial factor: a first term whose sign is optional, then
#: terms that each start with one sign.
_POLY_RE = re.compile(rf"{_TERM}(?:(?=[+-]){_TERM})*")


def parse_module_spec(spec: str, p: int) -> ElementaryLambdaModule:
    """Grammar: comma-separated factors; 'p^k' is a mu-part, anything else
    is a polynomial in T with integer coefficients, e.g. 'T^2+3T+9'."""
    mu_parts = []
    poly_parts = []
    for factor in spec.split(","):
        factor = factor.replace(" ", "")
        if not factor:
            raise ValueError("empty factor in module spec")
        m = _MU_RE.fullmatch(factor)
        if m:
            mu_parts.append(int(m.group(1) or 1))
            continue
        if not _POLY_RE.fullmatch(factor):
            raise ValueError(f"cannot parse factor {factor!r}: write terms c*T^k, cT^k, T^k or c, "
                             "each after the first led by one sign")
        coeffs: dict[int, int] = {}
        for sign, coeff, degree, constant in _TERM_RE.findall(factor):
            k = 0 if constant else int(degree or 1)
            coeffs[k] = coeffs.get(k, 0) + int(sign + (constant or coeff or "1"))
        top = max(coeffs)
        poly_parts.append(tuple(coeffs.get(i, 0) for i in range(top + 1)))
    return ElementaryLambdaModule(p, tuple(mu_parts), tuple(poly_parts))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_verify_lemma1(args, report: Report) -> int:
    primes = list(dict.fromkeys(args.p))  # each prime once, in the order given
    for p in primes:
        require_odd_prime(p)
    if args.u_max < 1:
        raise ValueError(f"--u-max {args.u_max} is below the minimum 1: pass --u-max 1 or more")
    for p, u in product(primes, range(1, args.u_max + 1)):
        group = MetacyclicGroup(p, u)
        try:
            witness = group.find_inverting_automorphism()
        except SearchSpaceError:
            report.add(p=p, u=u, verdict="skipped", reason="search space too large for the guard")
            continue
        if witness is not None:
            report.add(p=p, u=u, verdict="violation", witness=str(witness), reason="inverting automorphism found")
            continue
        count = len(group.enumerate_automorphisms()) if group.order**2 <= ENUMERATION_BUDGET else "not enumerated"
        report.add(p=p, u=u, verdict="ok", automorphisms=count, inverting=0,
                   reason="no automorphism maps tau into A1·tau^-1")
    verdicts = Counter(check["verdict"] for check in report.checks)
    report.counters = {
        "grid_points": len(report.checks),
        "searched": len(report.checks) - verdicts["skipped"],
        "inverting_found": verdicts["violation"],
    }
    return 1 if verdicts["violation"] else 0


def cmd_lemma2_campaign(args, report: Report) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials {args.trials} is below the minimum 1: pass --trials 1 or more")
    for r in args.r:
        if not 1 <= r <= 6:
            raise ValueError(f"--r {r} is outside the campaign bound 1 <= r <= 6")
    p = args.p
    precision = args.precision
    zeta = _parse_zeta(args.zeta, p, precision)
    d = zeta_order(zeta, p)
    totals = Counter()  # intertwiner statuses, plus "violation"
    counter = 0
    for r in args.r:
        tally = Counter()
        for _ in range(args.trials):
            rng = Random(args.seed * 1_000_003 + counter)
            counter += 1
            M = random_unipotent_matrix(p, precision, r, rng)
            result = intertwiner_solve(M, zeta, seed=args.seed * 1_000_003 + counter)
            tally[result.status] += 1
            if result.status == "witness" and rank_divisibility_check(M, zeta, result) == "violation":
                tally["violation"] += 1
                report.add(
                    verdict="violation",
                    r=r,
                    matrix=list(map(list, M.rows)),
                    reason=f"invertible intertwiner with r = {r} not divisible by d = {d}",
                )
        totals += tally
        report.add(
            verdict="violation" if tally["violation"] else "ok",
            r=r,
            trials=args.trials,
            witnesses=tally["witness"],
            undetermined=tally["undetermined"],
            reason="necessity trials complete",
        )
        # positive control whenever the dimension can hold full orbits
        if r % d == 0 and r >= d:
            s = r // d
            control_precision = max(precision, r + 2)
            zc = _parse_zeta(args.zeta, p, control_precision)
            # the construct raises unless M^zeta·D == D·M holds exactly
            M, _ = orbit_block_construct(p, control_precision, s, zc)
            refound = intertwiner_solve(M, zc, seed=args.seed)
            verdict = rank_divisibility_check(M, zc, refound)
            ok = refound.status == "witness" and verdict == "consistent"
            if not ok:
                totals["violation"] += 1
            report.add(
                verdict="ok" if ok else "violation",
                r=r,
                control=f"d={d},s={s}",
                precision=control_precision,
                intertwines_exactly=True,
                resolved=refound.status,
                rank_check=verdict,
                reason="constructed orbit control",
            )
    report.counters = {
        "trials": args.trials * len(args.r),
        "witnesses": totals["witness"],
        "undetermined": totals["undetermined"],
        "violations": totals["violation"],
    }
    return 1 if totals["violation"] or totals["undetermined"] else 0


def cmd_growth(args, report: Report) -> int:
    if args.n_max < 3:
        raise ValueError(
            f"--n-max {args.n_max} is below the minimum 3: the invariant fit needs "
            "layers 0..3 at least; pass --n-max 3 or more"
        )
    module = parse_module_spec(args.module, args.p)
    lam, mu = invariants_of(module)
    digits = sys.get_int_max_str_digits()
    n_top = args.n_max
    if mu and digits:
        # e_n >= mu·p^n passes 10^digits within two layers of this estimate
        n_top = min(n_top, max(0, int((digits - math.log10(mu)) / math.log10(args.p))) + 2)
    exponents = layer_exponents(module, n_top)
    # every exponent is printed, and they never decrease: the printable ones are a prefix
    n_fit = bisect_left(exponents, 10**digits) - 1 if digits else n_top
    if args.n_max > n_fit:
        raise ValueError(
            f"--n-max {args.n_max} is above {n_fit}, the last layer whose exponent e_n "
            f"prints within the interpreter's {digits}-digit limit; "
            f"pass --n-max {n_fit} or less"
        )
    for n, e in enumerate(exponents):
        report.add(verdict="info", n=n, exponent=e)
    # below layer K + 2 the fit may fail or disagree with the structure
    # without any fault: the tail is not yet of Iwasawa shape
    need = stable_level(module) + 2
    too_short = (f"the layer exponents follow the Iwasawa formula only from layer {need - 2}: "
                 f"pass --n-max {need} or more")
    try:
        fit = fit_invariants(exponents, args.p)
    except ValueError as exc:
        if args.n_max >= need:
            raise
        raise ValueError(f"{exc}; {too_short}") from exc
    match = (fit.lam, fit.mu) == (lam, mu)
    if not match and args.n_max < need:
        raise ValueError(
            f"fitted (lambda, mu) = ({fit.lam}, {fit.mu}) disagrees with the structural "
            f"({lam}, {mu}); {too_short}"
        )
    report.add(
        verdict="ok" if match else "violation",
        fitted_lambda=fit.lam,
        fitted_mu=fit.mu,
        fitted_nu=fit.nu,
        stable_from=fit.stable_from,
        structural_lambda=lam,
        structural_mu=mu,
        reason="fit matches structure" if match else "fit disagrees with structure",
    )
    report.counters = {"layers": args.n_max + 1, "match": int(match)}
    return 0 if match else 1


def _model_int(key, value) -> int:
    if type(value) is not int:  # JSON integers only: no float, string or bool
        raise ModelInvariantError(f"model file key {key!r} must hold JSON integers, got {json.dumps(value)}")
    return value


def _model_matrix(key, rows):
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ModelInvariantError(f"model file key {key!r} must be an array of arrays, got {json.dumps(rows)}")
    for row in rows:
        for x in row:
            _model_int(key, x)
    return rows


def _load_model_file(path) -> GammaModel:
    """Read a model file; every number must be a JSON integer, and any
    other value raises ModelInvariantError naming the key, as does a "d"
    other than the order of zeta."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ModelInvariantError("model file must hold a JSON object")
    for key in ("p", "precision", "d", "zeta", "M"):
        if key not in raw:
            raise ModelInvariantError(f"model file is missing key {key!r}")
    p, precision, d = (_model_int(key, raw[key]) for key in ("p", "precision", "d"))
    zeta = raw["zeta"]
    if isinstance(zeta, dict) and "teichmuller" in zeta:
        zeta = teichmuller(_model_int("teichmuller", zeta["teichmuller"]), p, precision)
    elif type(zeta) is not int or zeta not in (1, -1):
        raise ModelInvariantError(
            f"model file key 'zeta' must be 1, -1 or {{\"teichmuller\": a}}, got {json.dumps(zeta)}"
        )
    t_block = raw.get("t_block")
    M = PadicMatrix(p, precision, _model_matrix("M", raw["M"]))
    D_rows = raw.get("D")
    D = PadicMatrix(p, precision, _model_matrix("D", D_rows)) if D_rows is not None else None
    if zeta_order(zeta, p) != d:
        raise ModelInvariantError(f"model invariant violated: exponent does not have order {d}")
    return GammaModel(M, D, zeta, t_block=_model_int("t_block", t_block) if t_block is not None else None)


def cmd_audit_parity(args, report: Report) -> int:
    model = _load_model_file(args.model)
    report.precision = model.M.precision  # the model's, not the unused --precision
    verdict = parity_audit(model)
    report.add(
        verdict="ok" if verdict == "consistent" else "violation",
        r=model.M.dim,
        d=model.d,
        t_block=model.t_block,
        reason=f"parity audit: {verdict}",
    )
    if verdict != "consistent":
        report.add(
            verdict="violation",
            matrix=list(map(list, model.M.rows)),
            intertwiner=list(map(list, model.D.rows)) if model.D else None,
            reason="full model dump for the violation",
        )
    report.counters = {"violations": 0 if verdict == "consistent" else 1}
    return 0 if verdict == "consistent" else 1


def cmd_check_records(args, report: Report) -> int:
    records = parse_records_file(args.records)
    for rec in records:
        for warning in rec.warnings:
            report.add(verdict="warning", reason=warning)
    checks, contradiction = check_records(records)
    report.checks += checks
    report.counters = {
        "records": len(records),
        "contradictions": sum(1 for c in checks if c["verdict"] == "contradiction"),
        "skipped": sum(1 for c in checks if c["verdict"] == "skipped"),
    }
    return 1 if contradiction else 0


# ----------------------------------------------------------------------
# parser and dispatch
# ----------------------------------------------------------------------

#: Defaults of the global options, applied once after parsing.
GLOBAL_DEFAULTS = {"precision": 4, "seed": 0, "format": "text", "no_timestamps": False}


def build_parser() -> argparse.ArgumentParser:
    # The global options are declared once, on a parent shared by the main
    # parser and every subcommand.  Their default is SUPPRESS, so a flag
    # left unset after the subcommand does not clobber one given before
    # it, and one given on both sides takes the value after.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--precision", type=int, help=f"working precision N (default {GLOBAL_DEFAULTS['precision']})")
    shared.add_argument("--seed", type=int, help=f"seed for randomized campaigns (default {GLOBAL_DEFAULTS['seed']})")
    shared.add_argument("--format", choices=("text", "machine"),
                        help="report format: human text or one JSON object per line")
    shared.add_argument("--no-timestamps", action="store_true", help="suppress wall-clock output")
    parser = argparse.ArgumentParser(prog="anticyclo", description=__doc__.split("\n")[0], parents=[shared])
    sub = parser.add_subparsers(dest="command", required=True)

    v1 = sub.add_parser("verify-lemma1", parents=[shared],
                        help="search every (p, u) grid point for inverting automorphisms")
    v1.add_argument("--p", type=int, nargs="+", default=[3, 5, 7])
    v1.add_argument("--u-max", type=int, default=2)
    v1.set_defaults(func=cmd_verify_lemma1)

    l2 = sub.add_parser("lemma2-campaign", parents=[shared], help="randomized intertwiner necessity trials with orbit controls")
    l2.add_argument("--p", type=int, default=3)
    l2.add_argument("--r", type=int, nargs="+", default=[1, 2, 3])
    l2.add_argument("--zeta", default="-1", help="exponent: 1, -1, or t<a> for a Teichmuller lift")
    l2.add_argument("--trials", type=int, default=200)
    l2.set_defaults(func=cmd_lemma2_campaign)

    gr = sub.add_parser("growth", parents=[shared], help="layer-size table and invariant fit for an elementary module")
    gr.add_argument("--p", type=int, required=True)
    gr.add_argument("--module", required=True, help="comma-separated factors, e.g. 'T-3,p^1'")
    gr.add_argument("--n-max", type=int, default=5)
    gr.set_defaults(func=cmd_growth)

    ap = sub.add_parser("audit-parity", parents=[shared], help="validate a model file and audit its parity")
    ap.add_argument("model", help="path to a JSON model file")
    ap.set_defaults(func=cmd_audit_parity)

    cr = sub.add_parser("check-records", parents=[shared], help="check a line-delimited class-group records file")
    cr.add_argument("records", help="path to a JSONL records file")
    cr.set_defaults(func=cmd_check_records)
    return parser


_PARSER = build_parser()


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line and fill in the global options it leaves unset."""
    args = _PARSER.parse_args(argv)
    for key, value in GLOBAL_DEFAULTS.items():
        vars(args).setdefault(key, value)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = Report(command=args.command, seed=args.seed, precision=args.precision)
    start = time.perf_counter()
    try:
        code = args.func(args, report)
    except (PrecisionError, UndeterminedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_clock = time.perf_counter() - start
    try:
        _emit(report, args.format, args.no_timestamps, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # a closed stdout is an I/O error, not a violation; what is left in
        # the buffer goes to the null device, so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
