"""Ingestion and checking of externally computed class-group records.

One record per line, UTF-8 JSON: keys p (odd prime), n (layer index),
inv (descending list of p-powers giving the group structure), flags (the
five hypothesis booleans), label (free-form tower identifier).  Unknown
keys are ignored with a warning; structural mistakes are parse errors.

Checking is hypothesis-gated: a record is only held against the
non-cyclicity conclusion when n >= 1 and all five flags are asserted.
Per label, layer exponents are fitted for growth invariants and the
parity of the fitted lambda is reported when p does not split.  A label
names one tower, so records of one label at different primes are an
input error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .iwasawa import fit_invariants
from .padic import p_power_exponents, require_odd_prime

FLAG_NAMES = (
    "p_nonsplit",
    "cm_field",
    "A_k_nontrivial",
    "A_kplus_trivial",
    "no_p_roots_of_unity",
)
#: The keys a record line may hold; any other is ignored with a warning.
KEYS = frozenset(("p", "n", "inv", "flags", "label"))


class RecordParseError(ValueError):
    pass


@dataclass
class ClassGroupRecord:
    """One layer of one tower, checked when built: p is an odd prime, the
    layer index n is non-negative and the invariants are descending
    p-powers, whose exponent sum is kept as ``exponent_sum``."""

    p: int
    n: int
    invariants: tuple[int, ...]
    flags: dict
    label: str
    line_number: int = 0
    warnings: list = field(default_factory=list)
    exponent_sum: int = field(init=False)

    def __post_init__(self):
        require_odd_prime(self.p)
        if self.n < 0:
            raise ValueError("layer index must be non-negative")
        self.exponent_sum = sum(p_power_exponents(self.invariants, self.p))

    def hypotheses_asserted(self) -> bool:
        return all(self.flags.get(name) is True for name in FLAG_NAMES)

    def is_cyclic(self) -> bool:
        # One invariant factor, or none at all (the trivial group is cyclic).
        return len(self.invariants) <= 1


def parse_record(line: str, line_number: int = 0) -> ClassGroupRecord:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"line {line_number}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # the one other refusal of json.loads: too many digits
        raise RecordParseError(
            f"line {line_number}: an integer has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for reading integers; set PYTHONINTMAXSTRDIGITS to raise it"
        ) from exc
    if not isinstance(raw, dict):
        raise RecordParseError(f"line {line_number}: record must be a JSON object")
    unknown = raw.keys() - KEYS
    warnings = [f"line {line_number}: unknown key {key!r} ignored" for key in sorted(unknown)] if unknown else []
    try:
        p, n, inv = raw["p"], raw["n"], raw["inv"]
    except KeyError as exc:  # read in the order p, n, inv, so the first missing one is named
        raise RecordParseError(f"line {line_number}: missing key {exc.args[0]!r}") from None
    if not isinstance(inv, list):
        raise RecordParseError(f"line {line_number}: key 'inv' must be a JSON array, got {json.dumps(inv)}")
    if {type(p), type(n), *map(type, inv)} != {int}:  # JSON integers only: no float, string or bool
        key, value = next((key, value) for key, value in [("p", p), ("n", n)] + [("inv", q) for q in inv]
                          if type(value) is not int)
        raise RecordParseError(f"line {line_number}: key {key!r} must hold JSON integers, got {json.dumps(value)}")
    # the record checks p, n and inv when built; the flags and their
    # warnings are read into it afterwards
    flags = {}
    try:
        rec = ClassGroupRecord(p, n, tuple(inv), flags, str(raw.get("label", "unlabeled")), line_number, warnings)
    except ValueError as exc:
        raise RecordParseError(f"line {line_number}: {exc}") from exc
    flags_raw = raw.get("flags", {})
    if not isinstance(flags_raw, dict):
        raise RecordParseError(f"line {line_number}: flags must be an object")
    for key, value in flags_raw.items():
        if key not in FLAG_NAMES:
            warnings.append(f"line {line_number}: unknown flag {key!r} ignored")
            continue
        if not isinstance(value, bool):
            raise RecordParseError(f"line {line_number}: flag {key!r} must be a boolean")
        flags[key] = value
    return rec


def parse_records_file(path) -> list[ClassGroupRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if line.strip():
                records.append(parse_record(line, i))
    return records


def _record_check(rec: ClassGroupRecord) -> dict:
    """The non-cyclicity verdict on one record."""
    if rec.n == 0:
        verdict, reason = "ok", "layer 0 carries no non-cyclicity claim"
    elif not rec.hypotheses_asserted():
        verdict, reason = "skipped", "hypotheses not asserted"
    elif rec.is_cyclic():
        verdict = "contradiction"
        reason = f"cyclic structure {list(rec.invariants)} at layer {rec.n} with all hypotheses asserted"
    else:
        verdict, reason = "ok", "not cyclic, as predicted"
    return {"kind": "record", "label": rec.label, "p": rec.p, "n": rec.n, "inv": list(rec.invariants),
            "verdict": verdict, "reason": reason}


def _growth_check(label: str, group: list[ClassGroupRecord]) -> dict:
    """The growth fit and lambda-parity verdict on the records of one label,
    all at one prime."""
    base = {"kind": "growth", "label": label}
    layers = {}
    for rec in group:
        e = rec.exponent_sum
        if layers.setdefault(rec.n, e) != e:
            return base | {"verdict": "contradiction", "reason": "conflicting sizes for one layer"}
    max_n = max(layers)
    if len(layers) != max_n + 1 or max_n < 3:  # distinct integers >= 0: exactly 0..max_n
        return base | {"verdict": "skipped", "reason": "need layers 0..n with n >= 3 to fit growth"}
    try:
        fit = fit_invariants([layers[n] for n in range(max_n + 1)], group[0].p)
    except ValueError as exc:
        return base | {"verdict": "skipped", "reason": f"growth fit failed: {exc}"}
    info = base | {"lambda": fit.lam, "mu": fit.mu, "nu": fit.nu, "stable_from": fit.stable_from}
    if not all(rec.flags.get("p_nonsplit") is True for rec in group):
        return info | {"verdict": "ok", "reason": "growth fitted; parity not applicable"}
    if fit.lam % 2:
        return info | {
            "verdict": "contradiction",
            "reason": f"fitted lambda = {fit.lam} is odd although p is non-split (lambda must be even)",
        }
    return info | {"verdict": "ok", "reason": f"lambda = {fit.lam} is even, parity holds"}


def check_records(records) -> tuple[list[dict], bool]:
    """Per-record and per-label verdicts; second value is True when any
    verdict is a contradiction."""
    by_label: dict[str, list[ClassGroupRecord]] = {}
    for rec in records:
        group = by_label.setdefault(rec.label, [])
        if group and group[0].p != rec.p:
            raise RecordParseError(
                f"label {rec.label!r} mixes p = {group[0].p} (line {group[0].line_number}) "
                f"and p = {rec.p} (line {rec.line_number}); one tower has one prime"
            )
        group.append(rec)
    checks = [_record_check(rec) for rec in sorted(records, key=lambda r: (r.label, r.n, r.line_number))]
    checks += [_growth_check(label, by_label[label]) for label in sorted(by_label)]
    return checks, any(c["verdict"] == "contradiction" for c in checks)
