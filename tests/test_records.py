import json
import re

import pytest

from anticyclo.records import (
    FLAG_NAMES,
    ClassGroupRecord,
    RecordParseError,
    check_records,
    parse_record,
)

ALL_FLAGS = {name: True for name in FLAG_NAMES}


def _line(**overrides):
    base = {"p": 3, "n": 1, "inv": [9, 3], "flags": ALL_FLAGS, "label": "t"}
    base.update(overrides)
    return json.dumps(base)


def test_parse_roundtrip():
    rec = parse_record(_line(), 1)
    assert (rec.p, rec.n, rec.invariants, rec.label) == (3, 1, (9, 3), "t")
    assert rec.hypotheses_asserted()
    assert not rec.is_cyclic()
    assert rec.exponent_sum == 3


def test_parse_warnings_for_unknown_keys():
    rec = parse_record(_line(extra="ignored"), 4)
    assert any("unknown key 'extra'" in w for w in rec.warnings)
    rec = parse_record(json.dumps({"p": 3, "n": 0, "inv": [], "flags": {"bogus": True}}), 2)
    assert any("unknown flag" in w for w in rec.warnings)


def test_parse_errors():
    with pytest.raises(RecordParseError, match="invalid JSON"):
        parse_record("{not json", 1)
    with pytest.raises(RecordParseError, match="odd prime"):
        parse_record(_line(p=4), 1)
    with pytest.raises(RecordParseError, match="power"):
        parse_record(_line(inv=[10]), 1)
    with pytest.raises(RecordParseError, match="descending"):
        parse_record(_line(inv=[3, 9]), 1)
    with pytest.raises(RecordParseError, match="boolean"):
        parse_record(_line(flags={"p_nonsplit": "yes"}), 1)
    with pytest.raises(RecordParseError, match="non-negative"):
        parse_record(_line(n=-1), 1)
    with pytest.raises(RecordParseError, match="line 1: missing key 'inv'"):
        parse_record(json.dumps({"p": 3, "n": 1}), 1)


@pytest.mark.parametrize(
    "raw, message",
    [
        # a missing key comes first, in the order p, n, inv
        ({"n": 1.5, "inv": "x"}, "missing key 'p'"),
        ({"p": 3.5, "inv": [9]}, "missing key 'n'"),
        ({"p": 3, "n": 1}, "missing key 'inv'"),
        # then inv must be an array, then every number an integer: the first
        # offender in the order p, n, inv entries is named
        ({"p": 3.5, "n": 1, "inv": "x"}, "key 'inv' must be a JSON array, got \"x\""),
        ({"p": "3", "n": 1.5, "inv": [9]}, "key 'p' must hold JSON integers, got \"3\""),
        ({"p": 3, "n": True, "inv": [9.0]}, "key 'n' must hold JSON integers, got true"),
        ({"p": 3, "n": 1, "inv": [9, 3.0, "x"]}, "key 'inv' must hold JSON integers, got 3.0"),
        # then the record's own checks, then the flags
        ({"p": 4, "n": -1, "inv": [9], "flags": 1}, "p must be an odd prime, got 4"),
        ({"p": 3, "n": -1, "inv": [10], "flags": 1}, "layer index must be non-negative"),
        ({"p": 3, "n": 1, "inv": [10], "flags": 1}, "invariant 10 is not a power of 3"),
        ({"p": 3, "n": 1, "inv": [9], "flags": 1}, "flags must be an object"),
        ({"p": 3, "n": 1, "inv": [9], "flags": {"x": 1, "cm_field": 1}}, "flag 'cm_field' must be a boolean"),
    ],
)
def test_parse_errors_keep_their_precedence(raw, message):
    with pytest.raises(RecordParseError, match=f"^line 6: {re.escape(message)}$"):
        parse_record(json.dumps(raw), 6)


def test_unknown_keys_and_flags_warn_in_order():
    line = json.dumps({"zeta": 0, "p": 3, "n": 1, "inv": [9], "alpha": 0,
                       "flags": {"zz": True, "cm_field": True, "aa": False}})
    assert parse_record(line, 2).warnings == [
        "line 2: unknown key 'alpha' ignored",
        "line 2: unknown key 'zeta' ignored",
        "line 2: unknown flag 'zz' ignored",
        "line 2: unknown flag 'aa' ignored",
    ]


def test_zero_invariant_is_rejected_not_looped_on():
    with pytest.raises(RecordParseError, match="line 2: invariant 0 is not a power of 3"):
        parse_record(_line(inv=[0]), 2)


@pytest.mark.parametrize("inv", ["3", "93", 9, {"9": 1}])
def test_inv_must_be_an_array(inv):
    with pytest.raises(RecordParseError, match="line 5: key 'inv' must be a JSON array"):
        parse_record(_line(inv=inv), 5)


@pytest.mark.parametrize(
    "key, value",
    [("p", 3.7), ("p", 3.0), ("p", "3"), ("p", True), ("n", 1.5), ("n", False),
     ("inv", [9.5]), ("inv", [9, 3.0]), ("inv", ["9"]), ("inv", [True])],
)
def test_numbers_must_be_json_integers(key, value):
    with pytest.raises(RecordParseError, match=f"line 4: key '{key}' must hold JSON integers"):
        parse_record(_line(**{key: value}), 4)


def test_cyclic_record_is_a_contradiction():
    checks, contradiction = check_records([parse_record(_line(inv=[27]), 1)])
    assert contradiction
    record_checks = [c for c in checks if c["kind"] == "record"]
    assert record_checks[0]["verdict"] == "contradiction"


def test_trivial_group_counts_as_cyclic():
    checks, contradiction = check_records([parse_record(_line(inv=[]), 1)])
    assert contradiction


def test_layer_zero_carries_no_claim():
    checks, contradiction = check_records([parse_record(_line(n=0, inv=[3]), 1)])
    assert not contradiction
    assert checks[0]["verdict"] == "ok"


def test_hypothesis_gating():
    partial = dict(ALL_FLAGS)
    partial["A_kplus_trivial"] = False
    checks, contradiction = check_records([parse_record(_line(inv=[27], flags=partial), 1)])
    assert not contradiction
    assert checks[0]["verdict"] == "skipped"
    missing = {k: v for k, v in ALL_FLAGS.items() if k != "cm_field"}
    checks, contradiction = check_records([parse_record(_line(inv=[27], flags=missing), 1)])
    assert checks[0]["verdict"] == "skipped"


def _tower(label, exponent_fn, n_max, flags=ALL_FLAGS):
    records = []
    for n in range(n_max + 1):
        e = exponent_fn(n)
        inv = [3] * e if e else []
        # avoid the trivial-cyclic trap at n >= 1 by using >= 2 factors
        records.append(parse_record(json.dumps(
            {"p": 3, "n": n, "inv": inv, "flags": flags, "label": label}), n + 1))
    return records


def test_growth_fit_and_even_parity():
    records = _tower("even", lambda n: 2 * n + 2, 4)
    checks, contradiction = check_records(records)
    growth = [c for c in checks if c["kind"] == "growth"][0]
    assert growth["lambda"] == 2 and growth["verdict"] == "ok"
    assert not contradiction


def test_growth_fit_flags_odd_parity_when_nonsplit():
    records = _tower("odd", lambda n: n + 2, 4)
    checks, contradiction = check_records(records)
    growth = [c for c in checks if c["kind"] == "growth"][0]
    assert growth["lambda"] == 1
    assert growth["verdict"] == "contradiction"
    assert contradiction


def test_growth_parity_not_applied_without_nonsplit():
    flags = dict(ALL_FLAGS)
    flags["p_nonsplit"] = False
    records = _tower("split", lambda n: n + 2, 4, flags=flags)
    checks, contradiction = check_records(records)
    growth = [c for c in checks if c["kind"] == "growth"][0]
    assert growth["verdict"] == "skipped" or growth["verdict"] == "ok"
    assert not contradiction


def test_a_record_with_a_negative_layer_cannot_be_built():
    # a hand-built record is checked like a parsed one, so no negative
    # layer can reach the growth check
    with pytest.raises(ValueError, match="^layer index must be non-negative$"):
        ClassGroupRecord(3, -1, (9, 3), dict(ALL_FLAGS), "t")


def test_a_record_checks_its_prime_when_built():
    # at p = 4 the invariants (4,) are p-powers, but 4 is no odd prime
    with pytest.raises(ValueError, match="odd prime"):
        ClassGroupRecord(4, 1, (4,), dict(ALL_FLAGS), "x")


def test_a_hand_built_record_keeps_its_exponent_sum():
    rec = ClassGroupRecord(5, 2, (125, 5), {}, "t")
    assert rec.exponent_sum == 4
    with pytest.raises(TypeError):
        ClassGroupRecord(5, 2, (125, 5), {}, "t", 0, [], 4)  # not an argument


def test_growth_fit_failure_is_skipped():
    # e = 0, 1, 3, 4 at p = 3: the last second difference, -1, is no
    # multiple of p·(p-1)^2 = 12, so no Iwasawa formula fits
    records = [parse_record(_line(n=n, inv=inv), n + 1) for n, inv in enumerate(([], [3], [9, 3], [9, 9]))]
    growth = check_records(records)[0][-1]
    assert (growth["kind"], growth["verdict"]) == ("growth", "skipped")
    assert growth["reason"].startswith("growth fit failed: not eventually of Iwasawa shape")


def test_conflicting_layer_sizes_detected():
    a = parse_record(_line(n=1, inv=[9, 3]), 1)
    b = parse_record(_line(n=1, inv=[27, 3]), 2)
    checks, contradiction = check_records([a, b])
    assert contradiction
    growth = [c for c in checks if c["kind"] == "growth"][0]
    assert "conflicting" in growth["reason"]


def test_mixed_primes_in_one_label_are_an_input_error():
    records = [parse_record(_line(n=n, label="mix")) for n in range(4)]
    records.append(parse_record(_line(p=5, n=4, inv=[25, 5], label="mix"), line_number=9))
    with pytest.raises(RecordParseError, match=r"'mix' mixes p = 3 .* and p = 5 \(line 9\)"):
        check_records(records)
