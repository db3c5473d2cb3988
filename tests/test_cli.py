import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from anticyclo import cli
from anticyclo.cli import main, parse_module_spec
from anticyclo.iwasawa import MAX_POLY_DEGREE
from anticyclo.padic import MILLER_RABIN_BOUND

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
ALL_FLAGS = {
    name: True
    for name in ("p_nonsplit", "cm_field", "A_k_nontrivial", "A_kplus_trivial", "no_p_roots_of_unity")
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_module_spec_parser():
    module = parse_module_spec("T^2+3T+9,p^2,T-3", 3)
    assert module.mu_parts == (2,)
    assert module.poly_parts == ((9, 3, 1), (-3, 1))
    assert parse_module_spec("p", 3).mu_parts == (1,)
    with pytest.raises(ValueError):
        parse_module_spec("T^2+junk", 3)
    with pytest.raises(ValueError, match="empty factor in module spec"):
        parse_module_spec("", 3)


@pytest.mark.parametrize("spec", ["T^2++3", "T^2+-3", "++T-3", "T^2+3T+9+"])
def test_malformed_module_spec_exits_2(spec, capsys):
    # each term after the first is led by exactly one sign, and none dangles
    code, out = run(["growth", "--p", "3", "--module", spec])
    assert code == 2 and out == ""
    assert f"cannot parse factor {spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, mu_parts, poly_parts",
    [
        ("T-3", (), ((-3, 1),)),
        ("+T-3", (), ((-3, 1),)),
        ("3*T+T^2+6", (), ((6, 3, 1),)),
        ("T^2 + 3T+ 3", (), ((3, 3, 1),)),
        ("T^2+0T+3", (), ((3, 0, 1),)),
        ("p", (1,), ()),
        ("p^2", (2,), ()),
        ("T-3,p^1", (1,), ((-3, 1),)),
    ],
)
def test_well_formed_module_specs_parse(spec, mu_parts, poly_parts):
    module = parse_module_spec(spec, 3)
    assert (module.mu_parts, module.poly_parts) == (mu_parts, poly_parts)


def test_growth_command_examples():
    code, out = run(["--no-timestamps", "growth", "--p", "3", "--module", "T-3", "--n-max", "5"])
    assert code == 0
    assert "fitted_lambda=1" in out and "fitted_nu=1" in out
    code, out = run(["--no-timestamps", "growth", "--p", "3", "--module", "p^1", "--n-max", "3"])
    assert code == 0
    assert "fitted_mu=1" in out
    code, _ = run(["growth", "--p", "3", "--module", "T", "--n-max", "4"])
    assert code == 2


@pytest.mark.parametrize("n_max", ["2", "0", "-1"])
def test_growth_rejects_too_few_layers(n_max, capsys):
    code, out = run(["growth", "--p", "3", "--module", "T-3", "--n-max", n_max])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "--n-max" in err and "minimum 3" in err


@pytest.mark.parametrize("p, module", [("3", "T^6+3"), ("5", "T^20+5")])
def test_growth_names_the_n_max_the_fit_needs(p, module, capsys):
    # phi(p^2) = deg g, so the level terms run to level 2 and the layer
    # exponents follow the Iwasawa formula only from layer 2 on
    code, out = run(["growth", "--p", p, "--module", module, "--n-max", "3"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "second differences do not match any mu" in err
    assert "only from layer 2" in err and "pass --n-max 4 or more" in err
    code, out = run(["--no-timestamps", "--format", "machine", "growth", "--p", p, "--module", module, "--n-max", "4"])
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"record": "summary", "layers": 5, "match": 1}


def test_growth_refuses_a_fit_below_the_stable_layer(capsys):
    # phi(3^3) = 18 <= 25 < phi(3^4): the level terms run to level 3, so
    # the fit on layers 0..3 misreads the tail without any fault
    code, out = run(["growth", "--p", "3", "--module", "T^25+3", "--n-max", "3"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "(lambda, mu) = (0, 1) disagrees with the structural (25, 0)" in err
    assert "only from layer 3" in err and "pass --n-max 5 or more" in err
    code, out = run(["--no-timestamps", "growth", "--p", "3", "--module", "T^25+3", "--n-max", "5"])
    assert code == 0 and "[ok] fitted_lambda=25, fitted_mu=0" in out


def test_growth_reaches_deep_layers():
    argv = ["--no-timestamps", "--format", "machine", "growth", "--p", "3", "--module", "T^3+3T+6", "--n-max", "40"]
    code, out = run(argv)
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary == {"record": "summary", "layers": 41, "match": 1}


def test_inverting_search_command():
    code, out = run(["--no-timestamps", "verify-lemma1", "--p", "3", "--u-max", "1"])
    assert code == 0
    assert "automorphisms=54" in out
    assert "inverting=0" in out


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--p", "4", "--u-max", "0"], "p must be an odd prime, got 4"),
        (["--p", "1", "--u-max", "0"], "p must be an odd prime, got 1"),
        (["--p", "3", "9", "--u-max", "1"], "p must be an odd prime, got 9"),
        (["--u-max", "0"], "--u-max 0 is below the minimum 1"),
        (["--u-max", "-1"], "--u-max -1 is below the minimum 1"),
    ],
)
def test_inverting_search_rejects_a_malformed_grid(argv, named, capsys):
    # an empty or non-prime grid is a usage error, not a vacuous "ok"
    code, out = run(["verify-lemma1", *argv])
    assert code == 2 and out == ""
    assert named in capsys.readouterr().err


def test_inverting_search_visits_each_prime_once():
    once = run(["--no-timestamps", "verify-lemma1", "--p", "5", "3", "--u-max", "1"])
    assert run(["--no-timestamps", "verify-lemma1", "--p", "5", "3", "5", "3", "--u-max", "1"]) == once
    assert once[0] == 0 and "grid_points=2" in once[1]
    assert once[1].index("p=5") < once[1].index("p=3")


def test_inverting_search_reports_guard_skips():
    code, out = run(["--no-timestamps", "verify-lemma1", "--p", "31", "--u-max", "2"])
    assert code == 0
    assert "skipped" in out


@pytest.mark.parametrize("p, u_max, searched", [("1000003", "715", 0), ("3", "9011", 5)])
def test_guard_skips_groups_whose_order_has_more_than_4300_digits(p, u_max, searched):
    # p^(u+2) has more than 4300 digits at the last grid point; the guard
    # names the order without printing it, so each point is skipped
    code, out = run(["--format", "machine", "--no-timestamps", "verify-lemma1", "--p", p, "--u-max", u_max])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-2]["verdict"] == "skipped"
    assert lines[-1]["grid_points"] == int(u_max) and lines[-1]["searched"] == searched


def test_campaign_command_small():
    code, out = run(
        ["--no-timestamps", "--seed", "7", "lemma2-campaign", "--p", "3",
         "--r", "1", "2", "--trials", "15"]
    )
    assert code == 0
    assert "constructed orbit control" in out
    code, _ = run(["lemma2-campaign", "--p", "3", "--r", "7", "--trials", "1"])
    assert code == 2  # r > 6 is a usage error


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_campaign_rejects_too_few_trials(trials, capsys):
    code, out = run(["lemma2-campaign", "--p", "3", "--r", "2", "--trials", trials])
    assert code == 2 and out == ""
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["0", "-2", "7"])
def test_campaign_rejects_r_outside_bound(r, capsys):
    code, out = run(["lemma2-campaign", "--p", "3", "--r", "2", r, "--trials", "1"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "--r" in err and "square" not in err


def test_campaign_with_order_four_exponent():
    code, out = run(
        ["--no-timestamps", "lemma2-campaign", "--p", "5", "--zeta", "t2",
         "--r", "4", "--trials", "5", "--precision", "5"]
    )
    assert code == 0
    assert "d=4,s=1" in out


def test_campaign_orbit_control_at_precision_floor():
    # The r=6 control runs at precision max(8, r+2) = 8; its orbit seeds
    # must keep det(M - I) below that precision.
    code, out = run(
        ["--no-timestamps", "--format", "machine", "--precision", "8",
         "lemma2-campaign", "--p", "3", "--zeta", "-1", "--r", "6", "--trials", "5"]
    )
    assert code == 0
    control = [json.loads(line) for line in out.splitlines()][2]
    assert control["control"] == "d=2,s=3"
    assert control["precision"] == 8
    assert control["resolved"] == "witness"
    assert control["rank_check"] == "consistent"


class BoundedRandom(random.Random):
    """A Random that raises after a few draws, so a sampling loop that can
    never accept fails the test instead of hanging it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        if self.draws > 100:
            raise RuntimeError("sampling loop did not terminate")
        return super().randrange(*args)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["lemma2-campaign", "--p", "1", "--zeta", "-1", "--r", "2", "--trials", "1"], "p must be an odd prime, got 1"),
        (["lemma2-campaign", "--p", "0", "--zeta", "t2"], "p must be an odd prime, got 0"),
        (["lemma2-campaign", "--p", "0", "--zeta", "-1"], "p must be an odd prime, got 0"),
        (["--precision", "0", "lemma2-campaign", "--zeta", "t2"], "precision must be a positive integer, got 0"),
        (["--precision", "-2", "lemma2-campaign", "--zeta", "t2"], "precision must be a positive integer, got -2"),
    ],
)
def test_campaign_rejects_a_bad_p_or_precision(argv, named, monkeypatch, capsys):
    monkeypatch.setattr(cli, "Random", BoundedRandom)
    code, out = run(argv)
    assert code == 2 and out == ""
    assert named in capsys.readouterr().err


def test_audit_parity_on_bundled_models():
    for name in ("model_d2.json", "model_d4.json"):
        code, out = run(["--no-timestamps", "audit-parity", str(DATA / name)])
        assert code == 0, name
        assert "consistent" in out


def test_audit_parity_header_names_the_models_precision():
    # the header names the model's N, not the --precision flag, which
    # audit-parity does not use
    for name in ("model_d2.json", "model_d4.json"):
        precision = json.loads((DATA / name).read_text())["precision"]
        for flag in ([], ["--precision", "3"]):
            code, out = run(["--no-timestamps", *flag, "audit-parity", str(DATA / name)])
            assert code == 0, name
            assert out.splitlines()[0] == f"# anticyclo audit-parity (seed=0, precision={precision})"


def test_audit_parity_rejects_corrupted_model(tmp_path):
    raw = json.loads((DATA / "model_d2.json").read_text())
    raw["D"][0][0] = (raw["D"][0][0] + 1) % 81
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, _ = run(["audit-parity", str(bad)])
    assert code == 2


def test_audit_parity_rejects_a_d_other_than_the_order_of_zeta(tmp_path, capsys):
    raw = json.loads((DATA / "model_d2.json").read_text()) | {"d": 4}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run(["audit-parity", str(bad)])
    assert code == 2 and out == ""
    assert "model invariant violated: exponent does not have order 4" in capsys.readouterr().err


def test_audit_parity_names_a_model_without_an_invertible_intertwiner(tmp_path, capsys):
    # diag(4, 4, 4, 4^-1, 4^-1) at p = 3, N = 6 with no D: chi_S̄ and its
    # twist by zeta = -1 differ, so the solver certifies "none" and the
    # model is refused for not realizing the exponent; a sample-only
    # search over its 12-dimensional kernel could only say "undetermined"
    lam = [4, 4, 4, pow(4, -1, 3**6), pow(4, -1, 3**6)]
    rows = [[x if i == j else 0 for j in range(5)] for i, x in enumerate(lam)]
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"p": 3, "precision": 6, "d": 2, "zeta": -1, "M": rows}))
    code, out = run(["audit-parity", str(model)])
    assert code == 2 and out == ""
    assert "model invariant violated: no invertible intertwiner exists" in capsys.readouterr().err


def test_audit_parity_rejects_malformed_file(tmp_path):
    bad = tmp_path / "nonsense.json"
    bad.write_text("{\"p\": 3}")
    code, _ = run(["audit-parity", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("zeta", {}),
        ("M", [[None, 0], [0, 61]]),
        ("M", [[{}, 0], [0, 61]]),
        ("D", [None, [1, 0]]),
        ("p", 3.7),
        ("precision", 4.9),
        ("t_block", "0"),
        ("t_block", 0.5),
        ("t_block", True),
        ("zeta", -1.0),
        ("zeta", "-1"),
    ],
)
def test_audit_parity_rejects_non_integer_model_fields(tmp_path, capsys, key, value):
    raw = json.loads((DATA / "model_d2.json").read_text())
    raw[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run(["audit-parity", str(bad)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert f"model file key '{key}'" in err, err


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"precision": 0, "zeta": {"teichmuller": 2}}, "precision must be a positive integer, got 0"),
        ({"p": 0, "zeta": {"teichmuller": 2}}, "p must be an odd prime, got 0"),
        ({"p": 0, "zeta": -1}, "p must be an odd prime, got 0"),
    ],
)
def test_audit_parity_rejects_a_bad_p_or_precision(tmp_path, capsys, fields, named):
    raw = json.loads((DATA / "model_d2.json").read_text()) | fields
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run(["audit-parity", str(bad)])
    assert code == 2 and out == ""
    assert named in capsys.readouterr().err


def test_check_records_exit_codes(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text(
        json.dumps({"p": 3, "n": 1, "inv": [9, 3], "flags": ALL_FLAGS, "label": "a"}) + "\n"
    )
    assert run(["check-records", str(good)])[0] == 0

    cyclic = tmp_path / "cyclic.jsonl"
    cyclic.write_text(
        json.dumps({"p": 3, "n": 1, "inv": [27], "flags": ALL_FLAGS, "label": "a"}) + "\n"
    )
    code, out = run(["--no-timestamps", "check-records", str(cyclic)])
    assert code == 1
    assert "contradiction" in out

    broken = tmp_path / "broken.jsonl"
    broken.write_text("{this is not json}\n")
    assert run(["check-records", str(broken)])[0] == 2

    assert run(["check-records", str(tmp_path / "missing.jsonl")])[0] == 2

    # a string is not an invariant list: "3" must not be read as [3]
    stringly = tmp_path / "stringly.jsonl"
    stringly.write_text(
        json.dumps({"p": 3, "n": 1, "inv": "3", "flags": ALL_FLAGS, "label": "a"}) + "\n"
    )
    assert run(["--no-timestamps", "check-records", str(stringly)]) == (2, "")

    # one label holding p=3 and p=5 records is an input error, not a parity verdict
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(
        json.dumps({"p": q, "n": n, "inv": [q, q], "flags": ALL_FLAGS, "label": "m"}) + "\n"
        for n, q in enumerate((3, 5, 3, 5))
    ))
    assert run(["--no-timestamps", "check-records", str(mixed)]) == (2, "")


def test_check_records_bundled_sample():
    code, out = run(["--no-timestamps", "check-records", str(DATA / "records_sample.jsonl")])
    assert code == 0
    assert "lambda=2" in out


def test_reports_are_deterministic():
    argv = ["--no-timestamps", "--seed", "3", "lemma2-campaign", "--p", "3", "--r", "1", "--trials", "10"]
    assert run(argv) == run(argv)
    argv = ["--no-timestamps", "check-records", str(DATA / "records_sample.jsonl")]
    assert run(argv) == run(argv)


def test_machine_format_is_json_lines():
    code, out = run(
        ["--no-timestamps", "--format", "machine", "check-records", str(DATA / "records_sample.jsonl")]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["record"] == "header"
    assert lines[0]["command"] == "check-records"
    assert lines[-1]["record"] == "summary"
    kinds = {line.get("record") for line in lines}
    assert kinds == {"header", "check", "summary"}
    checks = [line for line in lines if line["record"] == "check"]
    assert all("verdict" in c for c in checks)


# Exit code and sha256 of the ``--format machine --no-timestamps`` stdout
# of each run below, recorded at commit 801795d.  A change that alters the
# machine output on purpose updates these digests and says so: "audit-parity
# d=4" changed when the header took the model's precision (8), not --precision.
GOLDEN_DIGESTS = {
    "lemma2-campaign p=3 zeta=-1": (0, "354c19523a524aa23ea776a1a2c76748c67ba48f0114d5afdb5e999d54c37159"),
    "lemma2-campaign p=3 zeta=1": (0, "36ce52d40f65e549f72d688819533a2e48bf7edc789bb5bd4cff725d982dc271"),
    "lemma2-campaign p=5": (0, "95babe12786a3726f91edc07d20444e161ed86ab6ba3b4f63623d72656df817a"),
    "lemma2-campaign p=7 zeta=t2": (0, "2d4f23f66f29f76e5a3d3555abdebc2906e10bf36fb882547f217e22be41a417"),
    "verify-lemma1": (0, "0a33f521b1db5cbdaa83aba76c931a28a4072a2583c96a12c76d2eb1a660fd19"),
    "growth": (0, "9fb22e2e9691195e0e78c3b7bf42c2cbab024be3d9582139f20c87e52e6d9ce3"),
    "check-records": (0, "c2c35e97da705bf8c241fd067310ae55c1c9297b336e3732c55868fb61e69b25"),
    "audit-parity d=2": (0, "15afe6236c47709cf9c8ad738f64630751102e86ed9a971104826a868a320b22"),
    "audit-parity d=4": (0, "480fc39b41d7f98bd81e821396d10756f584b2ea3eb57b81e0e5efec054f4cc1"),
    "audit-parity without D": (0, "15afe6236c47709cf9c8ad738f64630751102e86ed9a971104826a868a320b22"),
}


def test_machine_output_matches_recorded_digests(tmp_path):
    model = json.loads((DATA / "model_d2.json").read_text())
    del model["D"]  # the audit must solve for the intertwiner itself
    no_d = tmp_path / "model_no_d.json"
    no_d.write_text(json.dumps(model))
    runs = {
        "lemma2-campaign p=3 zeta=-1": ["lemma2-campaign", "--p", "3", "--r", "1", "2", "3", "--trials", "20"],
        "lemma2-campaign p=3 zeta=1":
            ["lemma2-campaign", "--p", "3", "--zeta", "1", "--r", "1", "2", "3", "--trials", "20"],
        "lemma2-campaign p=5": ["--precision", "8", "lemma2-campaign", "--p", "5", "--r", "2", "4", "6", "--trials", "5"],
        "lemma2-campaign p=7 zeta=t2":
            ["--precision", "6", "lemma2-campaign", "--p", "7", "--zeta", "t2", "--r", "3", "--trials", "10"],
        "verify-lemma1": ["verify-lemma1"],
        "growth": ["growth", "--p", "3", "--module", "T-3", "--n-max", "5"],
        "check-records": ["check-records", str(DATA / "records_sample.jsonl")],
        "audit-parity d=2": ["audit-parity", str(DATA / "model_d2.json")],
        "audit-parity d=4": ["audit-parity", str(DATA / "model_d4.json")],
        "audit-parity without D": ["audit-parity", str(no_d)],
    }
    digests = {}
    for label, argv in runs.items():
        code, out = run(["--format", "machine", "--no-timestamps", *argv])
        digests[label] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert digests == GOLDEN_DIGESTS


#: The arguments each subcommand requires, and the namespace they parse
#: to besides the global options.
SUBCOMMANDS = {
    "verify-lemma1": ([], {"p": [3, 5, 7], "u_max": 2, "func": cli.cmd_verify_lemma1}),
    "lemma2-campaign": (
        [], {"p": 3, "r": [1, 2, 3], "zeta": "-1", "trials": 200, "func": cli.cmd_lemma2_campaign},
    ),
    "growth": (["--p", "3", "--module", "T-3"], {"p": 3, "module": "T-3", "n_max": 5, "func": cli.cmd_growth}),
    "audit-parity": (["model.json"], {"model": "model.json", "func": cli.cmd_audit_parity}),
    "check-records": (["records.jsonl"], {"records": "records.jsonl", "func": cli.cmd_check_records}),
}
#: (dest, argv before the subcommand, argv after it, value of each)
GLOBAL_OPTIONS = [
    ("precision", ["--precision", "6"], ["--precision", "9"], 6, 9),
    ("seed", ["--seed", "1"], ["--seed", "2"], 1, 2),
    ("format", ["--format", "machine"], ["--format", "text"], "machine", "text"),
    ("no_timestamps", ["--no-timestamps"], ["--no-timestamps"], True, True),
]


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("dest, before, after, value_before, value_after", GLOBAL_OPTIONS)
def test_global_options_parse_on_either_side_of_the_subcommand(
    command, dest, before, after, value_before, value_after
):
    # unset, a global option takes its default; given on both sides of
    # the subcommand, the value after it wins
    required, rest = SUBCOMMANDS[command]
    argv = [command, *required]
    plain = vars(cli.parse_args(argv))
    assert plain == {"precision": 4, "seed": 0, "format": "text", "no_timestamps": False, "command": command} | rest
    assert vars(cli.parse_args(before + argv)) == plain | {dest: value_before}
    assert vars(cli.parse_args(argv + after)) == plain | {dest: value_after}
    assert vars(cli.parse_args(before + argv + after)) == plain | {dest: value_after}


def test_usage_errors_exit_2():
    assert run(["growth", "--p", "3"])[0] == 2  # missing --module
    assert run(["no-such-command"])[0] == 2


def run_process(argv, **env_vars):
    # A separate process, so a hang is cut by the timeout instead of
    # stalling the suite.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "anticyclo.cli", "--no-timestamps", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )


def test_check_records_answers_for_a_large_prime(tmp_path):
    records = tmp_path / "large.jsonl"
    records.write_text(json.dumps({"p": 10**18 + 3, "n": 0, "inv": []}) + "\n")
    result = run_process(["check-records", str(records)])
    assert result.returncode == 0, result.stderr
    assert "p=1000000000000000003" in result.stdout


def test_check_records_refuses_a_prime_beyond_the_primality_bound(tmp_path):
    records = tmp_path / "huge.jsonl"
    records.write_text(json.dumps({"p": MILLER_RABIN_BOUND + 2, "n": 0, "inv": []}) + "\n")
    result = run_process(["check-records", str(records)])
    assert result.returncode == 2
    assert "line 1" in result.stderr and str(MILLER_RABIN_BOUND) in result.stderr


def test_check_records_names_the_line_of_an_oversized_integer(tmp_path):
    # 3^9300 has 4,438 digits: above the interpreter's default limit of
    # 4,300 for reading an integer, so the error names the line and the
    # setting that raises the limit; raised, the record is read and checked
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(3**9300)
    finally:
        sys.set_int_max_str_digits(limit)
    records = tmp_path / "oversized.jsonl"
    records.write_text(
        json.dumps({"p": 3, "n": 0, "inv": [9], "label": "a"}) + "\n"
        + '{"p": 3, "n": 1, "inv": [' + digits + '], "label": "a"}\n'
    )
    result = run_process(["check-records", str(records)], PYTHONINTMAXSTRDIGITS="4300")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: line 2: an integer has more than 4300 digits, the interpreter's limit for "
        "reading integers; set PYTHONINTMAXSTRDIGITS to raise it\n"
    )
    result = run_process(["check-records", str(records)], PYTHONINTMAXSTRDIGITS="5000")
    assert result.returncode == 0, result.stderr
    assert "summary: contradictions=0, records=2" in result.stdout


def test_machine_lines_match_json_dumps_with_sorted_keys(tmp_path):
    # the shared encoder writes what json.dumps(..., sort_keys=True) writes,
    # escapes of non-ASCII labels and warnings included
    records = tmp_path / "unicode.jsonl"
    records.write_text("".join(
        json.dumps({"p": 5, "n": n, "inv": [5**(2 * n + 2), 5], "flags": ALL_FLAGS, "label": "tour ζ-é ✓",
                    "note": "ü"}, ensure_ascii=False) + "\n"
        for n in range(4)
    ), encoding="utf-8")
    code, out = run(["--no-timestamps", "--format", "machine", "check-records", str(records)])
    assert code == 0
    assert out.isascii() and "\\u03b6" in out
    assert out == "".join(json.dumps(json.loads(line), sort_keys=True) + "\n" for line in out.splitlines())


def run_process_in_1_gib(argv):
    # A run that builds something huge fails here with MemoryError instead
    # of exhausting the host.
    limit = 1 << 30
    return subprocess.run(
        [sys.executable, "-m", "anticyclo.cli", "--no-timestamps", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_check_records_memory_does_not_grow_with_the_layer_index(tmp_path):
    records = tmp_path / "deep.jsonl"
    records.write_text(json.dumps({"p": 3, "n": 10**12, "inv": [9, 3], "label": "x"}) + "\n")
    result = run_process_in_1_gib(["--format", "machine", "check-records", str(records)])
    assert result.returncode == 0, result.stderr
    growth = [json.loads(line) for line in result.stdout.splitlines() if '"growth"' in line]
    assert [(g["label"], g["verdict"]) for g in growth] == [("x", "skipped")]


def test_verify_lemma1_skips_a_large_prime_promptly():
    result = run_process(["verify-lemma1", "--p", "1000003", "--u-max", "1"])
    assert result.returncode == 0, result.stderr
    assert "[skipped] p=1000003, u=1" in result.stdout


def test_growth_of_a_linear_factor_at_a_large_prime():
    result = run_process(["growth", "--p", "1009", "--module", "T+1009", "--n-max", "3"])
    assert result.returncode == 0, result.stderr
    assert "fitted_lambda=1, fitted_mu=0, fitted_nu=1" in result.stdout


def test_growth_reaches_layer_400_promptly():
    # layers past the last phi(p^k) <= deg g add deg g each in closed form
    result = run_process(["growth", "--p", "3", "--module", "T^5+3", "--n-max", "400"])
    assert result.returncode == 0, result.stderr
    assert "fitted_lambda=5, fitted_mu=0, fitted_nu=-2" in result.stdout


def test_growth_reaches_layer_100000_promptly():
    # no layer computes p^n afresh, so the table and the fit are linear
    # in the layer count when there is no mu-part
    result = run_process(["growth", "--p", "3", "--module", "T-3", "--n-max", "100000"])
    assert result.returncode == 0, result.stderr
    assert "layers=100001, match=1" in result.stdout


@pytest.mark.parametrize("degree", [MAX_POLY_DEGREE + 1, 10000])
def test_growth_refuses_a_factor_above_the_degree_bound(degree):
    result = run_process_in_1_gib(["growth", "--p", "3", "--module", f"p^1,T^{degree}+3", "--n-max", "3"])
    assert result.returncode == 2 and result.stdout == ""
    assert f"polynomial factor 1 has degree {degree}" in result.stderr
    assert f"MAX_POLY_DEGREE = {MAX_POLY_DEGREE}" in result.stderr


def test_growth_table_runs_each_level_elimination_once(monkeypatch):
    # phi(3) = 2 and phi(9) = 6 are <= deg g = 8, so levels 1 and 2 need a
    # local SNF each; every later layer adds deg g to the previous one
    import anticyclo.iwasawa as iwasawa

    calls = []
    engine = iwasawa.smith_normal_form_mod_prime_power
    monkeypatch.setattr(
        iwasawa, "smith_normal_form_mod_prime_power", lambda *args: calls.append(args) or engine(*args)
    )
    argv = ["--no-timestamps", "--format", "machine", "growth", "--p", "3", "--module", "T^8+3T+3", "--n-max", "1000"]
    code, out = run(argv)
    assert code == 0
    assert len(calls) == 2
    assert json.loads(out.splitlines()[-2])["fitted_lambda"] == 8


def test_growth_refuses_a_mu_part_exponent_beyond_the_int_digit_limit():
    # 3^9012 has 4300 digits, the interpreter's default limit for turning
    # an int into a string; 3^9013 has 4301
    argv = ["--format", "machine", "growth", "--p", "3", "--module", "p^1", "--n-max"]
    fits = run_process(argv + ["9012"], PYTHONINTMAXSTRDIGITS="4300")
    assert fits.returncode == 0, fits.stderr
    assert json.loads(fits.stdout.splitlines()[-1]) == {"record": "summary", "layers": 9013, "match": 1}
    over = run_process(argv + ["9013"], PYTHONINTMAXSTRDIGITS="4300")
    assert over.returncode == 2 and over.stdout == ""
    assert "--n-max 9013" in over.stderr and "--n-max 9012 or less" in over.stderr


@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_growth_refuses_a_lambda_part_that_carries_an_exponent_past_the_int_digit_limit(fmt):
    # mu·3^3 = 10^640 - 10 prints within a 640-digit limit, but
    # e_3 = mu·3^3 + v_3(3^10) + 3 = 10^640 + 3 has 641 digits
    mu = (10**640 - 1) // 27
    argv = ["--format", fmt, "growth", "--p", "3", "--module", f"p^{mu},T+59049", "--n-max", "3"]
    over = run_process(argv, PYTHONINTMAXSTRDIGITS="640")
    assert over.returncode == 2 and over.stdout == ""
    assert "--n-max 3 is above 2" in over.stderr and "--n-max 2 or less" in over.stderr


def write_shift_model(path, precision, shift):
    """A d = 1 model file (zeta = 1, D = I, no t_block) with M = I + shift."""
    r = len(shift)
    ident = [[int(i == j) for j in range(r)] for i in range(r)]
    M = [[x + e for x, e in zip(row, erow)] for row, erow in zip(shift, ident)]
    path.write_text(json.dumps({"p": 3, "precision": precision, "d": 1, "zeta": 1, "M": M, "D": ident}))
    return path


def test_audit_parity_refuses_an_uncertified_24_dimensional_model_promptly(tmp_path):
    # M - I = diag(3^7 x12, 3 x12): every vertex carries a loop, so neither
    # peel certifies the trailing zeros that vanish at N = 14
    shift = [[(3**7 if i < 12 else 3) if i == j else 0 for j in range(24)] for i in range(24)]
    result = run_process(["audit-parity", str(write_shift_model(tmp_path / "m.json", 14, shift))])
    assert result.returncode == 2 and result.stdout == ""
    assert "raise N" in result.stderr


def test_audit_parity_names_t_block_for_a_block_hidden_by_a_change_of_basis(tmp_path):
    # M = P·diag(1, 4)·P^-1 with P = [[1, 1], [1, 2]]: the T-block is real
    # but conjugated, so raising N cannot help and declaring it does
    path = write_shift_model(tmp_path / "m.json", 4, [[-3, 3], [-6, 6]])
    result = run_process(["--format", "machine", "--no-timestamps", "audit-parity", str(path)])
    assert result.returncode == 2 and result.stdout == ""
    assert "raise N" in result.stderr and "declaring t_block = 1 does" in result.stderr
    model = json.loads(path.read_text())
    path.write_text(json.dumps({**model, "t_block": 1}))
    result = run_process(["--format", "machine", "--no-timestamps", "audit-parity", str(path)])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[1])["verdict"] == "ok"


def test_audit_parity_certifies_a_24_dimensional_model_structurally(tmp_path):
    # loops at the even coordinates, c -> c + 1 for even c, and a chain
    # through the odd coordinates: the sink peel removes all 12 odd ones
    shift = [[0] * 24 for _ in range(24)]
    for c in range(0, 24, 2):
        shift[c][c] = shift[c + 1][c] = 3
    for a in range(1, 22, 2):
        shift[a + 2][a] = 3
    result = run_process(
        ["--format", "machine", "audit-parity", str(write_shift_model(tmp_path / "m.json", 14, shift))]
    )
    assert result.returncode == 0, result.stderr
    check = json.loads(result.stdout.splitlines()[1])
    assert check["verdict"] == "ok" and check["r"] == 24 and check["t_block"] is None
