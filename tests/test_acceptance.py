"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line.  Budgets (runtimes, trial counts, grids) are pinned here
and must not be relaxed.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import contextlib
import io
import json
import random
import time

from anticyclo.cli import main as cli_main
from anticyclo.cohomology import FinitePModule, tate_h0, tate_hm1, theorem2_cyclic_obstruction
from anticyclo.iwasawa import (
    ElementaryLambdaModule,
    build_gamma_model,
    fit_invariants,
    invariants_of,
    layer_exponents,
    parity_audit,
)
from anticyclo.linalg import (
    charpoly,
    intertwiner_solve,
    mat_pow_zeta,
    orbit_block_construct,
    random_unipotent_matrix,
)
from anticyclo.metacyclic import MetacyclicGroup
from anticyclo.padic import PadicInt, pow_one_unit, teichmuller

from conftest import NaiveMetacyclic, all_elements, apply_rows, is_invertible, quotient_structure

ALL_FLAGS = {
    name: True
    for name in ("p_nonsplit", "cm_field", "A_k_nontrivial", "A_kplus_trivial", "no_p_roots_of_unity")
}


def _report(index, name, ok):
    print(f"\nACCEPTANCE [{index}/8] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {index} ({name}) failed"


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def test_acceptance_1_inverting_automorphism_grid():
    start = time.perf_counter()
    ok = True
    # exact grid {(3,1),(3,2),(5,1),(7,1)} through the CLI
    for argv in (
        ["--no-timestamps", "--format", "machine", "verify-lemma1", "--p", "3", "--u-max", "2"],
        ["--no-timestamps", "--format", "machine", "verify-lemma1", "--p", "5", "7", "--u-max", "1"],
    ):
        code, out = _run_cli(argv)
        ok &= code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        summary = lines[-1]
        ok &= summary["inverting_found"] == 0
        for check in lines[1:-1]:
            if check.get("p") == 3 and check.get("u") == 1:
                ok &= check["automorphisms"] == 54
    # the 54 is recomputed by the dumb pointwise oracle, in CI, every run
    oracle_count = len(NaiveMetacyclic(3, 1).automorphism_images())
    ok &= oracle_count == 54
    ok &= len(MetacyclicGroup(3, 1).enumerate_automorphisms()) == oracle_count
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(1, f"inverting-automorphism grid clean, count matches oracle ({elapsed:.1f}s)", ok)


def test_acceptance_2_principal_unit_congruence():
    failures = 0
    for p in (3, 5):
        for u in (1, 2):
            modulus = p ** (u + 1)
            base = PadicInt(p, u + 1, 1 + p**u)
            for r in range(p**2 + 1):
                if pow_one_unit(base, r).residue != (1 + r * p**u) % modulus:
                    failures += 1
    _report(2, "one-unit power congruence exhaustive sweep", failures == 0)


def test_acceptance_3_intertwiner_necessity_and_controls():
    start = time.perf_counter()
    ok = True
    counter = 0
    for p in (3, 5):
        for r in (1, 3):
            for _ in range(200):
                rng = random.Random(1_000_003 * counter + 17)
                counter += 1
                M = random_unipotent_matrix(p, 4, r, rng)
                result = intertwiner_solve(M, -1, seed=counter)
                ok &= result.status == "none"
    controls = []
    for d, s in ((2, 1), (2, 2), (4, 1)):
        p = 3 if d == 2 else 5
        precision = d * s + 2
        zeta = -1 if d == 2 else teichmuller(2, p, precision)
        M, D = orbit_block_construct(p, precision, s, zeta)
        ok &= mat_pow_zeta(M, zeta) @ D == D @ M
        ok &= is_invertible(D)
        controls.append((M, zeta))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    test_acceptance_3_intertwiner_necessity_and_controls.controls = controls
    _report(3, f"800 necessity trials clean, 3 orbit controls verified ({elapsed:.1f}s)", ok)


def test_acceptance_4_characteristic_polynomial_identity():
    controls = getattr(test_acceptance_3_intertwiner_necessity_and_controls, "controls", None)
    if controls is None:
        controls = []
        for d, s in ((2, 1), (2, 2), (4, 1)):
            p = 3 if d == 2 else 5
            precision = d * s + 2
            zeta = -1 if d == 2 else teichmuller(2, p, precision)
            M, _ = orbit_block_construct(p, precision, s, zeta)
            controls.append((M, zeta))
    ok = all(charpoly(mat_pow_zeta(M, zeta).rows, M.modulus) == charpoly(M.rows, M.modulus) for M, zeta in controls)
    _report(4, "zeta-power preserves the characteristic polynomial on controls", ok)


def test_acceptance_5_growth_and_fit_recovery():
    ok = True
    linear = ElementaryLambdaModule(3, poly_parts=((-3, 1),))
    ok &= layer_exponents(linear, 5) == [1, 2, 3, 4, 5, 6]
    mu_one = ElementaryLambdaModule(3, mu_parts=(1,))
    ok &= layer_exponents(mu_one, 3) == [1, 3, 9, 27]
    rng = random.Random(2024)
    recovered = 0
    attempts = 0
    while recovered < 200 and attempts < 2000:
        attempts += 1
        p = rng.choice([3, 5])
        mu_parts = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
        polys = []
        for _ in range(rng.randint(0, 2)):
            deg = rng.randint(1, 4)
            polys.append(
                tuple([p * rng.randint(1, 3)] + [p * rng.randint(0, 3) for _ in range(deg - 1)] + [1])
            )
        if not mu_parts and not polys:
            continue
        module = ElementaryLambdaModule(p, mu_parts, tuple(polys))
        try:
            seq = layer_exponents(module, 5)
        except ValueError:
            continue  # factor collided with a layer polynomial; resample
        fit = fit_invariants(seq, p)
        if (fit.lam, fit.mu) != invariants_of(module):
            ok = False
            break
        recovered += 1
    ok &= recovered == 200
    _report(5, f"layer growth exact, fit recovered structure on {recovered} random modules", ok)


def _parity_model_params(i):
    d = (2, 4)[i % 2]
    t_block = i % 3
    if d == 2:
        p = (3, 5, 7)[i % 3]
        orbits = 1 + (i % 3)
    else:
        p = 5
        orbits = 1 + (i % 2)
    r = d * orbits + t_block
    return p, d, orbits, t_block, r + 2


def test_acceptance_6_parity_audits(tmp_path):
    ok = True
    violations = 0
    for i in range(100):
        p, d, orbits, t_block, precision = _parity_model_params(i)
        model = build_gamma_model(p, precision, d, orbits, t_block=t_block)
        verdict = parity_audit(model)
        if verdict != "consistent":
            violations += 1
    ok &= violations == 0
    rejected = 0
    for i in range(100):
        p, d, orbits, t_block, precision = _parity_model_params(i)
        model = build_gamma_model(p, precision, d, orbits, t_block=t_block)
        rows = [list(r) for r in model.D.rows]
        # the (0,0) slot pairs an eigenvalue with itself, which the exponent
        # forbids for d >= 2, so any nonzero entry there breaks intertwining
        rows[0][0] = (rows[0][0] + 1 + (i % 3)) % model.D.modulus
        zeta_json = -1 if d == 2 else {"teichmuller": 2}
        payload = {
            "p": p,
            "precision": precision,
            "d": d,
            "zeta": zeta_json,
            "t_block": t_block,
            "M": [list(r) for r in model.M.rows],
            "D": rows,
        }
        path = tmp_path / f"corrupt_{i}.json"
        path.write_text(json.dumps(payload))
        code, _ = _run_cli(["audit-parity", str(path)])
        if code == 2:
            rejected += 1
        ok &= code != 1  # a corrupted model must never read as a parity violation
    ok &= rejected == 100
    _report(6, "100 models consistent, 100 corrupted models rejected with exit 2", ok)


def test_acceptance_7_herbrand_equality():
    # worked example, both through the library and by enumeration
    worked = FinitePModule(3, (9,), actions={"tau": [[4]]}, orders={"tau": 3})
    ok = tate_h0(worked, "tau", 3).invariant_factors == ()
    ok &= tate_hm1(worked, "tau", 3).invariant_factors == ()
    fixed_set = [x for x in range(9) if 4 * x % 9 == x]
    norm_set = {(x + 4 * x + 16 * x) % 9 for x in range(9)}
    kernel_set = [x for x in range(9) if (x + 4 * x + 16 * x) % 9 == 0]
    shift_set = {(4 * x - x) % 9 for x in range(9)}
    ok &= sorted(fixed_set) == sorted(norm_set) == [0, 3, 6]  # H^0 trivial by enumeration
    ok &= sorted(kernel_set) == sorted(shift_set) == [0, 3, 6]  # H^-1 trivial by enumeration
    rng = random.Random(99)
    checked = 0
    from math import gcd

    while checked < 100:
        k = rng.randint(1, 3)
        exps = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
        if sum(exps) > 6:
            continue
        factors = tuple(3**e for e in exps)
        rows = []
        for i in range(k):
            row = []
            for j in range(k):
                need = factors[i] // gcd(factors[i], factors[j])
                row.append(need * rng.randrange(0, max(1, factors[i] // need)))
            rows.append(row)
        try:
            module = FinitePModule(3, factors, actions={"tau": rows})
        except ValueError:
            continue
        power = rows
        order = None
        for m in range(1, 200):
            if module._is_identity(power):
                order = m
                break
            power = module._reduce(
                [[sum(power[a][l] * rows[l][b] for l in range(k)) for b in range(k)] for a in range(k)]
            )
        if order is None:
            continue
        h0 = tate_h0(module, "tau", order)
        hm1 = tate_hm1(module, "tau", order)
        if h0.size() != hm1.size():
            ok = False
            break
        # full enumeration oracle for both structures
        els = all_elements(factors)
        zero = tuple([0] * k)

        def tau(x):
            return apply_rows(rows, x, factors)

        def norm(x):
            acc, cur = zero, x
            for _ in range(order):
                acc = tuple((a + b) % q for a, b, q in zip(acc, cur, factors))
                cur = tau(cur)
            return acc

        fixed = [x for x in els if tau(x) == x]
        norms = {norm(x) for x in els}
        kernel = [x for x in els if norm(x) == zero]
        shifts = {
            tuple((a - b) % q for a, b, q in zip(tau(x), x, factors)) for x in els
        }
        if h0.invariant_factors != quotient_structure(fixed, norms, factors, 3):
            ok = False
            break
        if hm1.invariant_factors != quotient_structure(kernel, shifts, factors, 3):
            ok = False
            break
        checked += 1
    ok &= checked == 100
    _report(7, f"Herbrand equality and structures vs enumeration on {checked} modules", ok)


def test_acceptance_8_cyclic_obstruction_and_record_gate(tmp_path):
    ok = True
    for p, u in ((3, 1), (3, 2), (5, 1), (7, 1)):
        q = p ** (u + 1)
        module = FinitePModule(p, (q,), actions={"tau": [[1 + p**u]]}, orders={"tau": p})
        result = theorem2_cyclic_obstruction(module)
        ok &= result.holds and result.witness is None
    cyclic = tmp_path / "cyclic.jsonl"
    cyclic.write_text(
        json.dumps({"p": 3, "n": 1, "inv": [27], "flags": ALL_FLAGS, "label": "s"}) + "\n"
    )
    code, out = _run_cli(["--no-timestamps", "check-records", str(cyclic)])
    ok &= code == 1 and "contradiction" in out
    control = tmp_path / "control.jsonl"
    control.write_text(
        json.dumps({"p": 3, "n": 1, "inv": [9, 3], "flags": ALL_FLAGS, "label": "s"}) + "\n"
    )
    code, _ = _run_cli(["--no-timestamps", "check-records", str(control)])
    ok &= code == 0
    _report(8, "cyclic obstruction holds on the grid; record gate flags cyclic data", ok)
