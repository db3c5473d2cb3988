"""The benchmark workloads: job lists built from a seed, each job paired
with the verdicts an independent oracle expects from it.

Expected verdicts come from how each input was built: a closed-form
automorphism count, the layer exponents of an Eisenstein polynomial, a
planted record, a block decomposition of a module.  None is read from the
program's own output.  The program only ever sees the generated argv,
files and module objects.

A job that reproduces a known defect keeps the oracle's true expectation,
so it fails until the defect is fixed; ``known_defect`` names the defect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MACHINE = ["--format", "machine", "--no-timestamps"]

#: Candidate-pair budgets of ``verify-lemma1``, restated rather than
#: imported so a change to them shows as a failure: the search guard of
#: 10^7 pairs is documented in the README, the enumeration budget is
#: ``anticyclo.cli.ENUMERATION_BUDGET``.
SEARCH_GUARD = 10**7
ENUMERATION_BUDGET = 200_000

FLAG_NAMES = ("p_nonsplit", "cm_field", "A_k_nontrivial", "A_kplus_trivial", "no_p_roots_of_unity")

KNOWN_DEFECTS = {
    "orbit-control-precision": (
        "lemma2-campaign --precision 8 --r 6: the orbit control runs at precision "
        "max(N, r+2) = 8, but the seeds 1+p(i+1) give det(M - I) valuation 8, so it "
        "exits 2 with 'det(M - I) ≡ 0'; the oracle expects exit 0"
    ),
    "mixed-p-label": (
        "check-records on a label mixing p=3 and p=5 records fits growth with the first "
        "record's p and reports 'fitted lambda = 1 is odd' (exit 1); mixed input must exit 2"
    ),
}


@dataclass
class Job:
    """One closed-loop request: ``execute`` calls the program, ``check``
    compares the outcome with the oracle and returns the mismatches."""

    name: str
    execute: Callable[[object], "Outcome"]
    check: Callable[["Outcome"], list]
    known_defect: str | None = None


@dataclass
class Outcome:
    code: int
    output: str
    stderr: str = ""
    value: object = None


# ----------------------------------------------------------------------
# oracle helpers (plain integer arithmetic, no program code)
# ----------------------------------------------------------------------

def _order_mod(a: int, p: int) -> int:
    d, acc = 1, a % p
    while acc != 1:
        acc = acc * a % p
        d += 1
    return d


def _phi_p_power(p: int, m: int) -> int:
    return (p - 1) * p ** (m - 1)


def _records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _cli_job(name, argv, expect, known_defect=None) -> Job:
    """A CLI job run in-process.

    ``expect()`` returns (exit code, check records, summary): the check
    records in output order, each compared on the keys it names, and
    None where the output is not checked.  It runs only when the outcome
    is checked, so oracle work stays outside every timed interval.
    """

    def execute(ac) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = ac.cli.main(argv)
        return Outcome(got, out.getvalue(), err.getvalue())

    def check(outcome: Outcome) -> list:
        code, checks, summary = expect()
        problems = []
        if outcome.code != code:
            detail = outcome.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"exit code {outcome.code}, expected {code} {detail[0]}".rstrip())
        if checks is None:
            return problems
        try:
            records = _records(outcome.output)
        except json.JSONDecodeError:
            return problems + ["output is not JSON lines"]
        got = [r for r in records if r.get("record") == "check"]
        if len(got) != len(checks):
            problems.append(f"{len(got)} check records, expected {len(checks)}")
        for i, (g, want) in enumerate(zip(got, checks)):
            seen = {k: g.get(k) for k in want}
            if seen != want:
                problems.append(f"check {i}: got {seen}, expected {want}")
        if summary is not None:
            tail = [r for r in records if r.get("record") == "summary"]
            seen = {k: tail[-1].get(k) for k in summary} if tail else None
            if seen != summary:
                problems.append(f"summary: got {seen}, expected {summary}")
        return problems

    return Job(name, execute, check, known_defect)


# ----------------------------------------------------------------------
# lemma1-grid: the metacyclic automorphism search
# ----------------------------------------------------------------------

#: (p, u_max): u_max is the first u beyond the search guard, so every
#: in-guard point runs and one point per prime takes the skip path.
LEMMA1_GRID = ((3, 6), (5, 4), (7, 3), (11, 2), (13, 2))
#: Primes whose whole grid lies beyond the guard (skip path only).
LEMMA1_SKIP_ONLY = ((17, 19, 23), 2)


def _lemma1_expectation(primes, u_max):
    checks = []
    searched = 0
    for p in primes:
        for u in range(1, u_max + 1):
            order = p ** (u + 2)
            if order**2 > SEARCH_GUARD:
                checks.append({"p": p, "u": u, "verdict": "skipped"})
                continue
            searched += 1
            # |Aut G(p, u)| = p^(u+2)·(p-1): x maps to any x^a·tau^c with a a
            # unit mod p^(u+1), tau to any x^(b·p^u)·tau.
            count = order * (p - 1) if order**2 <= ENUMERATION_BUDGET else "not enumerated"
            checks.append({"p": p, "u": u, "verdict": "ok", "inverting": 0, "automorphisms": count})
    summary = {"grid_points": len(primes) * u_max, "searched": searched, "inverting_found": 0}
    return checks, summary


def lemma1_grid(rng: random.Random, workdir: Path, ac) -> list:
    specs = [((p,), u_max) for p, u_max in LEMMA1_GRID] + [LEMMA1_SKIP_ONLY]
    jobs = []
    for primes, u_max in specs:
        argv = MACHINE + ["--seed", str(rng.randrange(10**6)), "verify-lemma1",
                          "--p", *map(str, primes), "--u-max", str(u_max)]
        name = f"verify-lemma1 p={','.join(map(str, primes))} u<={u_max}"
        jobs.append(_cli_job(name, argv, lambda primes=primes, u_max=u_max: (0, *_lemma1_expectation(primes, u_max))))
    return jobs


# ----------------------------------------------------------------------
# lemma2-campaign: intertwiner trials, orbit controls, parity audits
# ----------------------------------------------------------------------

#: (p, zeta, residue of zeta mod p, precision, r values, trials, copies).
#: p=3 rows are bound by the local-ring SNF, the p=7 row by the exhaustive
#: kernel-candidate loop of the r=6 orbit control.
CAMPAIGNS = (
    (3, "-1", -1, 4, (1, 2, 3), 150, 2),
    (3, "-1", -1, 8, (4, 5), 60, 2),
    (7, "t2", 2, 7, (3, 6), 10, 1),
    (5, "t2", 2, 6, (2, 4), 40, 1),
)
#: The known-defect campaign: p=3, zeta=-1, N=8, r=6.
DEFECT_CAMPAIGN = (3, "-1", -1, 8, (6,), 10)

#: Parity-audit models (p, d, orbits, t_block, with_D).  Models without D
#: make ``parity_audit`` call the intertwiner solver.
MODELS = (
    (3, 2, 2, 1, True), (3, 2, 2, 2, False), (5, 2, 2, 1, True), (5, 2, 2, 1, False),
    (5, 4, 1, 1, True), (5, 4, 1, 1, False), (7, 3, 1, 1, True), (7, 3, 1, 1, False),
    (7, 3, 2, 2, True), (7, 2, 2, 1, False),
)


def _campaign_expectation(p, residue, precision, rs, trials):
    # No trial may report a violation or stay undetermined, and every
    # orbit control (r a multiple of d = ord(zeta)) must be refound.
    d = _order_mod(residue, p)
    checks = []
    for r in rs:
        checks.append({"r": r, "verdict": "ok", "trials": trials, "undetermined": 0})
        if r % d == 0:
            checks.append({"r": r, "verdict": "ok", "control": f"d={d},s={r // d}",
                           "precision": max(precision, r + 2), "intertwines_exactly": True,
                           "resolved": "witness", "rank_check": "consistent"})
    return 0, checks, {"trials": trials * len(rs), "violations": 0, "undetermined": 0}


def _campaign_job(name, rng, p, zeta, residue, precision, rs, trials, known_defect=None):
    argv = MACHINE + ["--precision", str(precision), "--seed", str(rng.randrange(10**6)),
                      "lemma2-campaign", "--p", str(p), "--zeta", zeta,
                      "--r", *map(str, rs), "--trials", str(trials)]
    return _cli_job(name, argv, lambda: _campaign_expectation(p, residue, precision, rs, trials), known_defect)


def _write_model(ac, path: Path, rng, p, d, orbits, t_block, with_d):
    # Orbit seeds 1 + p·unit give v(eta - 1) = 1, so det of the orbit part of
    # M - I has valuation d·orbits; a precision above it certifies t_block.
    precision = d * orbits + 1 + rng.randrange(3)
    modulus = p**precision
    a = rng.choice([a for a in range(2, p) if _order_mod(a, p) == d]) if d > 2 else None
    z = -1 if d == 2 else pow(a, p ** (precision - 1), modulus)  # Teichmuller lift of a
    # Disjoint orbits keep the solver's kernel at d·orbits + t_block^2.
    seeds, taken = [], set()
    while len(seeds) < orbits:
        eta = 1 + p * rng.randrange(1, p) + p * p * rng.randrange(p)
        orbit = {pow(eta, pow(z, j, modulus), modulus) for j in range(d)}
        if not orbit & taken:
            seeds.append(eta)
            taken |= orbit
    zeta = -1 if d == 2 else ac.PadicInt(p, precision, z)
    model = ac.build_gamma_model(p, precision, d, orbits, t_block, zeta=zeta, seeds=seeds)
    raw = {"p": p, "precision": precision, "d": d, "t_block": t_block,
           "zeta": -1 if d == 2 else {"teichmuller": a},
           "M": [list(row) for row in model.M.rows]}
    if with_d:
        raw["D"] = [list(row) for row in model.D.rows]
    path.write_text(json.dumps(raw), encoding="utf-8")


def lemma2_campaign(rng: random.Random, workdir: Path, ac) -> list:
    jobs = []
    for p, zeta, residue, precision, rs, trials, copies in CAMPAIGNS:
        for i in range(copies):
            name = f"lemma2-campaign p={p} zeta={zeta} N={precision} r={rs} #{i}"
            jobs.append(_campaign_job(name, rng, p, zeta, residue, precision, rs, trials))
    p, zeta, residue, precision, rs, trials = DEFECT_CAMPAIGN
    jobs.append(_campaign_job(f"lemma2-campaign p={p} N={precision} r={rs} (known defect)",
                              rng, p, zeta, residue, precision, rs, trials,
                              known_defect="orbit-control-precision"))
    for i, (p, d, orbits, t_block, with_d) in enumerate(MODELS):
        path = workdir / f"model_{i}.json"
        _write_model(ac, path, rng, p, d, orbits, t_block, with_d)
        # dim M - T-multiplicity = d·orbits, a multiple of d: consistent.
        check = {"verdict": "ok", "r": d * orbits + t_block, "d": d, "t_block": t_block,
                 "reason": "parity audit: consistent"}
        jobs.append(_cli_job(f"audit-parity p={p} d={d} s={orbits} t={t_block} D={with_d}",
                             MACHINE + ["audit-parity", str(path)],
                             lambda check=check: (0, [check], {"violations": 0})))
    return jobs


# ----------------------------------------------------------------------
# growth-towers: layer growth of Eisenstein towers and records checks
# ----------------------------------------------------------------------

#: (p, polynomial parts as ascending coefficients, mu parts, n_max).  Every
#: polynomial is T + p^j·unit or Eisenstein of a degree other than
#: phi(p^m), so no factor shares a root with omega_n and the oracle has
#: a closed form.  Each n_max is the last layer before the next one costs
#: about 6x more; the cost depends on the coefficients, so they are fixed
#: and the seed only orders the jobs.
TOWERS = (
    (3, ((3, 1),), (), 15),
    (3, ((6, 3, 0, 1),), (), 11),
    (3, ((3, 3, 0, 0, 1),), (1,), 10),
    (3, ((9, 1), (3, 0, 0, 0, 0, 1)), (), 10),
    (5, ((5, 5, 1),), (), 8),
    (5, ((5, 0, 0, 1),), (2,), 7),
    (7, ((7, 0, 1),), (), 7),
    (7, ((49, 1), (7, 7, 0, 1)), (1,), 6),
)


def _poly_text(coeffs) -> str:
    terms = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        mono = "" if deg == 0 else ("T" if deg == 1 else f"T^{deg}")
        terms.append((str(c) if c != 1 or deg == 0 else "") + mono)
    return "+".join(terms)


def _poly_layer_exponent(p, coeffs, n) -> int:
    """v_p of the resultant of the polynomial with omega_n."""
    k = len(coeffs) - 1
    if k == 1:
        # T + a: the root -a has valuation v_p(a) >= 1, above every nonzero
        # root zeta - 1 of omega_n, and omega_n has p^n - 1 of those.
        a, j = coeffs[0], 0
        while a % p == 0:
            a //= p
            j += 1
        return j + n
    # Eisenstein of degree k: k roots of valuation 1/k, against the root 0
    # and phi(p^m) roots zeta - 1 of valuation 1/phi(p^m) for each m <= n.
    return 1 + sum(min(_phi_p_power(p, m), k) for m in range(1, n + 1))


def _tower_job(p, polys, mus, n_max):
    factors = [_poly_text(c) for c in polys] + [f"p^{mu}" for mu in mus]
    spec = ",".join(factors)
    argv = MACHINE + ["growth", "--p", str(p), "--module", spec, "--n-max", str(n_max)]
    return _cli_job(f"growth p={p} {spec} n<={n_max}", argv, lambda: _tower_expectation(p, polys, mus, n_max))


def _tower_expectation(p, polys, mus, n_max):
    table = [sum(_poly_layer_exponent(p, c, n) for c in polys) + sum(mus) * p**n for n in range(n_max + 1)]
    lam = sum(len(c) - 1 for c in polys)
    mu = sum(mus)
    nu = table[-1] - lam * n_max - mu * p**n_max
    stable = n_max
    while stable > 0 and lam * (stable - 1) + mu * p ** (stable - 1) + nu == table[stable - 1]:
        stable -= 1
    checks = [{"verdict": "info", "n": n, "exponent": e} for n, e in enumerate(table)]
    checks.append({"verdict": "ok", "fitted_lambda": lam, "fitted_mu": mu, "fitted_nu": nu,
                   "stable_from": stable, "structural_lambda": lam, "structural_mu": mu})
    return 0, checks, {"layers": n_max + 1, "match": 1}


def _split_exponent(rng, e):
    """Exponents of a non-cyclic group of order p^e (e >= 2), descending."""
    first = rng.randrange(1, e)
    parts = [first, e - first]
    if parts[1] >= 2 and rng.random() < 0.3:
        cut = rng.randrange(1, parts[1])
        parts = [first, cut, parts[1] - cut]
    return sorted(parts, reverse=True)


def _plant_label(rng, label, p, plant_contradictions):
    """Records of one label with e_n = lam·n + mu·p^n + nu from layer 0.

    Returns (lines, record checks, growth check, contradiction planted).
    """
    n_max = rng.randrange(3, 6 if p == 3 else 5)
    lam = rng.randrange(0, 5)
    if not plant_contradictions and lam % 2:
        lam -= 1
    mu = rng.choice((0, 0, 1))
    nu = rng.randrange(2, 5)
    split_flag = rng.random() < 0.2  # p_nonsplit false: parity not applicable
    lines, checks = [], []
    contradiction = False
    for n in range(n_max + 1):
        e = lam * n + mu * p**n + nu
        cyclic = plant_contradictions and n >= 1 and rng.random() < 0.1
        exps = [e] if cyclic else _split_exponent(rng, e)
        flags = {name: True for name in FLAG_NAMES}
        if split_flag:
            flags["p_nonsplit"] = False
        hypotheses = not split_flag
        if rng.random() < 0.15:
            del flags[rng.choice(FLAG_NAMES[1:])]
            hypotheses = False
        raw = {"p": p, "n": n, "inv": [p**x for x in exps], "flags": flags, "label": label}
        if rng.random() < 0.05:
            raw["source"] = "generated"
        lines.append(raw)
        if n == 0:
            verdict = "ok"
        elif not hypotheses:
            verdict = "skipped"
        elif cyclic:
            verdict = "contradiction"
            contradiction = True
        else:
            verdict = "ok"
        checks.append({"kind": "record", "label": label, "n": n, "p": p,
                       "inv": raw["inv"], "verdict": verdict})
    nonsplit = not split_flag
    growth = {"kind": "growth", "label": label, "lambda": lam, "mu": mu, "nu": nu, "stable_from": 0,
              "verdict": "contradiction" if nonsplit and lam % 2 else "ok"}
    return lines, checks, growth, contradiction or growth["verdict"] == "contradiction"


def _records_job(rng, path: Path, labels: int, plant_contradictions: bool):
    entries = []
    record_checks, growth_checks = [], []
    contradiction = False
    for i in range(labels):
        label = f"tower-{i:03d}-{rng.randrange(16**4):04x}"
        lines, checks, growth, planted = _plant_label(rng, label, rng.choice((3, 5)), plant_contradictions)
        entries.extend(lines)
        record_checks.extend(checks)
        growth_checks.append(growth)
        contradiction |= planted
    rng.shuffle(entries)
    warnings = [{"verdict": "warning", "reason": f"line {line_number}: unknown key 'source' ignored"}
                for line_number, raw in enumerate(entries, start=1) if "source" in raw]
    record_checks.sort(key=lambda c: (c["label"], c["n"]))
    growth_checks.sort(key=lambda c: c["label"])
    path.write_text("".join(json.dumps(raw) + "\n" for raw in entries), encoding="utf-8")
    summary = {"records": len(entries),
               "contradictions": sum(c["verdict"] == "contradiction" for c in record_checks + growth_checks)}
    argv = MACHINE + ["check-records", str(path)]
    name = f"check-records {labels} labels{' (planted contradictions)' if plant_contradictions else ''}"
    expected = (1 if contradiction else 0, warnings + record_checks + growth_checks, summary)
    return _cli_job(name, argv, lambda: expected)


def _mixed_p_job(rng, path: Path):
    # One label: layers 0-2 at p=3 and layer 3 at p=5, e_n = n + nu, all
    # non-cyclic with every hypothesis asserted.
    nu = rng.randrange(2, 4)
    label = f"mixed-{rng.randrange(16**4):04x}"
    flags = {name: True for name in FLAG_NAMES}
    lines = []
    for n, p in ((0, 3), (1, 3), (2, 3), (3, 5)):
        exps = _split_exponent(rng, n + nu)
        lines.append(json.dumps({"p": p, "n": n, "inv": [p**x for x in exps], "flags": flags, "label": label}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _cli_job("check-records mixed-p label (known defect)", MACHINE + ["check-records", str(path)],
                    lambda: (2, None, None), known_defect="mixed-p-label")


def growth_towers(rng: random.Random, workdir: Path, ac) -> list:
    jobs = [_tower_job(*tower) for tower in TOWERS]
    for i, plant in enumerate((False, True, False, True)):
        jobs.append(_records_job(rng, workdir / f"records_{i}.jsonl", 250, plant))
    jobs.append(_mixed_p_job(rng, workdir / "records_mixed.jsonl"))
    return jobs


# ----------------------------------------------------------------------
# tate-modules: Tate cohomology library calls
# ----------------------------------------------------------------------

#: Module shapes (p, free-block exponents, trivial-block exponents).  A
#: free block is Z/p^e[C_p] (tau permutes p generators), a trivial block is
#: Z/p^e with tau = 1; k = p·free + trivial generators, 8 to 16.  The
#: exponents are fixed because the SNF cost grows with them; the seed
#: draws J and the conjugating matrices.
TATE_SHAPES = (
    (3, (6, 2), (1, 4)),
    (3, (5, 3), (6, 2, 1, 3)),
    (3, (4, 6, 1), (2, 5, 3)),
    (3, (2, 5, 6), (1, 4, 3, 6, 2)),
    (3, (3, 1, 6, 4), (5, 2, 4, 1)),
    (3, (5,), (6, 3, 1, 2, 4)),
    (5, (4,), (1, 6, 3)),
    (5, (2, 6), (5,)),
    (5, (6, 3), (2, 4, 1, 5)),
    (5, (1, 5, 4), (3,)),
    (5, (3, 5), (6, 1, 2, 4, 3, 5)),
    (5, (6,), (2, 3, 1, 5, 4, 6, 1)),
)
TATE_COPIES = 8


def _unimodular(rng, m):
    """Random L·U with L, U unit triangular, and its exact integer inverse."""
    L = [[1 if i == j else (rng.randrange(-3, 4) if j < i else 0) for j in range(m)] for i in range(m)]
    U = [[1 if i == j else (rng.randrange(-3, 4) if j > i else 0) for j in range(m)] for i in range(m)]

    def tri_inverse(A, lower):
        inv = [[0] * m for _ in range(m)]
        order = range(m) if lower else range(m - 1, -1, -1)
        for col in range(m):
            for i in order:
                acc = 1 if i == col else 0
                acc -= sum(A[i][j] * inv[j][col] for j in range(m) if j != i and A[i][j])
                inv[i][col] = acc
        return inv

    def mul(A, B):
        return [[sum(A[i][t] * B[t][j] for t in range(m)) for j in range(m)] for i in range(m)]

    return mul(L, U), mul(tri_inverse(U, False), tri_inverse(L, True))


def _tate_module(rng, p, free, trivial):
    """Build (invariant factors, tau, J, oracle) for one shape; the oracle
    is a thunk returning the expected result of every operation.

    tau is a permutation on each free block and 1 on each trivial block,
    J is ±1 per block; both are then conjugated by a random unimodular
    matrix inside each group of generators with equal invariant factor.
    """
    blocks = [("free", p**e, rng.choice((1, -1))) for e in free]
    blocks += [("trivial", p**e, rng.choice((1, -1))) for e in trivial]
    gens = [(q, b, i) for b, (kind, q, _) in enumerate(blocks) for i in range(p if kind == "free" else 1)]
    gens.sort(key=lambda g: -g[0])
    k = len(gens)
    index = {(b, i): j for j, (_, b, i) in enumerate(gens)}
    tau = [[0] * k for _ in range(k)]
    J = [[0] * k for _ in range(k)]
    for j, (q, b, i) in enumerate(gens):
        kind, _, sign = blocks[b]
        tau[index[(b, (i + 1) % p)] if kind == "free" else j][j] = 1
        J[j][j] = sign
    factors = [q for q, _, _ in gens]
    P = [[int(i == j) for j in range(k)] for i in range(k)]
    Pinv = [row[:] for row in P]
    for q in sorted(set(factors)):
        group = [j for j in range(k) if factors[j] == q]
        A, Ainv = _unimodular(rng, len(group))
        for a, ja in enumerate(group):
            for b, jb in enumerate(group):
                P[ja][jb], Pinv[ja][jb] = A[a][b], Ainv[a][b]

    def conj(X):
        PX = [[sum(P[i][t] * X[t][j] for t in range(k) if X[t][j]) for j in range(k)] for i in range(k)]
        return [[sum(PX[i][t] * Pinv[t][j] for t in range(k)) % factors[i] for j in range(k)] for i in range(k)]

    return tuple(factors), conj(tau), conj(J), lambda: _tate_expectation(p, blocks, len(trivial))


def _tate_expectation(p, blocks, trivial_count):
    # Free blocks are cohomologically trivial; a trivial block Z/q gives
    # Z/p in both Tate degrees, Z/q fixed and coinvariant, q/p as norms.
    def desc(qs):
        return sorted((q for q in qs if q > 1), reverse=True)

    return {
        "fixed_points": desc(q for _, q, _ in blocks),
        "norm_image": desc(q if kind == "free" else q // p for kind, q, _ in blocks),
        "tate_h0": [p] * trivial_count,
        "tate_hm1": [p] * trivial_count,
        "minus_part": desc(q for kind, q, sign in blocks if sign == -1
                           for _ in range(p if kind == "free" else 1)),
        "herbrand_check": True,
        "coinvariants": desc(q for _, q, _ in blocks),
    }


TATE_OPS = ("fixed_points", "norm_image", "tate_h0", "tate_hm1", "minus_part", "herbrand_check", "coinvariants")


def _tate_job(name, module, expect):
    def execute(ac) -> Outcome:
        got = {
            "fixed_points": ac.fixed_points(module, "tau"),
            "norm_image": ac.norm_image(module, "tau"),
            "tate_h0": ac.tate_h0(module, "tau"),
            "tate_hm1": ac.tate_hm1(module, "tau"),
            "minus_part": ac.minus_part(module, "J"),
            "herbrand_check": ac.herbrand_check(module, "tau"),
            "coinvariants": ac.coinvariants(module, "tau"),
        }
        value = {op: r if isinstance(r, bool) else list(r.invariant_factors) for op, r in got.items()}
        return Outcome(0, json.dumps(value, sort_keys=True) + "\n", value=value)

    def check(outcome: Outcome) -> list:
        expected = expect()
        return [f"{op}: got {outcome.value[op]}, expected {expected[op]}"
                for op in TATE_OPS if outcome.value[op] != expected[op]]

    return Job(name, execute, check)


def tate_modules(rng: random.Random, workdir: Path, ac) -> list:
    jobs = []
    for copy in range(TATE_COPIES):
        for p, free, trivial in TATE_SHAPES:
            factors, tau, J, expect = _tate_module(rng, p, free, trivial)
            module = ac.FinitePModule(p, factors, actions={"tau": tau, "J": J}, orders={"tau": p})
            jobs.append(_tate_job(f"tate p={p} free={free} trivial={trivial} #{copy}", module, expect))
    return jobs


#: Each workload runs two job groups.  Every traced layer works in one of
#: them and the other is its bypass: metacyclic runs only in ``lemmas``,
#: cohomology and the layer growth only in ``invariants``.
WORKLOADS = {
    "lemmas": (lemma1_grid, lemma2_campaign),
    "invariants": (growth_towers, tate_modules),
}


def build(workload: str, seed: int, workdir: Path, ac) -> list:
    """The job list of ``workload`` for ``seed``, in seeded order; input
    files go to ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = [job for group in WORKLOADS[workload] for job in group(rng, workdir, ac)]
    rng.shuffle(jobs)
    return jobs
