"""Growth invariants of elementary Lambda-modules and parity audits of
matrix models of the Galois action on a tower.

Layer sizes: for E = ⊕ Λ/(p^mu_i) ⊕ ⊕ Λ/(g_j) the quotient by
omega_n = (1+T)^(p^n) - 1 has p-exponent sum(mu_i·p^n) plus the p-adic
valuation of the resultant of g_j and omega_n.  omega_n is the product
of the Phi_{p^k}(1+T), k <= n, so the latter is a sum of per-level terms:
v_p(g(0)) at level 0, a local-ring Smith normal form of multiplication by
Phi_{p^k}(1+T) on (Z/p^K)[T]/(g) while phi(p^k) <= deg g (K doubled from
deg g + 1 until every pivot is nonzero, which only a tie level needs),
and deg g at every later level.  Whether the quotient is finite at all is
decided by exact division over Z.

Parity audits: a GammaModel packages the action matrix of a topological
generator on a free rank-r quotient, an intertwining matrix for an
order-d torsion exponent, and the certified size of its generalized
1-eigenblock.  When the model's invariants hold, r minus the T-multiplicity
of the characteristic polynomial of (generator - 1) is a multiple of d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cohomology import FinitePModule
from .errors import ModelInvariantError, PrecisionError, UndeterminedError
from .linalg import (
    PadicMatrix,
    charpoly,
    intertwiner_solve,
    mat_pow_zeta,
    orbit_block_construct,
    zeta_order,
)
from .padic import PadicExponent, PadicInt, require_odd_prime, teichmuller, valuation
from .poly import cyclotomic_factor, poly_mod_monic
from .snf import cokernel_mod, det_nonzero_mod, minus_identity, smith_normal_form_mod_prime_power

#: Largest degree of a polynomial factor whose layer exponents are
#: computed.  Each level k with phi(p^k) <= deg g needs a local-ring SNF of
#: a deg g × deg g matrix, and p = 3 has the most such levels: to layer 8,
#: T^200 + 3 takes 2.7 s and T^400 + 3 10.3 s (26 MB) on one core of an
#: Intel Xeon, T^500 + 3 206 s (level 6 joins at phi(3^6) = 486), and
#: T^10000 + 3 runs out of memory.
MAX_POLY_DEGREE = 400


# ----------------------------------------------------------------------
# elementary Lambda-modules and their layer growth
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ElementaryLambdaModule:
    """⊕ Λ/(p^mu_i) ⊕ ⊕ Λ/(g_j) with each g_j distinguished.

    poly_parts holds ascending integer coefficient tuples; distinguished
    means monic of degree >= 1 with all lower coefficients divisible by p.
    """

    p: int
    mu_parts: tuple[int, ...] = ()
    poly_parts: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        require_odd_prime(self.p)
        object.__setattr__(self, "mu_parts", tuple(int(m) for m in self.mu_parts))
        object.__setattr__(
            self, "poly_parts", tuple(tuple(int(c) for c in g) for g in self.poly_parts)
        )
        for m in self.mu_parts:
            if m < 1:
                raise ValueError("mu-part exponents must be positive")
        for g in self.poly_parts:
            if len(g) < 2 or g[-1] != 1:
                raise ValueError(f"{list(g)} is not monic of degree >= 1")
            if any(c % self.p for c in g[:-1]):
                raise ValueError(f"{list(g)} is not distinguished: lower coefficients must be ≡ 0 mod {self.p}")


def invariants_of(module: ElementaryLambdaModule) -> tuple[int, int]:
    """(lambda, mu) read off the structure: total degree and total p-exponent."""
    lam = sum(len(g) - 1 for g in module.poly_parts)
    mu = sum(module.mu_parts)
    return lam, mu


def _last_level(deg: int, p: int) -> int:
    """The last level k with deg Phi_{p^k}(1 + T) = phi(p^k) <= deg, or 0
    when there is none: levels 1..k are those whose terms need an SNF."""
    k = 0
    while (p - 1) * p**k <= deg:
        k += 1
    return k


def _level_terms(g, p: int):
    """Yield c_k = v_p(Res(g, Phi_{p^k}(1 + T))) for k = 0, 1, ... while
    k = 0 or phi(p^k) <= deg g; None for a level whose factor divides g.

    The quotient is infinite exactly when a factor divides g; both are
    monic, so exact division over Z decides it.  c_0 = v_p(g(0)), since
    Res(g, T) = ±g(0).  While phi(p^k) <= deg g, c_k is the sum of the
    pivot valuations of the local-ring SNF of multiplication by
    Phi_{p^k}(1 + T) on (Z/p^K)[T]/(g): a nonzero pivot p^v (v < K) is the
    exact p-part of an integer invariant factor.  K = deg g + 1 suffices
    unless a root of g has valuation exactly 1/phi(p^k); at such a tie c_k
    is unbounded (c_1 = 6 for T^2 + 3T + 30 at p = 3), so K doubles until
    every pivot is nonzero.  Every later c_k is deg g: the Newton polygon
    of a distinguished g has every slope >= 1/deg g > 1/phi(p^k) = v(ζ - 1),
    so each root α of g has Σ_ζ v(α - (ζ - 1)) = phi(p^k)·(1/phi(p^k)) = 1.
    """
    deg = len(g) - 1
    yield valuation(g[0], p) if g[0] else None
    for k in range(1, _last_level(deg, p) + 1):
        phi = cyclotomic_factor(p, k)
        if not any(poly_mod_monic(g, phi)):
            yield None
        else:
            w = poly_mod_monic(phi, g)
            # row i holds Phi·T^i mod g: the transpose of the multiplication
            # matrix, which has the same invariant factors
            rows = [poly_mod_monic([0] * i + w, g) for i in range(deg)]
            K = deg + 1
            while not all(diag := smith_normal_form_mod_prime_power(rows, p, K, None)[0]):
                K *= 2
            yield sum(valuation(pivot, p) for pivot in diag)  # each pivot is exactly p^v


def _not_finite(g, n: int) -> ValueError:
    return ValueError(f"quotient not finite at level {n}: {list(g)} shares a root with omega_{n}")


def layer_exponents(module: ElementaryLambdaModule, n_max: int) -> list[int]:
    """[e_0, ..., e_(n_max)] with |E/omega_n·E| = p^(e_n), additive over
    the factors.  Each level term is computed once: e_n = e_(n-1) + Σ_g c_n(g)
    in the polynomial part, c_n(g) = deg g past the levels ``_level_terms``
    yields.  The first layer with an infinite quotient raises, naming it,
    and so does a factor of degree above MAX_POLY_DEGREE, before any level."""
    if n_max < 0:
        raise ValueError("layer index must be non-negative")
    for i, g in enumerate(module.poly_parts, 1):
        if len(g) - 1 > MAX_POLY_DEGREE:
            raise ValueError(
                f"polynomial factor {i} has degree {len(g) - 1}, above the bound "
                f"MAX_POLY_DEGREE = {MAX_POLY_DEGREE} on the layer computation"
            )
    p, mu = module.p, sum(module.mu_parts)
    parts = [(g, _level_terms(g, p)) for g in module.poly_parts]
    exponents = []
    e = 0
    mu_pn = mu  # mu·p^n, kept running so that no layer recomputes p^n
    for n in range(n_max + 1):
        for g, terms in parts:
            c = next(terms, len(g) - 1)
            if c is None:
                raise _not_finite(g, n)
            e += c
        exponents.append(mu_pn + e)
        mu_pn *= p
    return exponents


def stable_level(module: ElementaryLambdaModule) -> int:
    """K with e_n = lambda·n + mu·p^n + nu for every n >= K: 0, or the
    last level k with phi(p^k) <= max deg g, the last one ``_level_terms``
    computes; every later level adds deg g for each g.  So
    ``fit_invariants`` succeeds on layers 0..n_max once n_max >= K + 2
    (and n_max >= 3, its minimum)."""
    return _last_level(max((len(g) - 1 for g in module.poly_parts), default=0), module.p)


@dataclass(frozen=True)
class IwasawaInvariants:
    lam: int
    mu: int
    nu: int
    stable_from: int


def fit_invariants(exponents: Sequence[int], p: int) -> IwasawaInvariants:
    """Recover (lambda, mu, nu, n0) from a tail of e_n = lambda·n + mu·p^n + nu.

    mu comes from the last second difference measured against p^n, lambda
    from the last first difference with the mu-term removed, nu as the
    anchored residual; stable_from is the first index from which the
    formula matches the data all the way to the end.
    """
    e = [int(x) for x in exponents]
    L = len(e)
    if L < 4:
        raise ValueError("need at least 4 layer exponents to fit")
    d = [e[i + 1] - e[i] for i in range(L - 1)]
    dd = d[-1] - d[-2]
    denom = p ** (L - 3) * (p - 1) ** 2
    if dd % denom:
        raise ValueError("not eventually of Iwasawa shape: second differences do not match any mu")
    mu = dd // denom
    lam = d[-1] - mu * p ** (L - 2) * (p - 1)
    nu = e[-1] - lam * (L - 1) - mu * p ** (L - 1)
    if mu < 0 or lam < 0:
        raise ValueError("not eventually of Iwasawa shape: fitted invariants are negative")

    # nu, lam and mu make layers L-1, L-2 and L-3 hold by construction;
    # walking down, mu_pn is mu·p^(stable-1), divided by p at each step
    stable = L - 3
    mu_pn = mu * p ** (stable - 1)
    while stable > 0 and lam * (stable - 1) + mu_pn + nu == e[stable - 1]:
        stable -= 1
        mu_pn //= p
    return IwasawaInvariants(lam, mu, nu, stable)


# ----------------------------------------------------------------------
# matrix models of the tower action
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GammaModel:
    """Action data on a free rank-r quotient at precision, checked when
    built: a model that violates an invariant raises ModelInvariantError.

    M is the matrix of the topological generator, ≡ I mod p; D, when
    present, is invertible and intertwines M^zeta with M; t_block is the
    certified size of the identity block built into M (its generalized
    eigenvalue-1 part), None when nothing was certified at construction.
    """

    M: PadicMatrix
    D: Optional[PadicMatrix]
    zeta: PadicExponent
    t_block: Optional[int] = None

    def __post_init__(self):
        M, D = self.M, self.D
        zeta_order(self.zeta, M.p)  # raises unless zeta is a root of unity at p
        if any(x % M.p for row in minus_identity(M.rows) for x in row):
            raise ModelInvariantError("model invariant violated: generator matrix is not ≡ I mod p")
        if self.t_block is not None and not 0 <= self.t_block <= M.dim:
            raise ModelInvariantError("model invariant violated: certified block size out of range")
        if D is not None:
            if (D.p, D.precision, D.dim) != (M.p, M.precision, M.dim):
                raise ModelInvariantError("model invariant violated: D incompatible with M")
            if not det_nonzero_mod(D.rows, M.p, 1):
                raise ModelInvariantError("model invariant violated: D is not invertible")
            if mat_pow_zeta(M, self.zeta) @ D != D @ M:
                raise ModelInvariantError("model invariant violated: D does not intertwine M^zeta with M")

    @property
    def d(self) -> int:
        """The order of zeta."""
        return zeta_order(self.zeta, self.M.p)


def default_zeta(p: int, precision: int, d: int) -> PadicExponent:
    """A canonical exponent of exact order d: -1 for d = 2, else the
    Teichmuller lift of the least residue of order d.  Orders are read
    mod p, and only the chosen residue is lifted to precision N."""
    if d < 1:
        raise ValueError(f"the order d must be a positive integer, got {d}")
    if d == 1:
        return 1
    if d == 2:
        return -1
    if (p - 1) % d != 0:
        raise ValueError(f"no exponent of order {d} exists for p = {p}")
    for a in range(2, p):
        if zeta_order(PadicInt(p, 1, a), p) == d:
            return teichmuller(a, p, precision)
    raise ValueError(f"no residue of order {d} mod {p}")  # unreachable for d | p-1


def build_gamma_model(
    p: int,
    precision: int,
    d: int,
    orbit_count: int,
    t_block: int = 0,
    zeta: PadicExponent | None = None,
    seeds: Sequence[int] | None = None,
) -> GammaModel:
    """Assemble a model with orbit_count full eigenvalue orbits plus an
    identity block of size t_block; dimension is d·orbit_count + t_block.
    d must be the order of zeta when zeta is given."""
    if orbit_count < 0 or t_block < 0 or orbit_count + t_block == 0:
        raise ValueError("need a non-empty model")
    if zeta is None:
        zeta = default_zeta(p, precision, d)
    elif zeta_order(zeta, p) != d:
        raise ValueError(f"incompatible d: exponent does not have order {d}")
    blocks_m = []
    blocks_d = []
    if orbit_count:
        M_orb, D_orb = orbit_block_construct(p, precision, orbit_count, zeta, seeds)
        blocks_m.append(M_orb)
        blocks_d.append(D_orb)
    if t_block:
        ident = PadicMatrix.identity(p, precision, t_block)
        blocks_m.append(ident)
        blocks_d.append(ident)
    M = PadicMatrix.block_diag(blocks_m)
    D = PadicMatrix.block_diag(blocks_d)
    return GammaModel(M, D, zeta, t_block=t_block)


def _peel(rows) -> int:
    """Number of vertices deleted by deleting sinks until none is left in
    the digraph with an edge j -> i when rows[i][j] != 0 (a loop when
    i = j): those from which no cycle can be reached."""
    live = set(range(len(rows)))
    while sinks := {j for j in live if not any(rows[i][j] for i in live)}:
        live -= sinks
    return len(rows) - len(live)


def t_multiplicity(M: PadicMatrix, certified_t_block: Optional[int] = None) -> int:
    """Multiplicity of T in the characteristic polynomial of (M - I).

    Trailing coefficients that vanish mod p^N are only trusted when the
    caller certifies the constructed block size, or when a coordinate set
    S with |S| = s_obs (the observed count) certifies them structurally:
    span(e_S) ("upper") or the span of the other coordinates ("lower") is
    invariant under A = M - I, and the support digraph of A (edge j -> i
    when A[i][j] != 0, a loop for a nonzero diagonal entry) has no cycle
    inside S.  Otherwise the vanishing is indistinguishable from a
    precision artifact and a PrecisionError asks for a larger N.

    Fact 1: the union of two such sets of one direction is another, and a
    cycle through a closed S stays inside S; so the largest upper set
    S_up is the set of vertices from which no cycle can be reached
    (deleting sinks until none is left), and the largest lower set S_low
    the set of vertices no cycle can reach (deleting sources).
    Fact 2: A[S, S] is nilpotent, so charpoly(A) = T^|S|·charpoly(A[rest, rest])
    over Z for the lift of the residues, and |S| <= |S_up| <= s_obs (or
    |S| <= |S_low| <= s_obs); a certificate with |S| = s_obs is therefore
    S_up or S_low itself.
    Fact 3: coefficient s_obs of charpoly(A) is then ±det A[rest, rest],
    nonzero mod p^N by the choice of s_obs, so the complement needs no
    separate determinant test.
    """
    shift = minus_identity(M.rows)
    s_obs = next(i for i, c in enumerate(charpoly(shift, M.modulus)) if c)
    if certified_t_block is not None:
        if s_obs < certified_t_block:
            raise ModelInvariantError(
                f"model invariant violated: certified T-block of size {certified_t_block} "
                f"but coefficient {s_obs} is nonzero at precision"
            )
        if s_obs > certified_t_block:
            raise PrecisionError(
                f"indistinguishable from zero at precision N={M.precision} - raise N: "
                f"{s_obs} trailing coefficients vanish but only {certified_t_block} are certified"
            )
        return s_obs
    if s_obs == 0 or s_obs in (_peel(shift), _peel(tuple(zip(*shift)))):
        return s_obs
    raise PrecisionError(
        f"indistinguishable from zero at precision N={M.precision} - raise N: "
        f"{s_obs} trailing coefficients vanish without structural certification; "
        f"no N certifies a T-block hidden by a change of basis, declaring t_block = {s_obs} does"
    )


def parity_audit(model: GammaModel) -> str:
    """Check r ≡ s mod d on a model, which checked its invariants when it
    was built; the expected verdict is always "consistent", and a
    "violation" reports a bug, never math."""
    M = model.M
    if model.D is None:
        found = intertwiner_solve(M, model.zeta)
        if found.status == "undetermined":
            raise UndeterminedError("cannot establish the intertwining hypothesis for this model")
        if found.status == "none":
            raise ModelInvariantError(
                "model invariant violated: no invertible intertwiner exists, "
                "the model does not realize the exponent"
            )
    s = t_multiplicity(M, model.t_block)
    return "consistent" if (M.dim - s) % model.d == 0 else "violation"


# ----------------------------------------------------------------------
# coinvariants
# ----------------------------------------------------------------------

def coinvariants(
    module: Union[FinitePModule, GammaModel], action: str = "tau"
) -> FinitePModule:
    """X/(action - 1)X as an invariant-factor list.

    For a FinitePModule the named action is used, read mod p^E with p^E
    the largest invariant factor; it was checked at construction, so
    action - 1 is well defined and skips the check of ``cokernel``.  For a GammaModel the generator matrix
    acts on (Z/p^N)^r; the quotient is only reported when it is
    certifiably finite at precision (no factor hits p^N).
    """
    if isinstance(module, GammaModel):
        M = module.M
        invs = cokernel_mod(minus_identity(M.rows), M.p, M.precision)
        if M.modulus in invs:
            raise PrecisionError(
                "raise precision: coinvariants are not certifiably finite at this N"
            )
        return FinitePModule(M.p, invs)
    return FinitePModule(module.p, module._cokernel(minus_identity(module.action(action))))
