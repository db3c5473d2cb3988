"""Layer growth of elementary Lambda-modules and the parity audit.

The size of E/omega_n·E grows like p^(lambda·n + mu·p^n + nu) once n is
large; the library measures the exponents exactly and recovers
(lambda, mu, nu) from the tail of the sequence.  The resultant's p-adic
valuation is a sum over the factors Phi_{p^k}(1+T) of omega_n: v_p(g(0))
at level 0, a Smith normal form over Z/p^K while phi(p^k) <= deg g (K
doubled from deg g + 1 while a pivot is zero, as at a tie level where a
root of g has valuation exactly 1/phi(p^k)), and deg g at every later
level, because the roots of a distinguished g have valuation >= 1/deg g.
On matrix models carrying an intertwined torsion exponent of order d, the rank r
satisfies r = s mod d, where s is the T-multiplicity of the
characteristic polynomial of (generator - 1).
"""

from anticyclo import (
    ElementaryLambdaModule,
    build_gamma_model,
    coinvariants,
    fit_invariants,
    invariants_of,
    layer_exponents,
    parity_audit,
    t_multiplicity,
)

module = ElementaryLambdaModule(3, mu_parts=(1,), poly_parts=((-3, 1), (9, 3, 1)))
print("module: Lambda/(3) + Lambda/(T-3) + Lambda/(T^2+3T+9)")
print("structural (lambda, mu):", invariants_of(module))

exponents = layer_exponents(module, 6)
print("\n n | e_n")
for n, e in enumerate(exponents):
    print(f" {n} | {e}")

fit = fit_invariants(exponents, 3)
print(f"\nfit: lambda={fit.lam} mu={fit.mu} nu={fit.nu} stable from layer {fit.stable_from}")

# parity on matrix models: one order-2 orbit plus a T-block of size 1
model = build_gamma_model(3, 6, d=2, orbit_count=1, t_block=1)
print(f"\nmodel: r = {model.M.dim}, certified T-block = {model.t_block}")
print("T-multiplicity s =", t_multiplicity(model.M, model.t_block))
print("parity audit:", parity_audit(model), f"(r - s = {model.M.dim - 1} is a multiple of d = 2)")

# coinvariants of the generator action: the layer-0 class group analogue
print("\ncoinvariants of the orbit model:",
      coinvariants(build_gamma_model(3, 6, d=2, orbit_count=1)).invariant_factors)
