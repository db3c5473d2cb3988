"""Automorphisms of the metacyclic groups G(p, u) in closed form.

G(p, u) is cyclic p^(u+1) extended by cyclic p with the action
x -> x^(1+p^u).  Its automorphisms are x -> x^a·tau^c,
tau -> x^(b·p^u)·tau with p ∤ a (Bidwell–Curran), each one certified
against the defining relations.  The structural fact this package
mechanizes: no automorphism can send tau to an element of A1·tau^-1,
because the relations force (e - 1)·a ≡ 0 mod p on a tau-image
x^(b·p^u)·tau^e.  Its consequence: if the degree-p layer of a suitable
tower had cyclic p-part, conjugation by the complex involution would be
exactly such an automorphism, so the p-part cannot be cyclic.
"""

from anticyclo import FinitePModule, MetacyclicGroup, theorem2_cyclic_obstruction

for p, u in [(3, 1), (3, 2), (5, 1), (7, 1)]:
    G = MetacyclicGroup(p, u)
    autos = G.enumerate_automorphisms()
    witness = G.find_inverting_automorphism()
    tau_cosets = {img.image_tau[1] for img in autos}
    print(
        f"G({p},{u}): order {G.order:4d}, {len(autos):4d} automorphisms, "
        f"tau-image cosets {sorted(tau_cosets)}, inverting witness: {witness}"
    )

print("\nevery tau-image lands in A1·tau^1: the inverse coset is unreachable.")

# the same fact through the module-level interface: a cyclic group of
# order p^(u+1) with a nontrivial order-p action admits no such twist
A1 = FinitePModule(3, (9,), actions={"tau": [[4]]}, orders={"tau": 3})
verdict = theorem2_cyclic_obstruction(A1)
print(f"\ncyclic A1 = Z/9 with tau = mult-by-4: obstruction holds? {verdict.holds}")
