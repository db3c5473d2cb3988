"""Tate cohomology of a finite cyclic action, with minus parts.

All subquotients come from the local-ring Smith normal form mod p^E, p^E
the largest invariant factor, on the relation and action lattices; for
finite modules the degree-0 and degree-(-1) groups always have the same
size (Herbrand), which makes a sharp self-check.
"""

from anticyclo import (
    FinitePModule,
    fixed_points,
    herbrand_check,
    minus_part,
    norm_image,
    tate_h0,
    tate_hm1,
)

# the worked example: Z/9 with tau acting as multiplication by 4
M = FinitePModule(3, (9,), actions={"tau": [[4]]}, orders={"tau": 3})
print("module Z/9, tau = mult-by-4 (order 3)")
print("fixed points:   ", fixed_points(M, "tau").invariant_factors)
print("norm image:     ", norm_image(M, "tau").invariant_factors)
print("Tate H^0:       ", tate_h0(M, "tau").invariant_factors, "(fixed points = norms)")
print("Tate H^-1:      ", tate_hm1(M, "tau").invariant_factors, "(norm kernel = augmentation image)")
print("Herbrand check: ", herbrand_check(M, "tau"))

# a trivial action leaves everything fixed and the norm is multiplication by the order
T = FinitePModule(3, (27,), actions={"tau": [[1]]}, orders={"tau": 3})
print("\nmodule Z/27, trivial tau of order 3")
print("Tate H^0:", tate_h0(T, "tau").invariant_factors, " H^-1:", tate_hm1(T, "tau").invariant_factors)

# minus parts of an involution: the idempotent (1-J)/2 splits the module
X = FinitePModule(3, (9, 3), actions={"J": [[1, 0], [0, -1]]})
minus = minus_part(X)
print("\nmodule Z/9 + Z/3 with J = diag(+1, -1)")
print("minus part:", minus.invariant_factors)
print("taking the minus part twice:", minus_part(minus).invariant_factors)
print("plus and minus sizes multiply to the whole:",
      (X.size() // minus.size()) * minus.size() == X.size())
