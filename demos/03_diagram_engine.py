"""The straightening engine: relations in action, with the polynomial
representation as an independent referee.
"""

import random

from tensoralg.cartan import default_q_matrix, sl2, type_a
from tensoralg.diagrams import DiagramAlgebra, Element, basis_enumerate, diagram_text, idem_key
from tensoralg.polyrep import module_axiom_holds, random_poly

d = sl2()
alg = DiagramAlgebra(d, default_q_matrix(d), (d.weight((2,)),))

# The cost of separating a black strand from a red of weight 2ω: two dots.
bigon = Element.from_word(alg, (0,), (1,), [("s", 0), ("s", 0)])
print("red/black bigon:", bigon)

# Same-label double crossings die; dot slides leave ±1 corrections.
psi = Element.from_word(alg, (0, 0), (0,), [("s", 1)])
print("ψ² =", psi.multiply(psi))
lhs = Element.from_word(alg, (0, 0), (0,), [("s", 1), ("y", 1)])
rhs = Element.from_word(alg, (0, 0), (0,), [("y", 2), ("s", 1)])
print("ψ·y_1 − y_2·ψ =", lhs - rhs)

# Every product is checkable against the faithful polynomial action.
a2 = type_a(2)
alg2 = DiagramAlgebra(a2, default_q_matrix(a2), (a2.weight((1, 1)),))
rng = random.Random(0)
pool = []
for I in [(0, 1, 0), (0, 0, 1), (1, 0, 0)]:
    e = idem_key(I, (0,))
    for d in range(-4, 7):
        pool += basis_enumerate(alg2, e, e, d)
x = Element(alg2, {rng.choice(pool): 1})
y = Element(alg2, {rng.choice(pool): 1})
print("\na random product, straightened:")
for key, c in x.multiply(y).terms.items():
    print("  ", c, diagram_text(alg2, key))
f = random_poly(alg2, alg2.top_idem(*list(y.terms)[0][:2]), rng)
print("module axiom holds:", module_axiom_holds(alg2, x, y, f))
