"""The decategorified oracle: tensor products, E/F actions, the form.

The vectors v^κ_I predict every graded Hom dimension of the diagram
side; s^κ_I are the pure tensors the standard modules decategorify to.
"""

from tensoralg.cartan import sl2
from tensoralg.qtensor import TensorSpace
from tensoralg.standard import apply_f, s_in_v, vkappa, weight_dim

d = sl2()
omega = d.fundamental_weight(0)
sp = TensorSpace(d, (omega, omega))

# Coproduct action: Δ(F)(v ⊗ v) picks up q-powers from the K-twist.
v = apply_f(sp, 0, sp.highest())
print("F(v⊗v) =", v)

# The distinguished spanning vectors of the weight-0 space.
a = ((0,), (0, 0))  # one letter, applied after both factors attach
b = ((0,), (0, 1))  # one letter, inside the first factor
print("v^κ for κ=(0,0):", vkappa(sp, *a))
print("v^κ for κ=(0,1):", vkappa(sp, *b))

# The inner product: these are exactly the graded dims of the
# five-dimensional weight-0 block of the diagram algebra.
print("\nGram matrix of the weight-0 spanning vectors:")
for x in (a, b):
    print("  ", [sp.form_vv(x, y).text() for y in (a, b)])

# Pure tensors expand in v's by inverting the standardization identity.
print("\ns^{(0,0)} in the v-basis:",
      {k: c.text() for k, c in s_in_v(sp, (0,), (0, 0)).items()})

# Weight multiplicities come from exact Gram ranks (radical quotient).
for mu in (2, 0, -2):
    print(f"dim V(ω)⊗V(ω) at weight {mu}:", weight_dim(sp, d.weight((mu,))))
