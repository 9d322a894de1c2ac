"""The crystal operator f̃_i, read off the last letters of the simples'
characters (ε_i and ẽ_i^max), and the degenerate cyclotomic Hecke algebra
as an independent type-A referee.
"""

from tensoralg.cartan import default_q_matrix, sl2
from tensoralg.cyclotomic import BlockComputer, QuotientBlock
from tensoralg.hecke import HeckeAlgebra, bk_check, weight_idempotents
from tensoralg.modules import crystal_f, simples

d = sl2()
lam = d.weight((2,))
comp = BlockComputer(d, default_q_matrix(d), (lam,))

blocks = {n: QuotientBlock(comp, d.root((n,))) for n in range(4)}
sims = {n: (simples(blocks[n]) if blocks[n].dim else []) for n in range(4)}

print("crystal string through B(2):")
node = sims[0][0]
n = 0
while node is not None:
    print(f"   weight {2 - 2 * n}: simple of dim {node.dim}")
    if n + 1 >= 4 or not blocks[n + 1].dim:
        break
    node = crystal_f(sims[n], 0, sims[n + 1])[0]
    n += 1

# The cyclotomic degenerate affine Hecke algebra at level 2.
H = HeckeAlgebra(d, lam, 2)
print(f"\nH^λ_2: dim {H.dim()} = N^d d! = {H.level}^2 · 2!")
ids = weight_idempotents(H)
print("eigenvalue sequences:", sorted(ids))

dims = {}
for a in comp.idems(d.root((2,))):
    for b in comp.idems(d.root((2,))):
        dims[(a[0], b[0])] = comp.graded_hom(a, b).eval_at_1()
rep = bk_check(H, d, lam, dims)
print("dot-relation and dimension certificate:", rep["ok"])
for k, v in rep["dims"].items():
    print("   block", k, v)
