"""Quotients by the violating ideal: graded Hom tables certified against
the quantum side, standard modules, and a block that is visibly a 3x3
matrix algebra.
"""

from tensoralg.cartan import default_q_matrix, sl2
from tensoralg.cyclotomic import BlockComputer, QuotientBlock
from tensoralg.modules import radical, simples
from tensoralg.standard import standard_dims, standard_filtration_check

d = sl2()
comp = BlockComputer(d, default_q_matrix(d), (d.weight((1,)), d.weight((1,))))

for n, label in [(0, "+2"), (1, "0"), (2, "-2")]:
    table = comp.graded_hom_table(d.root((n,)))
    print(f"weight {label}: total dim {table.total_at_1()}")
    for (a, b), v in sorted(table.entries.items()):
        if not v.is_zero():
            print(f"   {table.idem_label(a):16} -> {table.idem_label(b):16} {v.text()}")

# Standard modules: Hom(P_J, S^κ_I) matches <v_J, s^κ_I> at every degree.
keys = comp.idems(d.root((1,)))
print("\nstandard-module columns:")
for key in keys:
    for col in keys:
        print(f"   S{key[1]} vs P{col[1]}: {standard_dims(comp, key, col).text()}")

ok, cert = standard_filtration_check(comp, ((0,), (0, 0)))
print("filtration certificate:", ok, "|", cert["sign_convention"])

# The weight −2 block is End(K^3): semisimple with one 3-dim simple.
blk = QuotientBlock(comp, d.root((2,)))
print(f"\nweight -2 block: dim {blk.dim}, radical {len(radical(blk))}")
for s in simples(blk):
    print("   simple of dim", s.dim, "graded char", s.graded_char().text())
