"""tensoralg: an exact workbench for red/black strand diagram algebras.

The package computes, at desk scale and in exact arithmetic:

* the strand algebras attached to a symmetrizable Cartan datum, a choice
  of Q-matrix and a sequence of dominant weights, via a terminating
  straightening engine with a faithful polynomial-representation oracle;
* their quotients by the violating-strand ideal, graded Hom tables,
  standard modules and structure constants of finite blocks;
* the quantum-group side (tensor products of highest-weight modules,
  coproduct actions, the move-across inner product) used as the
  independent prediction for every graded dimension;
* module theory over computed blocks (radical, simples and their
  characters, the crystal operator f̃_i read off the characters' last
  letters) and the degenerate cyclotomic Hecke comparison in type A.
"""

from .cartan import CartanDatum, QMatrix, Weight, RootVector, default_q_matrix
from .cyclotomic import BlockComputer, IntegrityError, QuotientBlock
from .diagrams import DiagramAlgebra, Element
from .laurent import LaurentPoly, qint
from .qtensor import GradedHomTable, TensorSpace, TensorVector

__all__ = [
    "CartanDatum",
    "QMatrix",
    "Weight",
    "RootVector",
    "default_q_matrix",
    "LaurentPoly",
    "qint",
    "TensorSpace",
    "TensorVector",
    "GradedHomTable",
    "DiagramAlgebra",
    "Element",
    "BlockComputer",
    "QuotientBlock",
    "IntegrityError",
]
