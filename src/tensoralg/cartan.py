"""Root and weight combinatorics of a symmetrizable Kac-Moody algebra.

A :class:`CartanDatum` fixes the node set, the Cartan matrix ``c[i][j]`` and
symmetrizers ``d[i]``; weights are stored by their coroot pairings only.
The matrix of bivariate polynomials Q_ij that parametrizes the diagram
algebra lives here too, since its homogeneity constraints are pure Cartan
data.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence


class DatumMismatchError(ValueError):
    """Raised when vectors over different Cartan data are combined."""


class CartanDataError(ValueError):
    """Raised when input fails the symmetrizable-Cartan-matrix axioms."""


class _LatticeVector:
    """An immutable coordinate vector over a Cartan datum.

    Values compare and hash by (class, datum, coords), so a weight never
    equals a root vector with the same coordinates.
    """

    __slots__ = ("datum", "coords")
    _kind = "vector"

    def __init__(self, datum: "CartanDatum", coords: tuple[int, ...]):
        if len(coords) != datum.rank:
            raise DatumMismatchError(f"{self._kind} coordinate length != rank")
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.datum, self.coords) == (other.datum, other.coords)

    def __hash__(self):
        return hash((self.datum, self.coords))

    def __repr__(self):
        return f"{type(self).__name__}(datum={self.datum!r}, coords={self.coords!r})"

    def __add__(self, other):
        self.datum.require_same(other.datum)
        return type(self)(self.datum, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self.datum.require_same(other.datum)
        return type(self)(self.datum, tuple(a - b for a, b in zip(self.coords, other.coords)))


class Weight(_LatticeVector):
    """An integral weight, stored as the vector of coroot pairings λ^i."""

    __slots__ = ()
    _kind = "weight"

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]


class RootVector(_LatticeVector):
    """An element of the root lattice, by coefficients of the simple roots."""

    __slots__ = ()
    _kind = "root"

    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def height(self) -> int:
        return sum(self.coords)

    def letters(self) -> list[int]:
        """The black-strand labels of the content, in weakly increasing order."""
        return [i for i, m in enumerate(self.coords) for _ in range(m)]

    def to_weight(self) -> Weight:
        """The same lattice element in coroot-pairing coordinates."""
        d = self.datum
        coords = tuple(
            sum(self.coords[i] * d.cartan[i][j] for i in range(d.rank)) for j in range(d.rank)
        )
        return Weight(d, coords)


class CartanDatum:
    """Nodes, a symmetrizable Cartan matrix and its symmetrizers d_i."""

    def __init__(self, nodes: Sequence[str], cartan: Sequence[Sequence[int]], sym: Sequence[int]):
        self.nodes = tuple(str(x) for x in nodes)
        self.rank = len(self.nodes)
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        self.sym = tuple(int(x) for x in sym)
        self._validate()

    def _validate(self):
        n = self.rank
        if len(self.cartan) != n or any(len(r) != n for r in self.cartan):
            raise CartanDataError("Cartan matrix shape does not match node count")
        if len(self.sym) != n:
            raise CartanDataError("symmetrizer length does not match node count")
        if any(d <= 0 for d in self.sym):
            raise CartanDataError("symmetrizers must be positive")
        c, d = self.cartan, self.sym
        for i in range(n):
            if c[i][i] != 2:
                raise CartanDataError("diagonal Cartan entries must be 2")
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise CartanDataError("off-diagonal Cartan entries must be <= 0")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise CartanDataError("Cartan matrix zero pattern must be symmetric")
                if d[i] * c[j][i] != d[j] * c[i][j]:
                    raise CartanDataError("d_i c_ji = d_j c_ij fails; matrix not symmetrized by d")

    # -- identity ------------------------------------------------------------

    def require_same(self, other: "CartanDatum"):
        if self is other:
            return
        if not isinstance(other, CartanDatum) or (
            self.nodes != other.nodes or self.cartan != other.cartan or self.sym != other.sym
        ):
            raise DatumMismatchError("objects live over different Cartan data")

    def __eq__(self, other):
        return (
            isinstance(other, CartanDatum)
            and self.nodes == other.nodes
            and self.cartan == other.cartan
            and self.sym == other.sym
        )

    def __hash__(self):
        return hash((self.nodes, self.cartan, self.sym))

    def __repr__(self):
        return f"CartanDatum(nodes={list(self.nodes)})"

    # -- basic vectors ---------------------------------------------------------

    def weight(self, coords: Sequence[int]) -> Weight:
        return Weight(self, tuple(int(x) for x in coords))

    def root(self, coords: Sequence[int]) -> RootVector:
        return RootVector(self, tuple(int(x) for x in coords))

    def content(self, letters: Sequence[int]) -> RootVector:
        """The content Σ α_i of a sequence of black-strand labels."""
        return self.root([list(letters).count(i) for i in range(self.rank)])

    def simple_root(self, i: int) -> RootVector:
        return RootVector(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def zero_weight(self) -> Weight:
        return Weight(self, (0,) * self.rank)

    # -- the symmetrized inner product ----------------------------------------

    def pairing(self, a: Weight | RootVector, b: Weight | RootVector) -> int:
        """Symmetrized inner product <a,b>; <α_i, λ> = d_i λ^i."""
        self.require_same(a.datum)
        self.require_same(b.datum)
        aw = a if isinstance(a, RootVector) else None
        if aw is None and isinstance(b, RootVector):
            a, b = b, a
            aw = a
        if isinstance(a, RootVector):
            bw = b.to_weight() if isinstance(b, RootVector) else b
            return sum(
                a.coords[i] * self.sym[i] * bw.coords[i] for i in range(self.rank)
            )
        # Both are genuine weights: only needed through root-lattice shifts,
        # which is all the in-scope formulas use.
        raise DatumMismatchError(
            "pairing of two non-root weights is not defined by coroot pairings alone"
        )

    def root_pairing_coeff(self, i: int, lam: Weight) -> int:
        """<α_i, λ> = d_i λ^i without building a RootVector."""
        self.require_same(lam.datum)
        return self.sym[i] * lam.coords[i]

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"nodes": list(self.nodes), "cartan": [list(r) for r in self.cartan], "d": list(self.sym)}

    @staticmethod
    def from_json(data: Mapping) -> "CartanDatum":
        return CartanDatum(data["nodes"], data["cartan"], data["d"])


class QMatrix:
    """The matrix of polynomials Q_ij(u,v) entering the diagram relations.

    Entries are stored as ``{(uexp, vexp): coeff}`` maps for each ordered
    pair i != j; Q_ii = 0.  Validation enforces Q_ij(u,v) = Q_ji(v,u),
    homogeneity of degree -2 d_j c_ij under deg u = 2 d_i, deg v = 2 d_j,
    and a nonzero leading coefficient t_ij on u^{-c_ji}.
    """

    def __init__(self, datum: CartanDatum, entries: Mapping[tuple[int, int], Mapping[tuple[int, int], int]]):
        self.datum = datum
        self.entries: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        for (i, j), poly in entries.items():
            clean = {(int(a), int(b)): int(c) for (a, b), c in poly.items() if c}
            if clean:
                self.entries[(int(i), int(j))] = clean
        self._validate()

    def _validate(self):
        d = self.datum
        n = d.rank
        for i in range(n):
            if (i, i) in self.entries:
                raise CartanDataError("Q_ii must be zero")
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                pij = self.entries.get((i, j), {})
                pji = self.entries.get((j, i), {})
                if {(b, a): c for (a, b), c in pij.items()} != pji:
                    raise CartanDataError(f"Q[{i},{j}](u,v) != Q[{j},{i}](v,u)")
                if not pij:
                    raise CartanDataError(f"Q[{i},{j}] must be nonzero for i != j")
                target = -2 * d.sym[j] * d.cartan[i][j]
                for (a, b), c in pij.items():
                    if 2 * d.sym[i] * a + 2 * d.sym[j] * b != target:
                        raise CartanDataError(
                            f"Q[{i},{j}] not homogeneous of degree {target} "
                            f"(monomial u^{a} v^{b})"
                        )
                # t_ij = 0 inputs are rejected outright: the basis theorem
                # needs the u^{-c_ji} coefficient to be a unit.
                if pij.get((-d.cartan[j][i], 0), 0) == 0:
                    raise CartanDataError(f"t_{i}{j} (coefficient of u^{-d.cartan[j][i]}) is zero")

    def require_units_mod(self, p: int):
        """Raise unless every t_ij is nonzero mod the prime p: over GF(p) the
        basis theorem needs each t_ij to be a unit of GF(p), as over Q."""
        c = self.datum.cartan
        for (i, j), poly in self.entries.items():
            t = poly[(-c[j][i], 0)]
            if t % p == 0:
                raise CartanDataError(f"t_{i}{j} = {t} (coefficient of u^{-c[j][i]} in Q[{i},{j}]) is zero in GF({p})")

    def entry(self, i: int, j: int) -> dict[tuple[int, int], int]:
        """Monomial map of Q_ij; empty for i == j."""
        if i == j:
            return {}
        return self.entries[(i, j)]

    def t(self, i: int, j: int) -> int:
        if i == j:
            return 1
        return self.entries[(i, j)].get((-self.datum.cartan[j][i], 0), 0)

    def to_json(self) -> dict:
        return {
            f"{i},{j}": [[c, a, b] for (a, b), c in sorted(poly.items())]
            for (i, j), poly in sorted(self.entries.items())
        }

    @staticmethod
    def from_json(datum: CartanDatum, data: Mapping) -> "QMatrix":
        entries = {}
        for key, monos in data.items():
            i, j = (int(x) for x in key.split(","))
            entries[(i, j)] = {(a, b): c for c, a, b in monos}
        return QMatrix(datum, entries)


def default_q_matrix(datum: CartanDatum) -> QMatrix:
    """The Khovanov-Lauda choice: Q_ij = u^{-c_ji} + v^{-c_ij} for joined
    nodes (c_ij < 0) and Q_ij = 1 for orthogonal ones (c_ij = c_ji = 0).

    The sum formula would give the constant 2 there, which is zero in
    GF(2); then ψ² e(..ij..) = 0 and the algebra is not the KLR algebra.
    """
    c = datum.cartan
    entries = {
        (i, j): {(-c[j][i], 0): 1, (0, -c[i][j]): 1} if c[i][j] else {(0, 0): 1}
        for i in range(datum.rank)
        for j in range(datum.rank)
        if i != j
    }
    return QMatrix(datum, entries)


# -- presets -------------------------------------------------------------------


def sl2() -> CartanDatum:
    return CartanDatum(["1"], [[2]], [1])


def type_a(n: int) -> CartanDatum:
    """A_n: n nodes on a path, all d_i = 1."""
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    return CartanDatum([str(i + 1) for i in range(n)], cartan, [1] * n)


def a1_x_a1() -> CartanDatum:
    return CartanDatum(["1", "2"], [[2, 0], [0, 2]], [1, 1])


def b2() -> CartanDatum:
    """B_2 with node 1 long (d_1 = 2) and node 2 short; c_ij = α_j^∨(α_i)."""
    return CartanDatum(["1", "2"], [[2, -2], [-1, 2]], [2, 1])


PRESETS = {"sl2": sl2, "a1": sl2, "a2": lambda: type_a(2), "a3": lambda: type_a(3), "a1xa1": a1_x_a1, "b2": b2}


def load_datum_file(path: str) -> tuple[CartanDatum, QMatrix]:
    """Read ``{"nodes":..., "cartan":..., "d":..., "Q": {...}?}`` from JSON.

    A missing "Q" key falls back to the Khovanov-Lauda default.
    """
    with open(path) as fp:
        data = json.load(fp)
    datum = CartanDatum.from_json(data)
    q = QMatrix.from_json(datum, data["Q"]) if "Q" in data else default_q_matrix(datum)
    return datum, q
