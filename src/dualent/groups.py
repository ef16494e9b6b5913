"""Exact arithmetic for finitely generated abelian groups, integer matrices,
and their automorphisms, plus Smith normal form over the integers.

Everything in this module is immutable and pure, so values can be shared
freely between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class ShapeError(ValueError):
    """Operands live in different groups or have incompatible dimensions."""


class NotInvertibleError(ValueError):
    """No exact integer inverse exists."""


class InternalInvariantError(AssertionError):
    """A structural fact the mathematics guarantees failed to hold; indicates
    a bug, never bad user input."""


# The default size budget of a sumset (growth) and of a convolution
# tower's support (folner); kept here so that neither module needs the other.
DEFAULT_CAP = 5_000_000


class SumsetCapError(ArithmeticError):
    """A sumset exceeded its size budget; carries the partial count reached."""

    def __init__(self, cap: int, partial: int):
        super().__init__(f"sumset exceeded the {cap}-element budget (at least {partial} elements)")
        self.cap = cap
        self.partial = partial


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an exact integer, got {x!r}")
    return x


def _power(x, k: int, one, times: Callable, inverse: Callable):
    """x^k: one times |k| factors of x, or of inverse(x) when k < 0. All
    factors are powers of one base, so their order does not matter."""
    base = x if k >= 0 else inverse(x)
    out = one
    for _ in range(abs(k)):
        out = times(out, base)
    return out


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_as_int(x) for x in row) for row in self.entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ShapeError("matrix dimensions differ")
        cols = tuple(zip(*other.entries))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.dim:
            raise ShapeError("vector length does not match matrix dimension")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def det(self) -> int:
        # Bareiss fraction-free elimination; every division below is exact.
        n = self.dim
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def inverse(self) -> "IntMatrix":
        """Exact integer inverse; defined exactly for unimodular matrices."""
        d = self.det()
        if d not in (1, -1):
            raise NotInvertibleError(f"determinant is {d}, not +/-1")
        return IntMatrix(_smith_inverse(self.entries)[0])  # its denominator is 1

    def power(self, k: int) -> "IntMatrix":
        return _power(self, k, IntMatrix.identity(self.dim), IntMatrix.__mul__, IntMatrix.inverse)

    @staticmethod
    def block_diag(*blocks: "IntMatrix") -> "IntMatrix":
        total = sum(b.dim for b in blocks)
        rows = []
        offset = 0
        for b in blocks:
            for row in b.entries:
                rows.append((0,) * offset + row + (0,) * (total - offset - b.dim))
            offset += b.dim
        return IntMatrix(tuple(rows))


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^rank plus a finite part given by cyclic orders, each at least 2."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        _as_int(self.rank)
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        orders = tuple(_as_int(d) for d in self.torsion)
        if any(d < 2 for d in orders):
            raise ValueError("torsion orders must be >= 2")
        object.__setattr__(self, "torsion", orders)

    def element(self, lattice: Sequence[int] = (), torsion: Sequence[int] = ()) -> "AbelianElement":
        return AbelianElement(self, tuple(lattice), tuple(torsion))

    def zero(self) -> "AbelianElement":
        return self.element((0,) * self.rank, (0,) * len(self.torsion))

    def basis(self) -> tuple["AbelianElement", ...]:
        vs = []
        for i in range(self.rank):
            lat = tuple(1 if j == i else 0 for j in range(self.rank))
            vs.append(self.element(lat, (0,) * len(self.torsion)))
        return tuple(vs)

    def torsion_tuples(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.torsion))

    def ball(self, radius: int) -> list["AbelianElement"]:
        """All elements with sup-norm lattice part <= radius and any torsion
        part, in sorted canonical order."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        coords = itertools.product(range(-radius, radius + 1), repeat=self.rank)
        out = [
            self.element(lat, tor)
            for lat in coords
            for tor in self.torsion_tuples()
        ]
        out.sort(key=lambda e: e.key())
        return out


@dataclass(frozen=True)
class AbelianElement:
    """Element of Z^p (+) F with torsion components stored canonically in
    [0, d_i)."""

    group: FgAbelianGroup
    lattice: tuple[int, ...]
    torsion: tuple[int, ...]

    def __post_init__(self):
        lat = tuple(_as_int(x) for x in self.lattice)
        tor = tuple(_as_int(x) for x in self.torsion)
        if len(lat) != self.group.rank or len(tor) != len(self.group.torsion):
            raise ShapeError("element shape does not match group")
        tor = tuple(t % d for t, d in zip(tor, self.group.torsion))
        object.__setattr__(self, "lattice", lat)
        object.__setattr__(self, "torsion", tor)

    def _require_same_group(self, other: "AbelianElement"):
        if self.group != other.group:
            raise ShapeError("elements belong to different groups")

    def __add__(self, other: "AbelianElement") -> "AbelianElement":
        self._require_same_group(other)
        lat = tuple(a + b for a, b in zip(self.lattice, other.lattice))
        tor = tuple(a + b for a, b in zip(self.torsion, other.torsion))
        return AbelianElement(self.group, lat, tor)

    def __neg__(self) -> "AbelianElement":
        return AbelianElement(
            self.group,
            tuple(-a for a in self.lattice),
            tuple(-a for a in self.torsion),
        )

    def __sub__(self, other: "AbelianElement") -> "AbelianElement":
        return self + (-other)

    def times(self, n: int) -> "AbelianElement":
        return AbelianElement(
            self.group,
            tuple(n * a for a in self.lattice),
            tuple(n * a for a in self.torsion),
        )

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.lattice) and all(a == 0 for a in self.torsion)

    def key(self) -> tuple:
        return (self.lattice, self.torsion)


def _torsion_add(a: tuple[int, ...], b: tuple[int, ...], orders: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((x + y) % d for x, y, d in zip(a, b, orders))


@dataclass(frozen=True)
class AbelianAutomorphism:
    """Automorphism of Z^p (+) F: a unimodular lattice block, an additive
    bijection of the torsion set, and a mixing block sending lattice basis
    vectors into the torsion part.

    The map is (v, t) |-> (M v, tau(t) + sum_i v_i * mixing_i).
    """

    group: FgAbelianGroup
    lattice_part: IntMatrix | None
    torsion_map: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    mixing: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.group
        if g.rank > 0:
            if self.lattice_part is None or self.lattice_part.dim != g.rank:
                raise ShapeError("lattice part must be a rank x rank matrix")
            if not self.lattice_part.is_unimodular():
                raise NotInvertibleError("lattice part must have determinant +/-1")
        elif self.lattice_part is not None:
            raise ShapeError("rank-0 group takes no lattice part")

        orders = g.torsion
        full = sorted(g.torsion_tuples())
        pairs = tuple(
            (tuple(src), tuple(t % d for t, d in zip(dst, orders)))
            for src, dst in self.torsion_map
        )
        pairs = tuple(sorted(pairs))
        object.__setattr__(self, "torsion_map", pairs)
        mapping = dict(pairs)
        if sorted(mapping) != full or len(pairs) != len(full):
            raise ValueError("torsion map must be defined exactly once on every torsion tuple")
        if len(set(mapping.values())) != len(full):
            raise ValueError("torsion map must be a bijection")
        for a in full:
            for b in full:
                lhs = mapping[_torsion_add(a, b, orders)]
                rhs = _torsion_add(mapping[a], mapping[b], orders)
                if lhs != rhs:
                    raise ValueError("torsion map is not additive")

        mix = tuple(
            tuple(t % d for t, d in zip(col, orders)) for col in self.mixing
        )
        if len(mix) != g.rank or any(len(col) != len(orders) for col in mix):
            raise ShapeError("mixing block must give one torsion tuple per lattice basis vector")
        object.__setattr__(self, "mixing", mix)
        object.__setattr__(self, "_tmap", mapping)

    @classmethod
    def build(
        cls,
        group: FgAbelianGroup,
        lattice: IntMatrix | Sequence[Sequence[int]] | None = None,
        torsion_map: Mapping[tuple[int, ...], tuple[int, ...]] | None = None,
        mixing: Sequence[Sequence[int]] | None = None,
    ) -> "AbelianAutomorphism":
        if lattice is not None and not isinstance(lattice, IntMatrix):
            lattice = IntMatrix(tuple(tuple(row) for row in lattice))
        if lattice is None and group.rank > 0:
            lattice = IntMatrix.identity(group.rank)
        if torsion_map is None:
            torsion_map = {t: t for t in group.torsion_tuples()}
        if mixing is None:
            mixing = tuple((0,) * len(group.torsion) for _ in range(group.rank))
        pairs = tuple((tuple(k), tuple(v)) for k, v in torsion_map.items())
        return cls(group, lattice, pairs, tuple(tuple(col) for col in mixing))

    @classmethod
    def from_matrix(cls, group: FgAbelianGroup, matrix: IntMatrix | Sequence[Sequence[int]]) -> "AbelianAutomorphism":
        return cls.build(group, lattice=matrix)

    @classmethod
    def identity(cls, group: FgAbelianGroup) -> "AbelianAutomorphism":
        return cls.build(group)

    def _mix(self, lattice: Sequence[int]) -> tuple[int, ...]:
        orders = self.group.torsion
        out = (0,) * len(orders)
        for v, col in zip(lattice, self.mixing):
            if v:
                out = _torsion_add(out, tuple(v * c for c in col), orders)
        return out

    def apply(self, x: AbelianElement) -> AbelianElement:
        if x.group != self.group:
            raise ShapeError("element does not belong to this automorphism's group")
        lat = self.lattice_part.apply(x.lattice) if self.group.rank else ()
        tor = _torsion_add(self._tmap[x.torsion], self._mix(x.lattice), self.group.torsion)
        return AbelianElement(self.group, lat, tor)

    def compose(self, other: "AbelianAutomorphism") -> "AbelianAutomorphism":
        """Returns the automorphism x |-> self(other(x))."""
        if self.group != other.group:
            raise ShapeError("automorphisms act on different groups")
        g = self.group
        lat = self.lattice_part * other.lattice_part if g.rank else None
        tmap = {src: self._tmap[dst] for src, dst in other.torsion_map}
        mixing = []
        for j in range(g.rank):
            col_other = other.mixing[j]
            m2_col = tuple(other.lattice_part.entries[i][j] for i in range(g.rank))
            mixing.append(_torsion_add(self._tmap[col_other], self._mix(m2_col), g.torsion))
        return AbelianAutomorphism.build(g, lat, tmap, tuple(mixing))

    def inverse(self) -> "AbelianAutomorphism":
        g = self.group
        lat_inv = self.lattice_part.inverse() if g.rank else None
        tmap_inv = {dst: src for src, dst in self.torsion_map}
        mixing = []
        for j in range(g.rank):
            col = tuple(lat_inv.entries[i][j] for i in range(g.rank))
            w = self._mix(col)
            img = tmap_inv[w]
            mixing.append(tuple(-c for c in img))
        return AbelianAutomorphism.build(g, lat_inv, tmap_inv, tuple(mixing))

    def power(self, k: int) -> "AbelianAutomorphism":
        one = AbelianAutomorphism.identity(self.group)
        return _power(self, k, one, AbelianAutomorphism.compose, AbelianAutomorphism.inverse)


# ---------------------------------------------------------------------------
# Smith normal form


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _row_addmul(a, u, dst, src, c):
    a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]


def _col_addmul(a, v, dst, src, c):
    for row in a:
        row[dst] += c * row[src]
    for row in v:
        row[dst] += c * row[src]


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix: returns (u, d, v) with u*matrix*v = d,
    u and v unimodular, and the diagonal of d a divisibility chain d1 | d2 | ...

    Accepts any rectangular matrix (including one with zero rows); entries
    stay arbitrary-precision integers throughout.
    """
    rows = [list(_as_int(x) for x in row) for row in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    if m == 0:
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return ((), (), ident)
    if n == 0:
        ident = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        return (ident, tuple(() for _ in range(m)), ())

    a = rows
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        best = None
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        _swap_rows(a, u, t, pivot[0])
        _swap_cols(a, v, t, pivot[1])

        while True:
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _row_addmul(a, u, i, t, -q)
                    if a[i][t]:
                        _swap_rows(a, u, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    _col_addmul(a, v, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_addmul(a, u, t, offender, 1)
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    freeze = lambda mat: tuple(tuple(row) for row in mat)
    return freeze(u), freeze(a), freeze(v)


def _smith_inverse(matrix: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Exact inverse of a square integer matrix from its Smith form: u*M*v = d
    gives M^-1 = v * d^-1 * u. Returns (numerators, den) with M^-1 equal to
    numerators / den, where den is the last invariant factor, which every
    other one divides. Raises NotInvertibleError when M is singular."""
    u, d, v = smith_normal_form(matrix)
    den = d[-1][-1]
    if den == 0:
        raise NotInvertibleError("matrix is singular")
    scaled = IntMatrix(tuple(tuple(den // d[i][i] * x for x in row) for i, row in enumerate(u)))
    return (IntMatrix(v) * scaled).entries, den  # v * (den * d^-1 * u)
