"""Crystallographic groups: lattice extensions of a finite point group with
an explicit cocycle, their automorphisms, the center of the lattice
stabilizer, and entropy from the automorphism's action on the lattice.

A group element is a pair (h, a) standing for the product of the chosen
section at h with the lattice translation a, multiplied by
(h1, a1)(h2, a2) = (h1 h2, theta(h1, h2) + c(h2) a1 + a2).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .groups import (
    AbelianAutomorphism,
    AbelianElement,
    FgAbelianGroup,
    IntMatrix,
    InternalInvariantError,
    ShapeError,
    _power,
    smith_normal_form,
)
from .spectral import DEFAULT_ROOT_TOL, EntropyEstimate, eigen_entropy


class GroupValidationError(ValueError):
    """Supplied tables fail to define a group, a cocycle extension, or an
    automorphism of one."""


# --- point groups ----------------------------------------------------------


@dataclass(frozen=True)
class PointGroup:
    """Finite group given by labels and a full multiplication table.

    table[i][j] is the index of elements[i] * elements[j]. Associativity is
    checked exhaustively at construction, which also forces the table to be
    a group once identity and inverses are confirmed.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        labels = tuple(self.elements)
        n = len(labels)
        if n == 0 or len(set(labels)) != n:
            raise GroupValidationError("element labels must be nonempty and distinct")
        tab = tuple(tuple(row) for row in self.table)
        if len(tab) != n or any(len(row) != n for row in tab):
            raise GroupValidationError("multiplication table must be n x n")
        if any(x < 0 or x >= n for row in tab for x in row):
            raise GroupValidationError("table entries must index elements")
        object.__setattr__(self, "elements", labels)
        object.__setattr__(self, "table", tab)

        identity = None
        for e in range(n):
            if all(tab[e][x] == x and tab[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupValidationError("table has no two-sided identity")
        object.__setattr__(self, "_identity", identity)

        inverses = []
        for x in range(n):
            inv = next((y for y in range(n) if tab[x][y] == identity and tab[y][x] == identity), None)
            if inv is None:
                raise GroupValidationError(f"element {labels[x]} has no inverse")
            inverses.append(inv)
        object.__setattr__(self, "_inverses", tuple(inverses))

        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                        raise GroupValidationError(
                            f"associativity fails at ({labels[a]}, {labels[b]}, {labels[c]})"
                        )

    @classmethod
    def from_pairs(cls, elements: Sequence[str], products: dict) -> "PointGroup":
        """Builds the index table from a {(label, label): label} mapping."""
        idx = {lab: i for i, lab in enumerate(elements)}
        n = len(elements)
        tab = [[-1] * n for _ in range(n)]
        for (a, b), c in products.items():
            tab[idx[a]][idx[b]] = idx[c]
        if any(x < 0 for row in tab for x in row):
            raise GroupValidationError("product mapping does not cover all pairs")
        return cls(tuple(elements), tuple(tuple(row) for row in tab))

    @classmethod
    def trivial(cls) -> "PointGroup":
        return cls(("e",), ((0,),))

    @classmethod
    def cyclic(cls, n: int) -> "PointGroup":
        if n < 1:
            raise GroupValidationError("cyclic group order must be positive")
        labels = tuple("e" if k == 0 else f"g{k}" for k in range(n))
        tab = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(labels, tab)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return self._identity

    def multiply(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self._inverses[i]

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self._identity:
            x = self.table[x][i]
            k += 1
        return k

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[i][j] == self.table[j][i] for i in range(n) for j in range(n))

    def index_of(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise KeyError(f"no element labeled {label!r}") from None


# --- crystallographic groups -----------------------------------------------


def _first_separating_unit(a: IntMatrix, b: IntMatrix) -> Optional[tuple[int, ...]]:
    """The first unit vector e_i with a e_i != b e_i, or None when a == b."""
    for i, (x, y) in enumerate(zip(zip(*a.entries), zip(*b.entries))):
        if x != y:
            return tuple(int(j == i) for j in range(a.dim))
    return None


@dataclass(frozen=True)
class CrystalGroup:
    """Extension of a finite point group by the lattice Z^p, described by a
    lattice action and an integer cocycle against a fixed unital section.

    The product is associative exactly when, for all h, k, l in F,
    A(l)A(k) = A(kl) and theta(hk, l) + A(l) theta(h, k) =
    theta(h, kl) + theta(k, l); both are checked at construction."""

    point_group: PointGroup
    rank: int
    action: tuple[IntMatrix, ...]
    cocycle: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        f = self.point_group
        n = f.order
        p = self.rank
        if p < 1:
            raise GroupValidationError("lattice rank must be at least 1")
        acts = tuple(self.action)
        if len(acts) != n:
            raise GroupValidationError("need one action matrix per point-group element")
        for m in acts:
            if m.dim != p:
                raise GroupValidationError("action matrices must be p x p")
            if not m.is_unimodular():
                raise GroupValidationError("action matrices must be unimodular")
        if acts[f.identity] != IntMatrix.identity(p):
            raise GroupValidationError("identity must act trivially")
        coc = tuple(
            tuple(tuple(int(x) for x in vec) for vec in row) for row in self.cocycle
        )
        if len(coc) != n or any(len(row) != n for row in coc):
            raise GroupValidationError("cocycle table must be n x n")
        if any(len(vec) != p for row in coc for vec in row):
            raise GroupValidationError("cocycle values must be lattice vectors")
        e = f.identity
        for h in range(n):
            if any(coc[e][h]) or any(coc[h][e]):
                raise GroupValidationError("cocycle must vanish against the identity")
        object.__setattr__(self, "action", acts)
        object.__setattr__(self, "cocycle", coc)

        # ((h, a)(k, b))(l, c) and (h, a)((k, b)(l, c)) have lattice parts
        # theta(hk, l) + A(l)theta(h, k) + A(l)A(k)a + A(l)b + c and
        # theta(h, kl) + theta(k, l) + A(kl)a + A(l)b + c, so the product is
        # associative exactly when A is a right action and theta a 2-cocycle.
        mul, zero = f.table, (0,) * p
        for k in range(n):
            for l in range(n):
                unit = _first_separating_unit(acts[l] * acts[k], acts[mul[k][l]])
                if unit is not None:
                    raise GroupValidationError(
                        f"associativity fails at {self.element(e, unit)}, "
                        f"{self.element(k, zero)}, {self.element(l, zero)}: "
                        f"A({f.elements[l]})A({f.elements[k]}) != A({f.elements[mul[k][l]]})"
                    )
        for h in range(n):
            for k in range(n):
                for l in range(n):
                    moved = acts[l].apply(coc[h][k])
                    lhs = tuple(a + b for a, b in zip(coc[mul[h][k]][l], moved))
                    rhs = tuple(a + b for a, b in zip(coc[h][mul[k][l]], coc[k][l]))
                    if lhs != rhs:
                        x, y, z = (self.element(j, zero) for j in (h, k, l))
                        raise GroupValidationError(
                            f"associativity fails at {x}, {y}, {z}: "
                            "the cocycle identity does not hold"
                        )

    def element(self, fpart, lattice: Sequence[int]) -> "CrystalElement":
        if isinstance(fpart, str):
            fpart = self.point_group.index_of(fpart)
        return CrystalElement(self, fpart, tuple(lattice))

    def identity_element(self) -> "CrystalElement":
        return CrystalElement(self, self.point_group.identity, (0,) * self.rank)

    def lattice_element(self, vector: Sequence[int]) -> "CrystalElement":
        return CrystalElement(self, self.point_group.identity, tuple(vector))


@dataclass(frozen=True)
class CrystalElement:
    """Group element (h, a): the section at h followed by translation a."""

    group: CrystalGroup
    fpart: int
    lattice: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.fpart < self.group.point_group.order:
            raise ShapeError("point-group part out of range")
        lat = tuple(int(x) for x in self.lattice)
        if len(lat) != self.group.rank:
            raise ShapeError("lattice part has the wrong length")
        object.__setattr__(self, "lattice", lat)

    def __mul__(self, other: "CrystalElement") -> "CrystalElement":
        if self.group != other.group:
            raise ShapeError("elements of different groups")
        g = self.group
        h = g.point_group.multiply(self.fpart, other.fpart)
        theta = g.cocycle[self.fpart][other.fpart]
        moved = g.action[other.fpart].apply(self.lattice)
        lat = tuple(t + m + b for t, m, b in zip(theta, moved, other.lattice))
        return CrystalElement(g, h, lat)

    def inverse(self) -> "CrystalElement":
        g = self.group
        hinv = g.point_group.inverse(self.fpart)
        theta = g.cocycle[self.fpart][hinv]
        moved = g.action[hinv].apply(self.lattice)
        lat = tuple(-t - m for t, m in zip(theta, moved))
        return CrystalElement(g, hinv, lat)

    def is_identity(self) -> bool:
        return self.fpart == self.group.point_group.identity and not any(self.lattice)

    def label(self) -> str:
        return self.group.point_group.elements[self.fpart]

    def key(self):
        return (self.fpart, self.lattice)

    def __str__(self) -> str:
        return f"({self.label()}, {self.lattice})"


# --- automorphisms ----------------------------------------------------------


@dataclass(frozen=True)
class CrystalAutomorphism:
    """Automorphism (quotient bijection, lattice matrix, section translations)
    acting by (h, a) -> (qh, t(h) + sigma a).

    It is a homomorphism exactly when, for all h, k in F, q(hk) = q(h)q(k),
    sigma A(k) = A(q(k)) sigma and t(hk) + sigma theta(h, k) =
    theta(q(h), q(k)) + A(q(k)) t(h) + t(k); these are checked at
    construction, and with q a bijection and sigma unimodular it is bijective.
    """

    group: CrystalGroup
    quotient_map: tuple[int, ...]
    lattice_part: IntMatrix
    translations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.group
        n = g.point_group.order
        p = g.rank
        q = tuple(int(x) for x in self.quotient_map)
        if len(q) != n or sorted(q) != list(range(n)):
            raise GroupValidationError("quotient map must be a bijection of F")
        if self.lattice_part.dim != p or not self.lattice_part.is_unimodular():
            raise GroupValidationError("lattice part must be p x p unimodular")
        trans = tuple(tuple(int(x) for x in row) for row in self.translations)
        if len(trans) != n or any(len(row) != p for row in trans):
            raise GroupValidationError("need one translation vector per F element")
        object.__setattr__(self, "quotient_map", q)
        object.__setattr__(self, "translations", trans)

        # gamma((h, a)(k, b)) and gamma(h, a)gamma(k, b) have point parts
        # q(hk) and q(h)q(k) and lattice parts t(hk) + sigma theta(h, k) +
        # sigma A(k)a + sigma b and theta(qh, qk) + A(qk)t(h) + t(k) +
        # A(qk)sigma a + sigma b. They agree for all a, b exactly when the
        # three identities below hold, and then q(e) = e and t(e) = 0, so
        # gamma fixes the identity.
        f = g.point_group
        mul, coc, acts, sigma = f.table, g.cocycle, g.action, self.lattice_part
        zero = (0,) * p
        for h in range(n):
            for k in range(n):
                if q[mul[h][k]] != mul[q[h]][q[k]]:
                    raise GroupValidationError(
                        f"not a homomorphism: fails at {g.element(h, zero)}, "
                        f"{g.element(k, zero)}: q is not a homomorphism of F"
                    )
        for h in range(n):
            for k in range(n):
                lhs = tuple(a + b for a, b in zip(trans[mul[h][k]], sigma.apply(coc[h][k])))
                moved = acts[q[k]].apply(trans[h])
                rhs = tuple(a + b + c for a, b, c in zip(coc[q[h]][q[k]], moved, trans[k]))
                if lhs != rhs:
                    raise GroupValidationError(
                        f"not a homomorphism: fails at {g.element(h, zero)}, "
                        f"{g.element(k, zero)}: the translations do not match the cocycle"
                    )
        for k in range(n):
            unit = _first_separating_unit(sigma * acts[k], acts[q[k]] * sigma)
            if unit is not None:
                raise GroupValidationError(
                    f"not a homomorphism: fails at {g.element(f.identity, unit)}, "
                    f"{g.element(k, zero)}: the lattice part does not intertwine "
                    f"A({f.elements[k]}) with A({f.elements[q[k]]})"
                )

    @classmethod
    def build(
        cls,
        group: CrystalGroup,
        lattice_part: IntMatrix | Sequence[Sequence[int]] | None = None,
        quotient_map: Optional[Sequence] = None,
        translations: Optional[dict] = None,
    ) -> "CrystalAutomorphism":
        """Assembles an automorphism from partial data: identity quotient
        map, identity matrix, and zero translations by default. The quotient
        map may use labels; translations map labels or indices to vectors."""
        f = group.point_group
        n = f.order
        p = group.rank
        if lattice_part is None:
            lattice_part = IntMatrix.identity(p)
        elif not isinstance(lattice_part, IntMatrix):
            lattice_part = IntMatrix(tuple(tuple(row) for row in lattice_part))
        if quotient_map is None:
            qm = tuple(range(n))
        else:
            qm = tuple(
                f.index_of(x) if isinstance(x, str) else int(x) for x in quotient_map
            )
        trans = [[0] * p for _ in range(n)]
        for key, vec in (translations or {}).items():
            idx = f.index_of(key) if isinstance(key, str) else int(key)
            trans[idx] = list(vec)
        return cls(group, qm, lattice_part, tuple(tuple(r) for r in trans))

    @classmethod
    def identity(cls, group: CrystalGroup) -> "CrystalAutomorphism":
        return cls.build(group)

    def apply(self, x: CrystalElement) -> CrystalElement:
        if x.group != self.group:
            raise ShapeError("element of a different group")
        moved = self.lattice_part.apply(x.lattice)
        t = self.translations[x.fpart]
        return CrystalElement(
            self.group,
            self.quotient_map[x.fpart],
            tuple(a + b for a, b in zip(t, moved)),
        )

    def compose(self, other: "CrystalAutomorphism") -> "CrystalAutomorphism":
        """self after other."""
        if self.group != other.group:
            raise ShapeError("automorphisms of different groups")
        n = self.group.point_group.order
        q = tuple(self.quotient_map[other.quotient_map[h]] for h in range(n))
        sigma = self.lattice_part * other.lattice_part
        trans = []
        for h in range(n):
            first = self.translations[other.quotient_map[h]]
            second = self.lattice_part.apply(other.translations[h])
            trans.append(tuple(a + b for a, b in zip(first, second)))
        return CrystalAutomorphism(self.group, q, sigma, tuple(trans))

    def inverse(self) -> "CrystalAutomorphism":
        n = self.group.point_group.order
        qinv = [0] * n
        for h, image in enumerate(self.quotient_map):
            qinv[image] = h
        sigma_inv = self.lattice_part.inverse()
        trans = []
        for h in range(n):
            moved = sigma_inv.apply(self.translations[qinv[h]])
            trans.append(tuple(-x for x in moved))
        return CrystalAutomorphism(self.group, tuple(qinv), sigma_inv, tuple(trans))

    def power(self, k: int) -> "CrystalAutomorphism":
        one = CrystalAutomorphism.identity(self.group)
        return _power(self, k, one, CrystalAutomorphism.compose, CrystalAutomorphism.inverse)


# --- center of the lattice stabilizer ---------------------------------------


@dataclass(frozen=True)
class CenterPresentation:
    """The center of the lattice stabilizer presented as a finitely generated
    abelian group, with explicit coordinate and embedding maps.

    Generators are the lattice basis followed by the nontrivial central
    stabilizer elements; relations come from pair products. The recorded
    change of basis makes coordinates deterministic and reproducible.
    """

    group: CrystalGroup
    abelian: FgAbelianGroup
    stabilizer: tuple[int, ...]
    central: tuple[int, ...]
    generators: tuple[CrystalElement, ...]
    free_basis: tuple[CrystalElement, ...]
    torsion_basis: tuple[tuple[CrystalElement, int], ...]
    _v: tuple[tuple[int, ...], ...]
    _v_inverse: tuple[tuple[int, ...], ...]
    _diag: tuple[int, ...]
    _torsion_slots: tuple[int, ...]
    _free_slots: tuple[int, ...]

    def contains(self, x: CrystalElement) -> bool:
        return x.group == self.group and x.fpart in self.central

    def coordinates(self, x: CrystalElement) -> AbelianElement:
        """Coordinates of a central-stabilizer element in the presented
        group: lattice weights plus the generator slot of its point part,
        pushed through the Smith change of basis."""
        if not self.contains(x):
            raise ShapeError("element lies outside the stabilizer center")
        m = len(self.generators)
        word = list(x.lattice) + [0] * (m - self.group.rank)
        if x.fpart != self.group.point_group.identity:
            slot = next(
                i
                for i, gen in enumerate(self.generators)
                if gen.fpart == x.fpart and i >= self.group.rank
            )
            word[slot] += 1
        y = [
            sum(word[i] * self._v[i][j] for i in range(m)) for j in range(m)
        ]
        free = tuple(y[j] for j in self._free_slots)
        torsion = tuple(y[j] % self._diag[j] for j in self._torsion_slots)
        return self.abelian.element(free, torsion)

    def embed(self, a: AbelianElement) -> CrystalElement:
        """The crystal element carrying the given coordinates; inverse of
        coordinates() on the center."""
        if a.group != self.abelian:
            raise ShapeError("element of a different presentation")
        m = len(self.generators)
        y = [0] * m
        for value, j in zip(a.lattice, self._free_slots):
            y[j] = value
        for value, j in zip(a.torsion, self._torsion_slots):
            y[j] = value
        word = [
            sum(y[j] * self._v_inverse[j][i] for j in range(m)) for i in range(m)
        ]
        out = self.group.lattice_element(word[: self.group.rank])
        one = self.group.identity_element()
        for coeff, gen in zip(word[self.group.rank:], self.generators[self.group.rank:]):
            out = out * _power(gen, coeff, one, operator.mul, CrystalElement.inverse)
        return out


def stabilizer_center(group: CrystalGroup) -> CenterPresentation:
    """The center of the subgroup stabilizing the lattice pointwise under
    conjugation, presented via Smith normal form.

    The stabilizer is F0 x Z^p with F0 the kernel of the action; its center
    keeps the F0 elements that commute with all of F0 and whose cocycle rows
    are symmetric. The lattice embeds with finite index, so the free rank of
    the presentation always equals the lattice rank.
    """
    f = group.point_group
    p = group.rank
    ident = IntMatrix.identity(p)
    stabilizer = tuple(
        h for h in range(f.order) if group.action[h] == ident
    )
    central = tuple(
        h
        for h in stabilizer
        if all(
            f.multiply(h, k) == f.multiply(k, h)
            and group.cocycle[h][k] == group.cocycle[k][h]
            for k in stabilizer
        )
    )

    torsion_gens = [h for h in central if h != f.identity]
    generators = [
        group.lattice_element(tuple(int(j == i) for j in range(p)))
        for i in range(p)
    ] + [group.element(h, (0,) * p) for h in torsion_gens]
    m = len(generators)

    rows = []
    slot = {h: p + i for i, h in enumerate(torsion_gens)}
    for h in torsion_gens:
        for k in torsion_gens:
            row = [0] * m
            row[slot[h]] += 1
            row[slot[k]] += 1
            product = f.multiply(h, k)
            if product != f.identity:
                row[slot[product]] -= 1
            theta = group.cocycle[h][k]
            for i in range(p):
                row[i] -= theta[i]
            if any(row):
                rows.append(row)

    if rows:
        _, d, v = smith_normal_form(rows)
        diag = [
            d[i][i] for i in range(min(len(rows), m)) if d[i][i] != 0
        ]
        v = tuple(tuple(row) for row in v)
    else:
        diag = []
        v = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    rank = len(diag)
    torsion_slots = tuple(i for i in range(rank) if diag[i] > 1)
    free_slots = tuple(range(rank, m))
    free_rank = m - rank
    if free_rank != p:
        raise InternalInvariantError(
            f"free rank {free_rank} differs from lattice rank {p}"
        )
    v_inverse = IntMatrix(v).inverse().entries
    orders = tuple(diag[i] for i in torsion_slots)
    abelian = FgAbelianGroup(rank=free_rank, torsion=orders)
    diag_full = tuple(diag) + (0,) * (m - rank)

    presentation = CenterPresentation(
        group=group,
        abelian=abelian,
        stabilizer=stabilizer,
        central=central,
        generators=tuple(generators),
        free_basis=(),
        torsion_basis=(),
        _v=v,
        _v_inverse=v_inverse,
        _diag=diag_full,
        _torsion_slots=torsion_slots,
        _free_slots=free_slots,
    )
    free_basis = tuple(
        presentation.embed(abelian.element(
            tuple(int(j == i) for j in range(free_rank)), (0,) * len(orders)
        ))
        for i in range(free_rank)
    )
    torsion_basis = tuple(
        (
            presentation.embed(abelian.element(
                (0,) * free_rank,
                tuple(int(j == i) for j in range(len(orders))),
            )),
            orders[i],
        )
        for i in range(len(orders))
    )
    object.__setattr__(presentation, "free_basis", free_basis)
    object.__setattr__(presentation, "torsion_basis", torsion_basis)

    for gen in presentation.generators:
        recovered = presentation.embed(presentation.coordinates(gen))
        if recovered != gen:
            raise InternalInvariantError(
                "coordinate and embedding maps disagree on a generator"
            )
    return presentation


def center_quotient_matrix(
    presentation: CenterPresentation, auto: CrystalAutomorphism
) -> IntMatrix:
    """Action of the automorphism on the free part of the stabilizer center,
    as an integer matrix in the recorded basis. Columns are the free
    coordinates of the images of the free basis."""
    if auto.group != presentation.group:
        raise ShapeError("automorphism of a different group")
    for gen in presentation.generators:
        if not presentation.contains(auto.apply(gen)):
            raise InternalInvariantError(
                "automorphism does not preserve the stabilizer center"
            )
    cols = []
    for b in presentation.free_basis:
        image = presentation.coordinates(auto.apply(b))
        cols.append(image.lattice)
    q = len(presentation.free_basis)
    matrix = IntMatrix(tuple(tuple(cols[j][i] for j in range(q)) for i in range(q)))
    if not matrix.is_unimodular():
        raise InternalInvariantError("induced center matrix is not unimodular")
    return matrix


def crystal_entropy(
    group: CrystalGroup, auto: CrystalAutomorphism, tol: float = DEFAULT_ROOT_TOL
) -> EntropyEstimate:
    """Entropy of a crystal automorphism: the spectral entropy of its lattice
    part sigma. The diagnostics keep the center reduction's note, and
    center_rank is the lattice rank.

    This equals the entropy of the induced matrix rho on the free part of the
    stabilizer center (`center_quotient_matrix`). Validation forces
    q(e) = e and t(e) = 0, so the automorphism maps (e, a) to (e, sigma a).
    The lattice L is torsion-free, central in the lattice stabilizer S and of
    finite index in its center Z(S), so L maps injectively and equivariantly
    onto a finite-index sublattice of the free part of Z(S). Hence rho and
    sigma are conjugate over Q, with equal characteristic polynomials and
    determinants, which is all eigen_entropy reads.
    """
    if auto.group != group:
        raise ShapeError("automorphism of a different group")
    inner = eigen_entropy(auto.lattice_part, tol)
    return replace(inner, diagnostics={
        **inner.diagnostics, "note": "crystal center reduction", "center_rank": group.rank,
    })


def fg_abelian_entropy(auto: AbelianAutomorphism, tol: float = DEFAULT_ROOT_TOL) -> EntropyEstimate:
    """Entropy of an automorphism of Z^p + finite torsion: the torsion part
    never contributes, so this is the spectral entropy of the lattice part."""
    if auto.group.rank == 0:
        return EntropyEstimate(
            value=0.0,
            method="spectral",
            diagnostics={"note": "finite group", "root_moduli": []},
            tolerance=0.0,
        )
    return eigen_entropy(auto.lattice_part, tol)


# --- extension rank bound ----------------------------------------------------


@dataclass(frozen=True)
class ExtensionRankReport:
    """Comparison of the rank at doubled tolerance, searched on a box of
    the crystal group, against the quotient-times-kernel product bound."""

    lhs: int
    rhs: int
    holds: bool
    quotient_rank: int
    kernel_rank: int
    delta: float


def _conjugated_kernel_set(
    group: CrystalGroup, omega: Sequence[CrystalElement], quotient_support: Sequence[int]
) -> list[tuple[int, ...]]:
    """The lattice vectors phi(x)^-1 k_i^-1 phi(x) theta(h_i, x)^-1 where
    (h_i, k_i) decomposes the inverse of the i-th shift and x runs over
    h_i^-1 times the quotient witness support."""
    f = group.point_group
    out = []
    for w in omega:
        winv = w.inverse()
        h_i = winv.fpart
        k_inv = group.lattice_element(tuple(-x for x in winv.lattice))
        h_inv = f.inverse(h_i)
        for support_x in quotient_support:
            x = f.multiply(h_inv, support_x)
            phi_x = group.element(x, (0,) * group.rank)
            theta_inv = group.lattice_element(
                tuple(-t for t in group.cocycle[h_i][x])
            )
            conj = phi_x.inverse() * k_inv * phi_x * theta_inv
            if conj.fpart != f.identity:
                raise InternalInvariantError(
                    "conjugated kernel element left the lattice"
                )
            out.append(conj.lattice)
    return sorted(set(out))


def extension_rank_bound(
    group: CrystalGroup,
    omega: Sequence[CrystalElement],
    delta,
    radius: int,
) -> ExtensionRankReport:
    """Checks that the rank of omega at doubled tolerance is bounded by the
    product of the quotient rank and the rank of the conjugated kernel set.

    The left side is the rank search over the box of elements (h, a) with
    every |a_i| <= radius, by left translation: a shift that leaves the box
    leaves the searched points."""
    from .folner import exact_delta, min_rank_bruteforce, min_rank_table

    omega = list(omega)
    if not omega:
        raise ValueError("omega must be nonempty")
    for w in omega:
        if w.group != group:
            raise ShapeError("shift outside the group")
    delta_frac = exact_delta(delta)
    f = group.point_group
    p = group.rank

    pi_omega = sorted({w.fpart for w in omega})
    quotient_rank, quotient_witness = min_rank_table(
        list(range(f.order)), f.multiply, f.identity, pi_omega, delta_frac
    )
    support = sorted(quotient_witness.keys())

    kernel_vectors = _conjugated_kernel_set(group, omega, support)
    lattice = FgAbelianGroup(rank=p)
    kernel_omega = [lattice.element(v) for v in kernel_vectors]
    kernel_rank = min_rank_bruteforce(
        lattice, kernel_omega, delta_frac, radius
    ).rank
    rhs = quotient_rank * kernel_rank

    box = [
        group.element(h, a)
        for h in range(f.order)
        for a in itertools.product(range(-radius, radius + 1), repeat=p)
    ]
    lhs, _ = min_rank_table(
        box, operator.mul, group.identity_element(), omega, 2 * delta_frac
    )

    return ExtensionRankReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        quotient_rank=quotient_rank,
        kernel_rank=kernel_rank,
        delta=float(delta_frac),
    )


# --- canned constructions ----------------------------------------------------


def dihedral_infinite() -> CrystalGroup:
    """Z extended by an order-2 flip acting by negation: the infinite
    dihedral group."""
    f = PointGroup(("e", "f"), ((0, 1), (1, 0)))
    return CrystalGroup(
        point_group=f,
        rank=1,
        action=(IntMatrix(((1,),)), IntMatrix(((-1,),))),
        cocycle=(((0,), (0,)), ((0,), (0,))),
    )


def trivial_product(rank: int, point_group: PointGroup) -> CrystalGroup:
    """Direct product of Z^rank with the point group: trivial action and
    cocycle."""
    n = point_group.order
    zero = (0,) * rank
    return CrystalGroup(
        point_group=point_group,
        rank=rank,
        action=tuple(IntMatrix.identity(rank) for _ in range(n)),
        cocycle=tuple(tuple(zero for _ in range(n)) for _ in range(n)),
    )


def point_reflection_square() -> CrystalGroup:
    """Z^2 extended by the order-2 point reflection -I with zero cocycle."""
    f = PointGroup(("e", "r"), ((0, 1), (1, 0)))
    return CrystalGroup(
        point_group=f,
        rank=2,
        action=(IntMatrix.identity(2), IntMatrix(((-1, 0), (0, -1)))),
        cocycle=(
            ((0, 0), (0, 0)),
            ((0, 0), (0, 0)),
        ),
    )


def glide_plane_group() -> CrystalGroup:
    """Z^2 extended by a reflection whose square is the unit translation:
    the glide reflection group, with a genuinely nontrivial cocycle."""
    f = PointGroup(("e", "g"), ((0, 1), (1, 0)))
    return CrystalGroup(
        point_group=f,
        rank=2,
        action=(IntMatrix.identity(2), IntMatrix(((1, 0), (0, -1)))),
        cocycle=(
            ((0, 0), (0, 0)),
            ((0, 0), (1, 0)),
        ),
    )
