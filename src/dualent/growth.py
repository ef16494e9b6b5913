"""Entropy from iterated sumset growth: the size of
E + gamma(E) + ... + gamma^(n-1)(E) grows exponentially at the entropy rate,
and submultiplicativity makes every log(s_n)/n an upper bound for the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .groups import AbelianAutomorphism, AbelianElement, FgAbelianGroup, ShapeError
from .spectral import EntropyEstimate

DEFAULT_CAP = 5_000_000


class SumsetCapError(ArithmeticError):
    """A sumset exceeded its size budget; carries the partial count reached."""

    def __init__(self, cap: int, partial: int):
        super().__init__(f"sumset exceeded the {cap}-element budget (at least {partial} elements)")
        self.cap = cap
        self.partial = partial


@dataclass(frozen=True)
class FiniteSubset:
    """A finite subset of a finitely generated abelian group."""

    group: FgAbelianGroup
    elements: frozenset[AbelianElement]

    def __post_init__(self):
        elems = frozenset(self.elements)
        for e in elems:
            if e.group != self.group:
                raise ShapeError("set contains elements of a different group")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def of(cls, group: FgAbelianGroup, elements: Iterable) -> "FiniteSubset":
        """Builds a subset from elements or flat coordinate tuples
        (lattice coordinates followed by torsion coordinates)."""
        p = group.rank
        out = []
        for e in elements:
            if isinstance(e, AbelianElement):
                out.append(e)
            else:
                coords = tuple(e)
                out.append(group.element(coords[:p], coords[p:]))
        return cls(group, frozenset(out))

    def __len__(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[AbelianElement]:
        return sorted(self.elements, key=lambda e: e.key())


def sumset(x: FiniteSubset, y: FiniteSubset, cap: int | None = None) -> FiniteSubset:
    """Pointwise sums {a + b}. Raises SumsetCapError with a partial count when
    the result would exceed cap."""
    if x.group != y.group:
        raise ShapeError("sumset of subsets of different groups")
    small, large = (x, y) if len(x) <= len(y) else (y, x)
    out: set[AbelianElement] = set()
    for a in small.sorted_elements():
        out.update(b + a for b in large.elements)
        if cap is not None and len(out) > cap:
            raise SumsetCapError(cap, len(out))
    return FiniteSubset(x.group, frozenset(out))


@dataclass(frozen=True)
class GrowthSeries:
    """Sizes s_n of the partial sumsets, with 0 always adjoined to the base
    set so the series is nondecreasing."""

    sizes: tuple[int, ...]
    capped: bool
    zero_adjoined: bool = True

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be positive")
        # Submultiplicativity s_{n+m} <= s_n * s_m, checked on all computed
        # index pairs; a violation means the sumset bookkeeping is broken.
        s = self.sizes
        for i in range(1, len(s) + 1):
            for j in range(1, len(s) + 1 - i):
                if s[i + j - 1] > s[i - 1] * s[j - 1]:
                    raise ValueError(
                        f"growth series is not submultiplicative at ({i},{j})"
                    )

    def log_over_n(self) -> list[float]:
        return [math.log(s) / (n + 1) for n, s in enumerate(self.sizes)]


def _fast_encoding(group: FgAbelianGroup):
    """Cheap hashable encodings for hot sumset loops. Only the group's
    shape matters; decoding is never needed because only sizes are kept."""
    if group.torsion:
        orders = group.torsion
        def enc(e: AbelianElement):
            return e.lattice + e.torsion
        def add(a, b):
            p = group.rank
            lat = tuple(a[i] + b[i] for i in range(p))
            tor = tuple((a[p + i] + b[p + i]) % orders[i] for i in range(len(orders)))
            return lat + tor
        return enc, add
    if group.rank == 1:
        return (lambda e: e.lattice[0]), (lambda a, b: a + b)
    if group.rank == 2:
        # Integer pairs below 2^53 stay exact as complex components.
        return (lambda e: complex(e.lattice[0], e.lattice[1])), (lambda a, b: a + b)
    return (lambda e: e.lattice), (lambda a, b: tuple(x + y for x, y in zip(a, b)))


def growth_series(
    auto: AbelianAutomorphism,
    base: FiniteSubset,
    n_max: int,
    cap: int = DEFAULT_CAP,
) -> GrowthSeries:
    """Computes s_n = |E + gamma(E) + ... + gamma^(n-1)(E)| for n up to n_max,
    where E is the base set with 0 adjoined.

    Stops early when the next sumset would exceed cap (soft stop: the capped
    flag is set and only fully computed sizes are reported).
    """
    if auto.group != base.group:
        raise ShapeError("automorphism and base set live on different groups")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    group = auto.group
    zero = group.zero()
    e_elems = sorted(base.elements | {zero}, key=lambda e: e.key())

    enc, add = _fast_encoding(group)
    current = {enc(e) for e in e_elems}
    sizes = [len(current)]
    capped = False
    iterate = list(e_elems)
    for _ in range(1, n_max):
        iterate = [auto.apply(e) for e in iterate]
        shifts = [enc(e) for e in iterate]
        nxt: set = set()
        aborted = False
        for sh in shifts:
            nxt.update(add(p, sh) for p in current)
            if len(nxt) > cap:
                aborted = True
                break
        if aborted:
            capped = True
            break
        current = nxt
        sizes.append(len(current))
    return GrowthSeries(sizes=tuple(sizes), capped=capped)


def growth_rate_estimate(series: GrowthSeries, k: int = 3, tolerance: float = 0.0) -> EntropyEstimate:
    """Tail-difference estimator log(s_N / s_{N-k}) / k, which cancels the
    polynomial prefactor of the growth; the crude endpoint log(s_N)/N is
    reported alongside in the diagnostics."""
    s = series.sizes
    n = len(s)
    if n < 3:
        raise ValueError("need at least three computed sizes to estimate a rate")
    k_eff = min(k, n - 1)
    value = math.log(s[-1] / s[-1 - k_eff]) / k_eff
    return EntropyEstimate(
        value=value,
        method="peters",
        diagnostics={
            "sizes": list(s),
            "log_over_n": series.log_over_n(),
            "endpoint": math.log(s[-1]) / n,
            "tail_k": k_eff,
            "capped": series.capped,
            "zero_adjoined": series.zero_adjoined,
        },
        tolerance=tolerance,
    )
