"""Entropy from iterated sumset growth: the size of
E + gamma(E) + ... + gamma^(n-1)(E) grows exponentially at the entropy rate,
and submultiplicativity makes every log(s_n)/n an upper bound for the limit.

`growth_series` keeps each sumset as one sorted numpy array of packed keys
per torsion value. A lattice point is packed into one integer in balanced
mixed radix: digit i lies in [-B_i, B_i] and radix i is 2 B_i + 1, where B_i
is the sum of the largest |coordinate i| over the layers E, gamma(E), ...,
gamma^D(E) up to a horizon depth D at or past the depth reached. The box
only grows with the depth, so every sumset up to depth D lies in it: the
packing is injective on each of them, and it is linear, so packing a sum is
adding the packed keys. On reaching depth d past D the arrays are re-packed
for a new horizon: the deepest depth up to min(n_max - 1, 2 d + 32) whose
radices keep every key sum int64 (product below 2^62), or d itself when its
own radices do not. Past that point keys are Python ints in object arrays,
re-packed at every step, with the same code; either way the sizes are
exact. The layers, |E| points each, are built only as far as a horizon
needs them.

A step forms the next array of each torsion value as the union of the
previous arrays shifted by packed layer points: |E| sorted runs, merged
block by block over cuts of the key range, with repeats dropped per block.
The blocks hold at most _BLOCK // 2 sums each. A large union of int64 keys
alternates them between this thread and one worker, since numpy adds,
sorts, compares and copies int64 arrays without holding the interpreter
lock; a build passes sizes between the two. So at most two blocks, _BLOCK
sums, are in flight (see _union), and a step's working set beyond the two
sumsets does not grow with |E|. Only the sizes leave `growth_series`,
so the last step counts the distinct sums of each block and never builds
the last sumset.

The step before it may count as well (the pair route). With A the sumset
S_(n-2) and P the distinct sums of gamma^(n-2)(E) + gamma^(n-1)(E),
S_(n-1) = A + gamma^(n-2)(E) and S_n = A + P, since S_n = S_(n-1) +
gamma^(n-1)(E). So both sizes are counts over the runs of A, and S_(n-1),
the largest sumset the other (build) route builds, is never built.
P = gamma^(n-2)(E + gamma(E)) and gamma is a bijection, so |P| = s_2. The
pair route counts |P| s_(n-2) sums where the build route builds
|E| s_(n-2) sums and counts |E| s_(n-1); _pair_pays weighs the two from
sizes already known, so a series takes the pair route only from n = 4 on,
where s_2 and s_(n-3) are known, and only when its keys are already packed
for depth n - 1. Where the int64 horizon stops at n - 2 it keeps the build
route: re-packing a step early would move the count of s_(n-1) to
Python-int keys too, which run in one stream, while the build route
re-packs for its last count only.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .groups import (
    DEFAULT_CAP,
    AbelianAutomorphism,
    AbelianElement,
    FgAbelianGroup,
    ShapeError,
    SumsetCapError,
    _torsion_add,
)
from .spectral import EntropyEstimate

TAIL_K = 3
# A packing horizon set at depth d reaches at most depth 2 d + _LOOKAHEAD.
_LOOKAHEAD = 32
# A block of _union holds at most _BLOCK // 2 sums over all its shifted runs.
# Blocks alternate between this thread and one worker, and a build passes
# sizes between them, so at most _BLOCK sums are in flight (see _union).
_BLOCK = 1 << 17
# (pid, the call queue of the thread running _union's second stream or None),
# set on first use; a forked child starts its own thread.
_worker = None


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


@dataclass(frozen=True)
class GrowthSeries:
    """Sizes s_n of the partial sumsets, with 0 always adjoined to the base
    set so the series is nondecreasing."""

    sizes: tuple[int, ...]
    capped: bool

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be positive")
        # Submultiplicativity s_{n+m} <= s_n * s_m, checked on all computed
        # index pairs; a violation means the sumset bookkeeping is broken.
        # When s_k = s_(k-1) and s is nondecreasing up to k - 1, the pairs
        # summing to k follow from those summing to k - 1 (s_k = s_(k-1) <=
        # s_i s_(k-1-i) <= s_i s_(k-i), and s_1 >= 1), and so does the first
        # failing pair, so k is skipped: a constant tail costs O(n), not O(n^2).
        # In a nondecreasing series every s_k is at most the last size s_n,
        # so a pair with s_i s_(k-i) >= s_n cannot fail: for each i only the
        # k - i with s_(k-i) <= (s_n - 1) // s_i are left, a prefix found by
        # one bisect. The pairs left are visited in the order of the full
        # check, so the first failing pair is the same. Sizes from
        # growth_series rise strictly before a constant tail, so s_j >= j
        # there and about s_n log n pairs are left at most.
        s = self.sizes
        checked, rising = [], True
        for k in range(2, len(s) + 1):
            if not (rising and s[k - 1] == s[k - 2]):
                checked.append(k)
            rising = rising and s[k - 2] <= s[k - 1]
        for i in range(1, len(s) + 1):
            last = i + bisect.bisect_right(s, (s[-1] - 1) // s[i - 1]) if rising else len(s)
            for k in checked[bisect.bisect_right(checked, i):bisect.bisect_right(checked, last)]:
                if s[k - 1] > s[i - 1] * s[k - i - 1]:
                    raise ValueError(
                        f"growth series is not submultiplicative at ({i},{k - i})"
                    )

    def log_over_n(self) -> list[float]:
        return [math.log(s) / (n + 1) for n, s in enumerate(self.sizes)]


def _layout(np, bounds: Sequence[int]):
    """Place values of the balanced mixed radix whose digit i lies in
    [-B_i, B_i] (radix 2 B_i + 1), and the key dtype: int64 while the
    product of the radices, which bounds every key sum, stays below 2^62."""
    weights, product = [], 1
    for b in bounds:
        weights.append(product)
        product *= 2 * b + 1
    return weights, (np.int64 if product < 2**62 else object)


def _pack(lattice: Sequence[int], weights: Sequence[int]) -> int:
    return sum(c * w for c, w in zip(lattice, weights))


def _repack(np, keys, bounds: Sequence[int], weights: Sequence[int], dtype):
    """Decodes keys packed with digit bounds `bounds` and encodes the same
    digits with the place values `weights`; keys stay in sorted order."""
    rest = keys.astype(dtype, copy=False)
    out = np.zeros(len(keys), dtype=dtype)
    for b, w in zip(bounds, weights):
        digit = (rest + b) % (2 * b + 1) - b
        rest = (rest - digit) // (2 * b + 1)
        out += digit * w
    return out


def _cuts(np, parts, budget):
    """The sorted cuts of the key range that split the sums a + x over the m
    pairs (a, x) in parts, each a sorted array of distinct keys and a packed
    shift, into blocks [cut_(i-1), cut_i) of at most (2 m - 1) step sums in
    all, where step = max(1, budget // (2 m)): so at most budget sums, or
    2 m when budget < 2 m. There are about 2 (sum of |a|) / budget blocks.

    Every step-th key of every shifted run is a candidate, and every m-th
    candidate in sorted order is a cut. A run has at most step keys between
    two of its candidates, before its first or from its last, so a block
    holding k of its candidates holds at most (k + 1) step of its keys, and
    k step when one of them is the block's lower cut. A block holds the
    candidates from its lower cut's position up to the next cut's, at most
    m, and besides them only candidates equal to its lower cut; those are
    of distinct runs (a run's keys are distinct), each of which then has no
    keys below its first candidate in the block. So a block holds at most
    (m + t - 1) step + (m - t) step sums, t the number of runs with a
    candidate at the lower cut.
    """
    m = len(parts)
    step = max(1, budget // (2 * m))
    candidates = np.concatenate([a[step::step] + x for a, x in parts])
    candidates.sort()
    return candidates[m - 1::m]


def _union(np, parts: list, limit: int, count: bool = False):
    """The sorted distinct values a + x over the pairs (a, x) in parts, each
    a sorted array of distinct keys and a packed shift, or None when there
    are more than limit of them. With count set, only their number is
    returned (still None past limit), and no output array is allocated.

    The key range is cut by _cuts into blocks of at most _BLOCK // 2 sums,
    and one searchsorted per run finds its slice of every block. Equal sums
    lie in one block, so each block is shifted, sorted (a stable sort merges
    its sorted runs) and stripped of repeats on its own (_stream). A union
    of int64 keys with at least _BLOCK sums alternates its blocks between
    this thread (the even ones) and one worker (the odd ones). A build
    passes sizes between the two, so each copies a block's distinct sums
    into out at the size reached before it; a count adds the two counts.
    The worker's outcome is always awaited, so no block is in flight once
    this returns or raises, and an exception raised in the worker is
    raised here. Any other union runs its blocks in this thread. Either way
    at most two blocks, _BLOCK sums, are in flight, whatever the number of
    runs. Object (Python-int) keys stay in one stream, since numpy holds
    the interpreter lock on object arrays, and so does a process that may
    use only one CPU.
    """
    dtype = parts[0][0].dtype
    total = sum(len(a) for a, _ in parts)
    cuts = _cuts(np, parts, _BLOCK // 2)
    # bounds[r, i] is the number of keys of run r below the i-th cut.
    bounds = np.empty((len(parts), len(cuts) + 2), dtype=np.intp)
    bounds[:, 0] = 0
    for r, (a, x) in enumerate(parts):
        bounds[r, 1:-1] = np.searchsorted(a, cuts - x)
        bounds[r, -1] = len(a)
    width = int(np.diff(bounds, axis=1).sum(axis=0).max(initial=0))
    # The output is allocated once at its largest possible size and shrunk
    # at the end: pages that are never written never become resident.
    out = None if count else np.empty(min(total, limit), dtype=dtype)
    rows, blocks = bounds.tolist(), range(len(cuts) + 1)
    calls = _second_stream() if dtype != object and total >= _BLOCK else None
    if calls is None:
        size = _stream(np, parts, rows, width, out, limit, blocks)
    else:
        import queue

        done, to_me, to_worker = queue.SimpleQueue(), None, None
        if not count:
            to_me, to_worker = queue.SimpleQueue(), queue.SimpleQueue()
            to_me.put(0)
        call = functools.partial(_stream, np, parts, rows, width, out, limit, blocks[1::2], to_worker, to_me)
        calls.put((call, done))
        try:
            size = _stream(np, parts, rows, width, out, limit, blocks[0::2], to_me, to_worker)
        finally:
            other, error = done.get()
        if error is not None:
            raise error
        if size is None or other is None:
            return None
        size = size + other if count else max(size, other)
    # Two counts within limit each can pass it together.
    if size is None or size > limit:
        return None
    if count:
        return size
    # No view of out exists any more, so shrinking it in place is safe; the
    # dropped tail holds only unwritten slots.
    out.resize(size, refcheck=False)
    return out


def _stream(np, parts, rows, width, out, limit, blocks, take=None, give=None):
    """Merges the given blocks of _union in order, rows[r][i] being the
    number of keys of run r below block i, and returns the number of
    distinct sums (None once it passes limit). With out set, each block's
    distinct sums are copied into out at the size reached before it. With
    take and give set, a block takes that size from take just before its
    copy and puts the size after it on give, so two streams that alternate
    blocks write out in key order. A stream that ends early (None taken,
    limit passed, or an exception raised) puts None on give, once, and
    nothing after it, so the other stream never waits for a size that
    cannot come."""
    size, finished = 0, False
    try:
        block = np.empty(width, dtype=parts[0][0].dtype)
        keep = np.empty(width, dtype=bool)
        for i in blocks:
            n = 0
            for (a, x), row in zip(parts, rows):
                lo, hi = row[i], row[i + 1]
                np.add(a[lo:hi], x, out=block[n:n + hi - lo])
                n += hi - lo
            sums = block[:n]
            if n:
                sums.sort(kind="stable")
                keep[0] = True
                np.not_equal(sums[1:], sums[:-1], out=keep[1:n])
            fresh = int(np.count_nonzero(keep[:n]))
            if take is not None:
                size = take.get()
            if size is None or size + fresh > limit:
                return None
            if out is not None:
                np.compress(keep[:n], sums, out=out[size:size + fresh])
            size += fresh
            if give is not None:
                give.put(size)
        finished = True
        return size
    finally:
        if give is not None and not finished:
            give.put(None)


def _second_stream():
    """The call queue of the thread that runs the second stream of _union,
    started on first use and reused; None when this process may use only
    one CPU. The thread is a daemon that holds nothing between calls, so a
    process never waits for it to exit."""
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
        calls = None
        if len(cpus) > 1:
            import queue
            import threading

            calls = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(calls,), name="dualent-union", daemon=True).start()
        _worker = (os.getpid(), calls)
    return _worker[1]


def _serve(calls):
    """Runs each (call, done) taken from calls, until a None, and puts
    (result, None) or (None, exception) on done. A call is one stream of
    _union, which signals its partner itself when it ends early."""
    for call, done in iter(calls.get, None):
        try:
            outcome = call(), None
        except BaseException as exc:  # raised again by the caller, in its thread
            outcome = None, exc
        # Drop the union's arrays before waiting for the next call.
        del call
        done.put(outcome)
        del outcome


def _pair_pays(e: int, p: int, older: int, old: int) -> bool:
    """Whether the pair route (see the module docstring) is expected to
    cost less than the build route for the last two sizes, from e = |E|,
    p = |P| = s_2, older = s_(n-3) and old = s_(n-2).

    A union of k sums over m runs is priced k (1 + m/64) as a count and
    k (2 + m/64) as a build. A build also writes each distinct sum into
    freshly faulted pages: the 2,056,912 sums of the cat-corner step to
    s_14 took 3.5-3.9 ms to count and 11.9-12.8 ms to build (2 CPUs). A
    block of up to _BLOCK // 2 sums makes one numpy call per run and
    merges m sorted runs, so each run adds to the cost of every sum. The
    pair route counts e and p runs of old keys; the build route builds e
    runs of old keys and counts e runs of s_(n-1) keys, s_(n-1) estimated
    as old^2 / older. Without the count of e old sums that both make, the
    pair route pays when p (1 + p/64) old <= e old + e (1 + e/64) old^2 /
    older, which times 64 older / old is the test below. It chose the
    faster route on 13 of 14 series timed both ways in-process (the
    perfbench growth jobs, and cat-map, squared cat-map and 3-D bases of
    4 to 121 points to n = 4 to 12); on the 14th, the corners to n = 5,
    the routes differed by 0.1 ms. A build weight of 3 would have taken
    the pair route on the Z^2 x Z/2 job, where it was 7-9% slower.
    """
    return p * (64 + p) * older <= e * (64 * older + (64 + e) * old)


def growth_series(
    auto: AbelianAutomorphism,
    base: FiniteSubset,
    n_max: int,
    cap: int = DEFAULT_CAP,
) -> GrowthSeries:
    """Computes s_n = |E + gamma(E) + ... + gamma^(n-1)(E)| for n up to n_max,
    where E is the base set with 0 adjoined.

    Stops early when the next sumset would exceed cap (soft stop: the capped
    flag is set and only fully computed sizes are reported); raises
    SumsetCapError when s_1 = |E with 0| alone exceeds cap. S_(n+1) =
    E + gamma(S_n) holds S_n, so once a size repeats the sumsets stay that
    set: the remaining sizes are copied, and no further step is taken.

    Each sumset is one sorted array of packed lattice keys per torsion value
    (see the module docstring); a step merges, for each target torsion
    value, the previous arrays shifted by the packed layer points, block by
    block, dropping repeats as it goes (`_union`: blocks of at most
    _BLOCK // 2 sums, alternated between this thread and one worker when
    the union is large). So it holds the previous and the next sumset plus
    the blocks in flight, at most _BLOCK sums together, never all |E| s_n
    sums.
    The last step only counts the distinct sums, so it holds the previous
    sumset and the blocks in flight. From n_max = 4 on, when _pair_pays
    prices it lower, the step before it counts too, and the last step
    counts the sums of S_(n-2) and P = gamma^(n-2)(E) + gamma^(n-1)(E)
    (the pair route): then no sumset past S_(n-2) is built. Both routes
    give the same sizes, caps and fixed points, since the pair route
    counts exactly the sets the build route builds and counts.
    """
    import numpy as np  # deferred so that importing the CLI stays cheap

    if auto.group != base.group:
        raise ShapeError("automorphism and base set live on different groups")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    group = auto.group
    orders = group.torsion

    def layer_bounds(elements):
        return [max(abs(e.lattice[i]) for e in elements) for i in range(group.rank)]

    # layers[k] is gamma^k(E) and bounds[k] the digit bounds of the sumset
    # at depth k; both are built on demand, |E| points per depth.
    layers = [sorted(base.elements | {group.zero()}, key=lambda e: e.key())]
    bounds = [layer_bounds(layers[0])]

    def bounds_at(depth):
        while len(bounds) <= depth:
            layers.append([auto.apply(e) for e in layers[-1]])
            bounds.append([b + m for b, m in zip(bounds[-1], layer_bounds(layers[-1]))])
        return bounds[depth]

    def horizon(depth):
        """The deepest depth, at most min(n_max - 1, 2 depth + _LOOKAHEAD),
        whose radices keep the keys int64; depth itself when its own do not."""
        last = min(n_max - 1, 2 * depth + _LOOKAHEAD)
        reach = depth
        while reach < last and _layout(np, bounds_at(reach + 1))[1] is np.int64:
            reach += 1
        return reach

    reach = horizon(0)
    weights, dtype = _layout(np, bounds_at(reach))
    buckets: dict[tuple[int, ...], list[int]] = {}
    for e in layers[0]:
        buckets.setdefault(e.torsion, []).append(_pack(e.lattice, weights))
    current = {t: np.array(sorted(keys), dtype=dtype) for t, keys in buckets.items()}
    sizes = [len(layers[0])]
    if sizes[0] > cap:
        raise SumsetCapError(cap, sizes[0])
    capped, pairs = False, None
    for depth in range(1, n_max):
        if depth > reach:
            old_bounds = bounds_at(reach)
            reach = horizon(depth)
            weights, dtype = _layout(np, bounds_at(reach))
            current = {
                t: _repack(np, keys, old_bounds, weights, dtype)
                for t, keys in current.items()
            }
        shifts = pairs or [(_pack(e.lattice, weights), e.torsion) for e in layers[depth]]
        count = depth == n_max - 1
        # The pair route: S_(n-1) is only counted, and the last depth adds
        # P to S_(n-2). P = gamma^depth(E + gamma(E)) has s_2 points, and
        # its sums with S_(n-2) lie in the box of depth n_max - 1, for
        # which the keys must already be packed.
        if depth == n_max - 2 >= 2 and reach > depth and _pair_pays(*sizes[:2], *sizes[-2:]):
            following = [(_pack(e.lattice, weights), e.torsion) for e in layers[depth + 1]]
            pairs = sorted({(x + y, _torsion_add(u, v, orders)) for x, u in shifts for y, v in following})
            count = True
        pending: dict[tuple[int, ...], list] = {}
        for (t, keys), (x, u) in itertools.product(current.items(), shifts):
            pending.setdefault(_torsion_add(t, u, orders), []).append((keys, x))
        # Each target torsion value's union reads the previous sumset, which
        # is released once they are all built; the cap still left bounds
        # each union, so capped is set exactly when the sumset exceeds cap.
        unions, left = {}, cap
        for s, parts in pending.items():
            union = _union(np, parts, left, count=count)
            if union is None:
                capped = True
                break
            if count:
                left -= union
            else:
                unions[s] = union
                left -= len(union)
        if capped:
            break
        del pending, parts
        if not count:
            current = unions
        sizes.append(cap - left)
        if sizes[-1] == sizes[-2]:
            # S_(d+1) = E + gamma(S_d) holds S_d, so equal sizes mean equal
            # sets, and every later sumset is that set too.
            sizes += sizes[-1:] * (n_max - 1 - depth)
            break
    return GrowthSeries(sizes=tuple(sizes), capped=capped)


def growth_rate_estimate(series: GrowthSeries) -> EntropyEstimate:
    """Tail-difference estimator log(s_N / s_{N-k}) / k with k = TAIL_K (or
    fewer when fewer sizes exist), which cancels the polynomial prefactor of
    the growth; the crude endpoint log(s_N)/N is reported alongside in the
    diagnostics. The estimate carries no tolerance (0.0)."""
    s = series.sizes
    n = len(s)
    if n < 3:
        raise ValueError("need at least three computed sizes to estimate a rate")
    k_eff = min(TAIL_K, n - 1)
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
            "zero_adjoined": True,  # growth_series always adjoins 0 to the base
        },
    )
