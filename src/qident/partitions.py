"""Integer partitions, gap-constrained chains, and the exhaustive enumerations
used as independent counting oracles.

Every search generates its constrained set directly, depth first, visiting
only members rather than listing all partitions and filtering them.
``enumerate_chain`` lists the chain vectors of one weight.  The counting
functions visit every member up to a weight bound once and add 1 to its
weight's count without building it.  ``repetition_bounded_walk`` yields each
partition as a bare part tuple with its weight, the domain on which ``verify``
certifies ``conjugate`` and the divide-by-M maps, all on bare part tuples.

Everything in this module counts by explicit construction.  None of it touches
the series algebra (the only import from ``series`` is the ResidueClass data
type), so agreement between chain enumeration and series coefficients is a
genuine two-route cross-check.
"""

from collections.abc import Iterable, Iterator, Sequence
from functools import total_ordering
from itertools import accumulate

from ._record import Record
from .series import ResidueClass

__all__ = [
    "Partition",
    "GapBound",
    "ChainConstraint",
    "parse_partition",
    "conjugate",
    "chain_violation",
    "enumerate_chain",
    "count_chain_by_weight",
    "count_bounded_gap_vectors",
    "count_partitions_with_parts",
    "repetition_bounded_walk",
]


@total_ordering
class Partition(Record):
    """Weakly decreasing tuple of positive parts, and their sum, ``weight``,
    which is not a field.  Partitions order lexicographically by their parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p} at position {i + 1}")
            if i and self.parts[i - 1] < p:
                raise ValueError(
                    f"parts must be weakly decreasing, got {self.parts[i - 1]} "
                    f"before {p}"
                )
        object.__setattr__(self, "weight", sum(self.parts))

    @classmethod
    def _ordered(cls, parts: tuple[int, ...]) -> "Partition":
        """Build from parts already positive and weakly decreasing, skipping
        the checks; only for callers whose output is ordered by construction."""
        p = object.__new__(cls)
        p.__dict__.update(parts=parts, weight=sum(parts))
        return p

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def from_vector(cls, vector: Sequence[int]) -> "Partition":
        """Drop the trailing zeros of a chain vector, keep the positive prefix."""
        k = len(vector)
        while k and vector[k - 1] == 0:
            k -= 1
        return cls(tuple(vector[:k]))

    def __len__(self) -> int:
        return len(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts if other.__class__ is self.__class__ else NotImplemented

    def __str__(self) -> str:
        return _bracketed(self.parts)


def _bracketed(vector: Sequence[int]) -> str:
    """The bracketed form ``[7,6,4,2,1]`` that ``parse_partition`` reads."""
    return "[" + ",".join(map(str, vector)) + "]"


def parse_partition(text: str) -> Partition:
    """Parse the bracketed form ``[7,6,4,2,1]``; the empty partition is ``[]``."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"partition literal must be bracketed, got {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return Partition(())
    try:
        parts = tuple(int(tok) for tok in inner.split(","))
    except ValueError:
        raise ValueError(f"invalid partition literal {text!r}") from None
    return Partition(parts)


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram of positive, weakly decreasing parts;
    an involution preserving weight.

    One scan from the smallest part up: the columns from the previous part's
    value + 1 to this part's value each hold one cell per part not smaller
    than it.  A part equal to the previous one adds no column, only lowers
    the height."""
    out: list[int] = []
    height = len(parts)
    previous = 0
    for part in reversed(parts):
        if part != previous:
            out += [height] * (part - previous)
            previous = part
        height -= 1
    return tuple(out)


class GapBound(Record):
    """Bounds r <= a - b <= s on one adjacent difference; no upper if ``upper``
    is None."""

    lower: int
    upper: int | None = None

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError("gap lower bound must be nonnegative")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError(f"gap upper bound {self.upper} below lower {self.lower}")

    def admits(self, difference: int) -> bool:
        if difference < self.lower:
            return False
        return self.upper is None or difference <= self.upper


class ChainConstraint(Record):
    """Per-slot difference bounds a_1 >= a_2 >= ... >= a_m >= 0.

    ``gaps[s]`` constrains a_{s+1} - a_{s+2}; ``terminal`` constrains the last
    entry a_m itself (its difference from 0).
    """

    gaps: tuple[GapBound, ...]
    terminal: GapBound

    @property
    def slots(self) -> int:
        return len(self.gaps) + 1


def chain_violation(vector: Sequence[int], chain: ChainConstraint) -> str | None:
    """Description of the first violated position, or None if the vector
    satisfies the chain."""
    if len(vector) != chain.slots:
        raise ValueError(
            f"vector length {len(vector)} does not match {chain.slots} slots"
        )
    for s, bound in enumerate(chain.gaps):
        d = vector[s] - vector[s + 1]
        if not bound.admits(d):
            return (
                f"difference {d} between slots {s + 1} and {s + 2} violates "
                f"[{bound.lower}, {'inf' if bound.upper is None else bound.upper}]"
            )
    last = vector[-1]
    if not chain.terminal.admits(last):
        return (
            f"terminal value {last} violates "
            f"[{chain.terminal.lower}, "
            f"{'inf' if chain.terminal.upper is None else chain.terminal.upper}]"
        )
    return None


def _chain_minima(chain: ChainConstraint) -> tuple[list[int], list[int]]:
    """Smallest feasible value at each slot, forced by the lower gaps and the
    terminal, and the smallest sum of the slots from each position on."""
    m = chain.slots
    min_value = [0] * m
    min_value[m - 1] = chain.terminal.lower
    for s in range(m - 2, -1, -1):
        min_value[s] = min_value[s + 1] + chain.gaps[s].lower
    min_tail = [0] * (m + 1)
    for s in range(m - 1, -1, -1):
        min_tail[s] = min_tail[s + 1] + min_value[s]
    return min_value, min_tail


def enumerate_chain(chain: ChainConstraint, weight: int) -> list[tuple[int, ...]]:
    """All nonnegative vectors of length ``chain.slots`` satisfying the chain
    and summing to ``weight``, in lexicographically decreasing order.

    Depth-first over slots from the largest down, pruning on the remaining
    weight against the minimal and maximal sums still achievable.  The search
    keeps its own stack of prefixes, so a chain of any number of slots is
    listed without recursion.
    """
    if weight < 0:
        return []
    m = chain.slots
    lows = [g.lower for g in chain.gaps]
    highs = [g.upper for g in chain.gaps]
    min_value, min_tail = _chain_minima(chain)
    # Below a value v at slot s, slot t > s is at most v - (drop[t] - drop[s]),
    # drop[t] being the sum of the lower gaps before slot t.  That is at least
    # min_value[t] = min_value[s] - (drop[t] - drop[s]) whenever v is at least
    # min_value[s], as every candidate is, and the later slots hold at most
    # the sum of those tops, (m-1-s)(v + drop[s]) - later_drops[s+1] with
    # later_drops[t] the sum of drop[t:].
    drop = list(accumulate(lows, initial=0))
    later_drops = [0, *accumulate(reversed(drop))]
    later_drops.reverse()
    out: list[tuple[int, ...]] = []

    stack = [(0, 0, weight, ())]
    while stack:
        s, prev, remaining, prefix = stack.pop()
        lo = min_value[s]
        hi = remaining - min_tail[s + 1]
        if s > 0:
            hi = min(hi, prev - lows[s - 1])
            if highs[s - 1] is not None:
                lo = max(lo, prev - highs[s - 1])
        if s == m - 1:
            v = remaining
            if lo <= v <= hi and chain.terminal.admits(v):
                out.append(prefix + (v,))
            continue
        # the least v whose later slots can hold the rest, remaining - v
        k = m - 1 - s
        lo = max(lo, -((k * drop[s] - later_drops[s + 1] - remaining) // (k + 1)))
        # the largest value on top, so vectors come out in decreasing order
        stack += [(s + 1, v, remaining - v, prefix + (v,)) for v in range(lo, hi + 1)]
    return out


def count_chain_by_weight(chain: ChainConstraint, max_weight: int) -> list[int]:
    """Counts of chain vectors for every weight 0..max_weight.

    One depth-first search over every vector of weight at most
    ``max_weight``; each vector is visited once and adds 1 to the count of its
    weight, and none is built.  The search keeps its own stack of frames, each
    a slot, the range of values it takes below one prefix and that prefix's
    weight, so a chain of any number of slots counts without recursion.
    """
    counts = [0] * (max_weight + 1)
    if max_weight < 0:
        return counts
    last = chain.slots - 1
    lows = [g.lower for g in chain.gaps]
    highs = [g.upper for g in chain.gaps]
    top = max_weight if chain.terminal.upper is None else chain.terminal.upper
    min_value, min_tail = _chain_minima(chain)
    hi = max_weight - min_tail[1]
    if not last:  # one slot: each value is a vector of its own weight
        for weight in range(min_value[0], min(hi, top) + 1):
            counts[weight] += 1
        return counts
    stack = [(0, min_value[0], hi, 0)]
    while stack:
        s, lo, hi, used = stack.pop()
        nxt = s + 1
        gap, upper = lows[s], highs[s]
        floor, room = min_value[nxt], max_weight - min_tail[nxt + 1]
        leaf = nxt == last
        for v in range(lo, hi + 1):  # the range of slot nxt below each value v
            w = used + v
            next_lo = floor if upper is None or v - upper <= floor else v - upper
            next_hi = v - gap
            if room - w < next_hi:
                next_hi = room - w
            if leaf:
                if top < next_hi:
                    next_hi = top
                for weight in range(w + next_lo, w + next_hi + 1):
                    counts[weight] += 1
            elif next_lo <= next_hi:
                stack.append((nxt, next_lo, next_hi, w))
    return counts


def count_bounded_gap_vectors(modulus: int, max_weight: int) -> list[int]:
    """Counts, for every weight 0..max_weight, of the nonempty vectors whose
    adjacent differences a_s - a_{s+1} lie in [0, M-1] and whose last entry
    lies in [1, M-1], over every length at once.

    One depth-first search that reads each vector from its last entry up: a
    node is a vector, and its children put one more entry in front of it, the
    current first entry plus d for d in [0, M-1].  Every node is a vector of
    its own length, so each adds 1 to the count of its weight, and none is
    built.  The counts equal those of ``count_chain_by_weight`` on the
    uniform chain of each slot count, summed over the slot counts.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    counts = [0] * (max_weight + 1)

    def grow(first: int, used: int) -> None:
        counts[used] += 1
        for value in range(first, first + modulus):
            if used + value > max_weight:
                break
            grow(value, used + value)

    for last in range(1, min(modulus - 1, max_weight) + 1):
        grow(last, last)
    return counts


def count_partitions_with_parts(rc: ResidueClass, max_weight: int) -> list[int]:
    """Counts of partitions into parts allowed by ``rc`` for every weight
    0..max_weight.

    One depth-first search over every such partition of weight at most
    ``max_weight`` with no copy of the smallest allowed part, adding parts from
    the largest down; each is visited once and adds 1 at its weight, and none
    is built.  Every partition is one of these followed by a run of the
    smallest part, so the count at a weight is the running sum, over the
    weights below it in steps of the smallest part, of those visits.
    """
    counts = [0] * (max_weight + 1)
    if max_weight < 0:
        return counts
    allowed = [k for k in range(1, max_weight + 1) if rc.allows(k)]
    if not allowed:
        counts[0] = 1
        return counts
    smallest = allowed[0]
    starts = [0] * (max_weight + 1)

    def grow(used: int, limit: int) -> None:
        starts[used] += 1
        room = max_weight - used
        for i in range(1, limit):
            part = allowed[i]
            if part > room:
                break
            grow(used + part, i + 1)

    grow(0, len(allowed))
    for residue in range(smallest):
        counts[residue::smallest] = accumulate(starts[residue::smallest])
    return counts


def repetition_bounded_walk(
    max_weight: int, modulus: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every partition of weight at most ``max_weight`` in which each part
    value occurs fewer than ``modulus`` times, as ``(weight, parts)`` pairs.

    One depth-first walk in pre-order: a node is a partition, and its children
    append a run of a smaller part value, at most ``modulus - 1`` copies,
    largest value first and largest count first.  Each partition is visited
    once, so every weight's partitions come in lexicographically decreasing
    order, interleaved with those of the other weights.  The runs of each
    part value, with their weights, are built once per call, and each stack
    entry is the pair the walk yields: the largest part a child may append is
    one less than the node's last part.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if max_weight < 0:
        return
    # runs[part][c - 1] is (c * part, c copies of part), for as many copies
    # as fit under the bound
    runs = [()] + [
        tuple((part * count, (part,) * count)
              for count in range(1, min(modulus - 1, max_weight // part) + 1))
        for part in range(1, max_weight + 1)
    ]
    yield 0, ()
    # children go on the stack smallest first, so the largest comes off first;
    # the root's are the runs themselves
    stack = [run for by_count in runs for run in by_count]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        yield node
        weight, parts = node
        room = max_weight - weight
        largest = parts[-1]
        if largest > room:
            largest = room + 1
        for part in range(1, largest):
            for w, run in runs[part][: room // part]:
                push((weight + w, parts + run))
