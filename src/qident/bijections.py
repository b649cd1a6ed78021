"""Explicit partition bijections and exhaustive certification.

Three maps live here: swapping the offsets of two interpretations that share a
term family (a pure shift on the underlying base vector), the two-step map
from congruence-restricted partitions onto the classical gap-2 chains of the
second Rogers-Ramanujan identity, and the divide-by-M / merge-M-copies pair
behind Euler-Glaisher equinumerosity.  The pair, ``glaisher_forward`` and
``glaisher_inverse``, maps bare part tuples and is the very pair ``verify``
certifies; the ``*_steps`` functions list the intermediate rewritings of
``Partition`` objects for display.
"""

from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from ._record import Record
from .partitions import ChainConstraint, Partition, _bracketed, chain_violation
from .profiles import ProfileFamily, profile_to_chain

__all__ = [
    "BijectionRecord",
    "CertificationReport",
    "profile_bijection",
    "rr2_step_c",
    "rr2_forward",
    "rr2_record",
    "rr2_inverse",
    "weight_relation_check",
    "glaisher_forward",
    "glaisher_forward_steps",
    "glaisher_inverse",
    "glaisher_inverse_steps",
    "certify_bijection",
]


class BijectionRecord(Record):
    """One application of a map: input and output vectors with their weights
    and the term index n."""

    source: tuple[int, ...]
    image: tuple[int, ...]
    term_index: int
    source_weight: int
    image_weight: int

    def __post_init__(self) -> None:
        if self.source_weight != sum(self.source):
            raise ValueError("recorded source weight does not match the vector")
        if self.image_weight != sum(self.image):
            raise ValueError("recorded image weight does not match the vector")


def profile_bijection(
    vector: Sequence[int],
    source: ProfileFamily,
    target: ProfileFamily,
    index: int,
) -> tuple[int, ...]:
    """Map a vector satisfying the source profile's chain at ``index`` onto the
    target profile's chain by swapping offsets slotwise:

        b_s = a_s - pi_source(index, s) + pi_target(index, s).

    The underlying base vector a_s - pi_source(index, s) is preserved, so the
    same call with source and target exchanged inverts the map.
    """
    src = source.offsets_at(index)
    tgt = target.offsets_at(index)
    if len(src) != len(tgt):
        raise ValueError(
            f"slot counts differ at index {index}: "
            f"{source.name} has {len(src)}, {target.name} has {len(tgt)}"
        )
    v = tuple(vector)
    if len(v) != len(src):
        raise ValueError(f"vector length {len(v)} does not match {len(src)} slots")
    violation = chain_violation(v, profile_to_chain(source, index))
    if violation is not None:
        raise ValueError(f"input violates the chain of {source.name}: {violation}")
    return tuple(a - sa + ta for a, sa, ta in zip(v, src, tgt))


def _require_rr2_parts(parts: tuple[int, ...]) -> None:
    for i, p in enumerate(parts, start=1):
        if p % 5 not in (2, 3):
            raise ValueError(
                f"part {p} (position {i}) is not congruent to 2 or 3 mod 5"
            )


def rr2_step_c(a: Partition) -> tuple[int, ...]:
    """First step of the map: c_s = a_s - 3*floor(a_s/5) - 1, plus n^2 on the
    first slot, n the number of parts.  The image satisfies
    c_1 >= c_2 + n^2 >= ... >= c_n >= 1."""
    parts = a.parts
    n = len(parts)
    _require_rr2_parts(parts)
    return tuple(
        p - 3 * (p // 5) - 1 + (n * n if s == 1 else 0)
        for s, p in enumerate(parts, start=1)
    )


def rr2_forward(a: Partition) -> tuple[int, ...]:
    """Full map onto the classical chain b_1 >=_2 ... >=_2 b_n >= 2: the first
    step above followed by the offset swap from (n^2+1, 1, ..., 1) to
    (2n, 2n-2, ..., 2).  Preserves the number of parts, not the weight."""
    c = rr2_step_c(a)
    n = len(c)
    out = []
    for s, value in enumerate(c, start=1):
        first_offsets = n * n + 1 if s == 1 else 1
        classical_offsets = 2 * (n + 1 - s)
        out.append(value - first_offsets + classical_offsets)
    return tuple(out)


def rr2_record(a: Partition) -> BijectionRecord:
    image = rr2_forward(a)
    return BijectionRecord(
        source=a.parts,
        image=image,
        term_index=len(a.parts),
        source_weight=a.weight,
        image_weight=sum(image),
    )


def rr2_inverse(b: Sequence[int]) -> Partition:
    """Invert the map: k_s = floor((b_s - 1 - n^2*d(1,s) - pi_c(s) + pi_1(s))/2)
    recovers floor(a_s/5), then a_s = b_s + 3k_s + 1 - n^2*d(1,s) - pi_c(s)
    + pi_1(s), n the number of slots.  Input must satisfy the classical gap-2
    chain."""
    v = tuple(b)
    n = len(v)
    if n:
        chain = ChainConstraint((2,) * (n - 1), 2)
        violation = chain_violation(v, chain)
        if violation is not None:
            raise ValueError(f"input violates the gap-2 chain: {violation}")
    parts = []
    for s, value in enumerate(v, start=1):
        delta = n * n if s == 1 else 0
        pi_first = n * n + 1 if s == 1 else 1
        pi_classical = 2 * (n + 1 - s)
        k = (value - 1 - delta - pi_classical + pi_first) // 2
        parts.append(value + 3 * k + 1 - delta - pi_classical + pi_first)
    return Partition(tuple(parts))


def _rr2_shift(parts: Sequence[int]) -> int:
    """sum(3*floor(a_s/5) + 1): the weight the first step takes from the
    parts a_s before it adds n^2."""
    return sum(3 * (p // 5) + 1 for p in parts)


def weight_relation_check(record: BijectionRecord) -> bool:
    """Exact check of N_out = N_in + n^2 - sum(3*floor(a_s/5) + 1) for a
    record produced by rr2_record."""
    shift = _rr2_shift(record.source)
    return record.image_weight == record.source_weight + record.term_index**2 - shift


def glaisher_forward_steps(p: Partition, modulus: int) -> list[Partition]:
    """Iterate "replace every part divisible by M with M copies of part/M"
    until no part is divisible by M; returns all intermediate partitions,
    starting with the input.  Each pass rewrites every divisible part at once.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    steps = [p]
    current = p
    while not all(part % modulus for part in current.parts):
        expanded: list[int] = []
        for part in current.parts:
            if part % modulus == 0:
                expanded.extend([part // modulus] * modulus)
            else:
                expanded.append(part)
        current = Partition._ordered(tuple(sorted(expanded, reverse=True)))
        steps.append(current)
    return steps


def glaisher_forward(parts: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """The fixed point of the divide-by-M expansion in one pass: each part
    r*M^k with r not divisible by M becomes M^k copies of r.  Preserves the
    weight and lands in the no-part-divisible-by-M set; the parts of the last
    of ``glaisher_forward_steps``, computed without the intermediate steps.

    Parts that are already a fixed point, weakly decreasing with no part
    divisible by M, come back as the very tuple passed in; parts out of order
    come back sorted.  A part 0, divisible by every power of M, raises
    ``ValueError``, and so does a modulus below 2."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    out: list[int] = []
    fixed = True
    above = parts[0] if parts else 0
    for part in parts:
        if part % modulus:
            if part > above:
                fixed = False
            above = part
            out.append(part)
            continue
        fixed = False
        if not part:
            raise ValueError(f"part 0 has no fixed point under division by {modulus}")
        copies = 1
        while part % modulus == 0:
            part //= modulus
            copies *= modulus
        out += [part] * copies
    if fixed:
        return parts
    out.sort(reverse=True)
    return tuple(out)


def glaisher_inverse_steps(p: Partition, modulus: int) -> list[Partition]:
    """Iterate "merge every group of M equal parts into one part of M times
    the value" until every part occurs fewer than M times; returns all
    intermediate partitions, starting with the input."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    steps = [p]
    current = p
    while True:
        counts = Counter(current.parts)
        if all(c < modulus for c in counts.values()):
            return steps
        merged: list[int] = []
        for value, count in counts.items():
            groups, rest = divmod(count, modulus)
            merged.extend([value * modulus] * groups)
            merged.extend([value] * rest)
        current = Partition._ordered(tuple(sorted(merged, reverse=True)))
        steps.append(current)


def _merge_root(value: int, count: int, modulus: int) -> tuple[int, int]:
    """A run of ``count`` copies of r*M^k, r not divisible by M, as its root r
    and the count*M^k copies of r it stands for."""
    if not value:
        raise ValueError(f"part 0 has no fixed point under merging by {modulus}")
    while value % modulus == 0:
        value //= modulus
        count *= modulus
    return value, count


def glaisher_inverse(parts: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """The fixed point of the merge-M-copies contraction in one pass; inverts
    ``glaisher_forward`` on parts with no part divisible by M.  The parts of
    the last of ``glaisher_inverse_steps``, computed without the
    intermediate steps.

    One scan of the parts counts each run of equal parts while the value
    repeats and takes the run in when the value changes, the last run after
    the scan: a run of c copies of r*M^k (r not divisible by M) adds c*M^k to
    the total of r.  Each total, written in base M, gives the number of
    copies of r, r*M, r*M^2, and so on; a total below M, as most are, is the
    number of copies of r itself.  On parts with no part divisible by M, the
    totals are the run lengths themselves.

    The same scan tests whether the parts are already a fixed point: weakly
    decreasing, so that its runs are contiguous with strictly decreasing
    values, with no part divisible by M and no run of M or more copies.  Such
    parts come back as the very tuple passed in, with no expansion, sort or
    new tuple.  Parts out of order never take that exit, so they merge as
    any other.  A part 0, divisible by every power of M, raises
    ``ValueError``, and so does a modulus below 2.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if not parts:
        return parts
    totals: dict[int, int] = {}
    fixed = True
    value = parts[0]
    above = value + 1
    count = 0
    for part in parts:
        if part == value:
            count += 1
            continue
        if value % modulus:
            if count >= modulus or value >= above:
                fixed = False
            above = value
        else:
            fixed = False
            value, count = _merge_root(value, count, modulus)
        totals[value] = totals.get(value, 0) + count
        value = part
        count = 1
    if value % modulus:
        if count >= modulus or value >= above:
            fixed = False
    else:
        fixed = False
        value, count = _merge_root(value, count, modulus)
    if fixed:
        return parts
    totals[value] = totals.get(value, 0) + count
    out: list[int] = []
    for value, total in totals.items():
        while total >= modulus:
            total, copies = divmod(total, modulus)
            if copies:
                out += [value] * copies
            value *= modulus
        out += [value] * total
    out.sort(reverse=True)
    return tuple(out)


class CertificationReport(Record):
    """Outcome of certifying a map: with a failure, the lowest failing weight
    and both sizes at it; without one, both sizes over every weight."""

    domain_size: int
    target_size: int
    failure: str | None
    weight: int | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def certify_bijection(
    domain: Iterable[tuple[int, Any]],
    forward: Callable[[Any], Any],
    inverse: Callable[[Any], Any],
    target_check: Callable[[int, Any], bool],
    target_sizes: Sequence[int],
) -> CertificationReport:
    """Certify that ``forward`` maps the domain's elements of each weight
    bijectively onto the target's elements of that weight, a target known
    only by its membership test ``target_check(w, y)`` and its sizes
    ``target_sizes[w]``.

    ``domain`` yields ``(w, x)`` pairs, x an element of weight w, in one pass
    over every weight.  Weights may interleave, but the elements of each
    weight must come in strictly decreasing order, which proves they have no
    repeats.  Three facts then make the map a bijection at weight w:
    ``inverse`` undoes it on every element, so it is injective; every image
    passes ``target_check(w, y)``, so it lands in the target at weight w; and
    there are ``target_sizes[w]`` elements of weight w (0 past the end of
    ``target_sizes``).  No image or target is stored, so the sizes must come
    from an independent count.

    For each weight the certifier keeps only the previous element, the count
    and the first failure; after that failure the weight's elements are only
    counted.  The report names the lowest failing weight with its full
    domain size and its failure: the counterexample, bare part tuples in the
    bracketed form of partitions, or for a count mismatch, which has no
    witness, both counts.
    """
    def render(x: Any) -> str:
        return _bracketed(x) if isinstance(x, tuple) else str(x)

    counts: defaultdict[int, int] = defaultdict(int)
    previous: dict[int, Any] = {}
    failures: dict[int, str] = {}
    for w, x in domain:
        counts[w] += 1
        if w in failures:
            continue
        if w in previous and not x < previous[w]:
            failures[w] = (
                f"domain is not strictly decreasing: {render(x)} "
                f"after {render(previous[w])}"
            )
            continue
        previous[w] = x
        y = forward(x)
        back = inverse(y)
        if back != x:
            failures[w] = (
                f"inverse round trip failed for {render(x)}: "
                f"got {render(back)} via {render(y)}"
            )
        elif not target_check(w, y):
            failures[w] = f"image of {render(x)} fails the target predicate: {render(y)}"
    sizes = defaultdict(int, enumerate(target_sizes))
    for w in (counts.keys() | sizes.keys()) - failures.keys():
        if counts[w] != sizes[w]:
            failures[w] = f"domain has {counts[w]} elements, target has {sizes[w]}"
    if failures:
        w = min(failures)
        return CertificationReport(counts[w], sizes[w], failures[w], w)
    return CertificationReport(sum(counts.values()), sum(sizes.values()), None)
