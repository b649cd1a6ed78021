"""Naive reference oracles that tests compare the package against.

Nothing in the package calls these.  Each is written for plainness rather
than speed, and shares no code with the kernel it checks:
``pochhammer_inverse`` multiplies whole geometric series through the
schoolbook ``multiply``, where the package multiplies in place with
``_geometric`` (``_pochhammer_inverse_from``), and the partition listings
recurse on the remaining weight, where the package counts without building.
``partitions_repetition_bounded`` alone reads the package's bounded-repetition
walk, one weight of it, for tests of what is built on that walk.
``offset_rows`` lists every offset row of a term from those same partitions,
and ``chain_vectors`` lists the vectors of given gap bounds, lower and upper,
by recursion on the slots with no pruning, where the package keeps its own
stack and prunes on the weight.
``glaisher_merge`` is the package's merge as it was before it learned to
return its fixed points unchanged: it rebuilds every image, and
``glaisher_divide`` rewrites one divisible part at a time.  ``alpha_term``
multiplies the closed-form factors as sparse polynomials over the whole
order, where the package stops at the term's degree.  ``reciprocal`` is
long division over every coefficient, where the package sums over the
nonzero terms alone, and ``dilate`` spreads a series to q^d for the
schoolbook ``multiply``.
"""

from qident.partitions import Partition, repetition_bounded_walk
from qident.series import TruncatedSeries, series_one


def multiply(a, b):
    """The product of two series, truncated at the smaller of their orders,
    one coefficient product at a time."""
    order = min(a.order, b.order)
    out = [0] * order
    for i in range(order):
        x = a.coefficients[i]
        if x:
            for j in range(order - i):
                y = b.coefficients[j]
                if y:
                    out[i + j] += x * y
    return TruncatedSeries(tuple(out))


def reciprocal(series):
    """1/series for a constant term of 1, truncated at its order, by long
    division: each coefficient is what the product so far lacks there."""
    order = series.order
    out = [1] + [0] * (order - 1)
    for n in range(1, order):
        out[n] = -sum(series.coefficients[j] * out[n - j] for j in range(1, n + 1))
    return TruncatedSeries(tuple(out))


def dilate(series, d, order):
    """series(q^d), truncated at ``order``."""
    out = [0] * order
    for j, x in enumerate(series.coefficients):
        if j * d < order:
            out[j * d] = x
    return TruncatedSeries(tuple(out))


def geometric_inverse_factor(k, order):
    """1/(1 - q^k) = 1 + q^k + q^{2k} + ..., truncated at ``order``."""
    return TruncatedSeries(tuple(int(e % k == 0) for e in range(order)))


def pochhammer_inverse(n, order):
    """1/((1-q)(1-q^2)...(1-q^n)) as a product of n geometric factors; 1 for
    n <= 0.  Every factor is multiplied in, none skipped."""
    out = series_one(order)
    for k in range(1, n + 1):
        out = multiply(out, geometric_inverse_factor(k, order))
    return out


def shift(series, k):
    """``series`` times q^k, at the same truncation order."""
    return TruncatedSeries(((0,) * k + series.coefficients)[: series.order])


def _parts(weight, largest, allowed):
    """Parts of every partition of ``weight`` into parts of at most
    ``largest`` that ``allowed`` accepts, in lexicographically decreasing
    order; none for a negative weight."""
    if weight == 0:
        return [()]
    return [
        (part,) + rest
        for part in range(min(largest, weight), 0, -1)
        if allowed(part)
        for rest in _parts(weight - part, part, allowed)
    ]


def enumerate_partitions(weight, max_part=None):
    """All partitions of ``weight`` (parts at most ``max_part`` when given),
    in lexicographically decreasing order."""
    largest = weight if max_part is None else max_part
    return [Partition(p) for p in _parts(weight, largest, lambda part: True)]


def offset_rows(total, slots):
    """Every row of ``slots`` nonnegative, weakly decreasing entries summing
    to ``total``: each partition of ``total`` into at most ``slots`` parts,
    padded with zeros, in lexicographically decreasing order."""
    return [
        parts + (0,) * (slots - len(parts))
        for parts in _parts(total, total, lambda part: True)
        if len(parts) <= slots
    ]


def chain_vectors(gaps, terminal, weight):
    """Every vector of ``len(gaps) + 1`` entries summing to ``weight`` whose
    adjacent differences lie within ``gaps`` and whose last entry lies within
    ``terminal``, each bound a ``(lower, upper)`` pair with ``upper`` None for
    none, in lexicographically decreasing order: each entry runs from the
    remaining weight down to 0, by recursion on the slots, with no pruning.
    The package's chains have lower bounds alone; the upper ones are for
    sets such as the bounded-gap vectors, which the package counts by a
    search of their own."""
    def within(bound, difference):
        lower, upper = bound
        return lower <= difference and (upper is None or difference <= upper)

    def grow(prefix, remaining):
        s = len(prefix)
        if s == len(gaps) + 1:
            return [prefix] if remaining == 0 and within(terminal, prefix[-1]) else []
        return [
            vector
            for value in range(remaining, -1, -1)
            if not s or within(gaps[s - 1], prefix[-1] - value)
            for vector in grow(prefix + (value,), remaining - value)
        ]

    return grow((), weight)


def enumerate_partitions_with_parts(rc, weight):
    """All partitions of ``weight`` into parts allowed by ``rc``, in
    lexicographically decreasing order."""
    return [Partition(p) for p in _parts(weight, weight, rc.allows)]


def repetition_bounded(p, modulus):
    """True when every part value occurs fewer than ``modulus`` times."""
    return all(p.parts.count(part) < modulus for part in p.parts)


def no_part_divisible(p, modulus):
    """True when no part is divisible by ``modulus``."""
    return all(part % modulus for part in p.parts)


def partitions_repetition_bounded(weight, modulus):
    """Every partition of ``weight`` in which each part value occurs fewer
    than ``modulus`` times, in lexicographically decreasing order: the
    members of that weight on the bounded-repetition walk."""
    return [
        Partition(parts)
        for w, parts in repetition_bounded_walk(weight, modulus)
        if w == weight
    ]


def glaisher_merge(parts, modulus):
    """Merge-M-copies to its fixed point: a run of c copies of r*M^k (r not
    divisible by M) adds c*M^k to the total of r, and each total, written in
    base M, gives the copies of r, r*M, r*M^2, ...; always a new, sorted
    tuple, whatever the order of ``parts``."""
    totals = {}
    n = len(parts)
    i = 0
    while i < n:
        root = parts[i]
        j = i + 1
        while j < n and parts[j] == root:
            j += 1
        count = j - i
        i = j
        while root % modulus == 0:
            root //= modulus
            count *= modulus
        totals[root] = totals.get(root, 0) + count
    out = []
    for value, total in totals.items():
        while total:
            total, copies = divmod(total, modulus)
            out += [value] * copies
            value *= modulus
    out.sort(reverse=True)
    return tuple(out)


def glaisher_divide(parts, modulus):
    """Divide-by-M to its fixed point one part at a time: a part divisible by
    M becomes M copies of its M-th part until no part is; always a new,
    sorted tuple, whatever the order of ``parts``."""
    pending = list(parts)
    out = []
    while pending:
        part = pending.pop()
        if part % modulus:
            out.append(part)
        else:
            pending += [part // modulus] * modulus
    return tuple(sorted(out, reverse=True))


def alpha_term(modulus, n, order):
    """(q^n + q^{2n} + ... + q^{(M-1)n}) times (1 + q^j + ... + q^{(M-1)j})
    for j = 1..n-1, truncated at ``order``: each factor multiplied in as a
    sparse polynomial of M terms; 1 for n = 0."""
    if n == 0:
        return series_one(order)
    terms = {e: 1 for e in range(n, modulus * n, n) if e < order}
    for j in range(1, n):
        product = {}
        for e, c in terms.items():
            for step in range(0, modulus * j, j):
                if e + step < order:
                    product[e + step] = product.get(e + step, 0) + c
        terms = product
    return TruncatedSeries(tuple(terms.get(e, 0) for e in range(order)))
