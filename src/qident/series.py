"""Exact arithmetic on truncated integer power series in the formal variable q,
with builders for the product and sum sides of partition identities.

Coefficients are plain Python ints, so there is no precision ceiling; every
value carries its truncation order explicitly and mixed-order arithmetic
truncates to the shorter operand.  There is no general series division:
reciprocals such as 1/((1-q)(1-q^2)...(1-q^n)) are assembled by multiplying
geometric expansions of 1/(1-q^k), and ratios like (q^n - q^{nM})/(1-q^n) are
expanded symbolically as polynomials.

Every multiplication by one factor runs in place on a list of coefficients
through two kernels, ``_geometric`` for 1/(1-q^k) and ``_one_minus`` for
(1-q^k), and every shifted addition is one slice assignment such as
``total[n:] = map(add, total[n:], run)``.  So a factor costs a few C-level
slice operations rather than a Python statement per coefficient.

``sum_side_standard`` carries one running factor across its terms and trims
it to ``order - w`` before a term of exponent w, since nothing beyond that
index reaches the result.  ``sum_side_glaisher`` and ``euler_distinct_sum``
instead nest their sums from the top (Horner form): working from the last
term down, each step shifts the inner sum by q, adds the new term's leading
monomials in O(1), and multiplies by the step's factors in place.  The inner
sum after step n is needed only below ``order - n``, so it starts empty and
grows by one coefficient per step, and no step adds a long slice into a
total.

``product_side`` multiplies one 1/(1-q^k) per allowed part size.  A private
route, ``_product_side_by_complement``, starts instead from the product side
of a base class that allows every size the class allows below the order,
the all-parts series 1/((1-q)...(1-q^{order-1})) being the base that allows
every size, and multiplies one (1-q^k) per size the base allows and the
class does not, exact mod q^order.  ``_product_bases`` picks for a set of
classes at one order the base of each, among the all-parts series, the
other classes and the classes of parts not divisible by some d, by counting
the coefficient updates each route makes.  Its costs are sums of
arithmetic progressions, one per residue, and its superset tests compare
bit masks of one common period of the moduli, built by arithmetic: neither
scans the part sizes up to the order.  ``qident.verify`` builds each base
once per run and shares it.

The n-th term polynomial of the divide-by-M family has degree
(M-1)n(n+1)/2, so ``alpha_closed_form`` works on no more coefficients than
that and pads with zeros.
"""

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt, lcm
from operator import add, sub

__all__ = [
    "SumTerminationError",
    "TruncatedSeries",
    "ResidueClass",
    "series_one",
    "product_side",
    "sum_side_standard",
    "sum_side_glaisher",
    "euler_distinct_sum",
    "alpha_closed_form",
    "alpha_recurrence",
]


class SumTerminationError(RuntimeError):
    """A term-family scan failed to reach the truncation order within the
    allowed number of terms."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series known exactly for all exponents below ``order``.

    Instances are immutable; arithmetic returns new values and never reads or
    writes exponents at or beyond the truncation order.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("truncation order must be at least 1")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def coefficient(self, exponent: int) -> int:
        if not 0 <= exponent < self.order:
            raise IndexError(
                f"exponent {exponent} is outside truncation order {self.order}"
            )
        return self.coefficients[exponent]

    def to_list(self) -> list[int]:
        return list(self.coefficients)

    def first_difference(self, other: "TruncatedSeries", order: int) -> int | None:
        """Smallest exponent below ``order`` where the series differ, if any.

        Comparing beyond either operand's truncation order is refused rather
        than silently narrowed, so callers always state how far they checked.
        """
        if order < 1 or order > self.order or order > other.order:
            raise ValueError(
                f"comparison order {order} exceeds operand orders "
                f"{self.order} and {other.order}"
            )
        if self.coefficients[:order] == other.coefficients[:order]:
            return None
        for e in range(order):
            if self.coefficients[e] != other.coefficients[e]:
                return e
        return None

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # map stops at the shorter operand, which is the mixed-order truncation
        return TruncatedSeries(tuple(map(add, self.coefficients, other.coefficients)))


def _geometric(c: list[int], k: int) -> None:
    """Multiply the coefficients ``c`` by 1/(1 - q^k) in place, k >= 1.

    Each coefficient gains the one k below it once that one is final.  For
    k*k <= len(c) that is a running sum along each of the k residue strides;
    otherwise each block of k coefficients adds the finished block before it.
    Either way a factor costs at most sqrt(len(c)) slice operations.
    """
    n = len(c)
    if k * k <= n:
        for r in range(k):
            c[r::k] = accumulate(c[r::k])
    else:
        for i in range(k, n, k):
            c[i : i + k] = map(add, c[i : i + k], c[i - k : i])


def _one_minus(c: list[int], k: int) -> None:
    """Multiply the coefficients ``c`` by (1 - q^k) in place, k >= 1."""
    c[k:] = map(sub, c[k:], c[:-k])


def _pochhammer_inverse_from(c: list[int], done: int, n: int) -> None:
    """Multiply ``c`` in place by 1/((1-q^{done+1})...(1-q^n)), which turns
    1/(q)_done into 1/(q)_n.  Factors with exponent at least len(c) are the
    identity and are skipped."""
    for s in range(done + 1, min(n, len(c) - 1) + 1):
        _geometric(c, s)


@dataclass(frozen=True)
class ResidueClass:
    """Nonzero residues mod ``modulus`` marking which part sizes are allowed."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "residues", frozenset(int(r) for r in self.residues))
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if not self.residues:
            raise ValueError("residue set must be nonempty")
        for r in self.residues:
            if not 1 <= r <= self.modulus - 1:
                raise ValueError(f"residue {r} outside [1, {self.modulus - 1}]")

    @classmethod
    def nonzero(cls, modulus: int) -> "ResidueClass":
        """All nonzero residues: parts not divisible by ``modulus``."""
        return cls(modulus, frozenset(range(1, modulus)))

    def allows(self, part: int) -> bool:
        return part % self.modulus in self.residues

    def sorted_residues(self) -> tuple[int, ...]:
        return tuple(sorted(self.residues))

    def label(self) -> str:
        return ",".join(str(r) for r in self.sorted_residues()) + f" (mod {self.modulus})"


def series_one(order: int) -> TruncatedSeries:
    """The multiplicative identity: 1 truncated at ``order``."""
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    return TruncatedSeries((1,) + (0,) * (order - 1))


def product_side(rc: ResidueClass, order: int) -> TruncatedSeries:
    """Product of 1/(1-q^k) over allowed part sizes k.

    The q^N coefficient counts partitions of N into parts whose residue
    mod ``rc.modulus`` lies in ``rc.residues``.
    """
    c = list(series_one(order).coefficients)
    for k in range(1, order):
        if rc.allows(k):
            _geometric(c, k)
    return TruncatedSeries(tuple(c))


def _all_parts(order: int) -> TruncatedSeries:
    """1/((1-q)(1-q^2)...(1-q^{order-1})): partitions into parts of any size."""
    c = list(series_one(order).coefficients)
    for k in range(1, order):
        _geometric(c, k)
    return TruncatedSeries(tuple(c))


def _product_side_by_complement(
    rc: ResidueClass, series: TruncatedSeries, base: ResidueClass | None = None
) -> TruncatedSeries:
    """``product_side(rc, series.order)`` from ``series``, the product side of
    ``base`` at that order (the all-parts series ``_all_parts(order)`` for
    None), when ``base`` allows every part size below the order that ``rc``
    allows: ``series`` times (1 - q^k) for every size k that ``base`` allows
    and ``rc`` does not, which cancels its factor 1/(1 - q^k) exactly below
    the order."""
    c = list(series.coefficients)
    for k in range(1, len(c)):
        if (base is None or base.allows(k)) and not rc.allows(k):
            _one_minus(c, k)
    return TruncatedSeries(tuple(c))


def _cost_terms(
    rc: ResidueClass | None, order: int, small: int, period: int
) -> tuple[int, int, int]:
    """Cost terms of the sizes ``rc`` allows (None allows every size): the
    sum of ``order - k`` over the allowed sizes k below ``order``, the sum of
    those up to ``small``, and the allowed sizes below ``period`` as the bits
    of an int.  Each residue's sizes form an arithmetic progression, and the
    bits are one period of residue bits times the repunit that repeats it."""
    if rc is None:
        low = small * (small + 1) // 2
        return order * (order - 1) // 2, low, (1 << period) - 2
    m = rc.modulus
    weight = low = bits = 0
    for r in rc.residues:
        bits |= 1 << r
        if r < order:
            c = (order - 1 - r) // m + 1
            weight += c * (order - r) - m * c * (c - 1) // 2
        if r <= small:
            c = (small - r) // m + 1
            low += c * r + m * c * (c - 1) // 2
    repunit = ((1 << m * -(-period // m)) - 1) // ((1 << m) - 1)
    return weight, low, bits * repunit & ((1 << period) - 1)


def _product_bases(
    classes: Iterable[ResidueClass], order: int
) -> dict[ResidueClass, ResidueClass | None]:
    """The base series each product side of ``classes`` at ``order`` is
    cheapest to build from, counting coefficient updates.

    ``product_side`` costs, per allowed size k, ``order`` updates when
    k*k <= order and ``order - k`` otherwise (``_geometric``'s two branches).
    ``_product_side_by_complement`` from a base that covers the class costs
    ``order - k`` per size k the base allows and the class does not, which
    is the difference of the two classes' sums of ``order - k`` over their
    allowed sizes.  A base is another of the classes or an extra series: the
    all-parts series, or the product side of ``ResidueClass.nonzero(d)`` for
    a d below the order dividing one of the moduli.  Each extra, the
    all-parts series first and then by rising d, is kept when it lowers the
    total cost.

    Returns the base of each class built from one, None for the all-parts
    series; a kept extra is a key or a base too.  What is no key, the
    all-parts series included, is built directly.  A base allows every size
    its class allows, and is the first of any that allow the same sizes, so
    no class is built from itself.
    """
    classes = dict.fromkeys(classes)
    moduli = {rc.modulus for rc in classes}
    # nonzero(d) for d >= order allows every size below it, as all parts does
    extras = [None] + [
        nz
        for d in range(2, min(max(moduli, default=1) + 1, order))
        if any(m % d == 0 for m in moduli)
        and (nz := ResidueClass.nonzero(d)) not in classes
    ]
    nodes = [*extras, *classes]
    small = min(isqrt(order), order - 1)
    # every class repeats with this period, so the sizes below it decide
    period = min(order, lcm(*moduli))
    terms = [_cost_terms(rc, order, small, period) for rc in nodes]
    weight = [w for w, _, _ in terms]
    # A base allows every size of what it builds, so it weighs more, or as
    # much when the two allow the same sizes; of those, the first in this
    # rank, the all-parts series first, is the base of the others.
    rank = sorted(range(len(nodes)), key=weight.__getitem__, reverse=True)
    direct, options, users = {}, {}, {}
    for at, i in enumerate(rank):
        w, low, mask = terms[i]
        direct[i] = w + low
        # the bases that build node i for less than directly, cheapest first
        options[i] = sorted(
            (weight[j] - w, j)
            for j in rank[:at]
            if weight[j] - w < w + low and not mask & ~terms[j][2]
        )
        for c, j in options[i]:
            users.setdefault(j, []).append((c, i))

    built = set(range(len(extras), len(nodes)))

    def cheapest(i: int) -> tuple[int, int | None]:
        return next(((c, j) for c, j in options[i] if j in built), (direct[i], None))

    cost = {i: cheapest(i)[0] for i in built}
    for x in range(len(extras)):
        saved = sum(cost[i] - c for c, i in users.get(x, ()) if i in built and c < cost[i])
        if (own := cheapest(x)[0]) < saved:
            built.add(x)
            cost[x] = own
            for c, i in users.get(x, ()):
                if i in built and c < cost[i]:
                    cost[i] = c
    return {
        nodes[i]: nodes[j] for i in built if (j := cheapest(i)[1]) is not None
    }


_MAX_TERMS = 10_000


def sum_side_standard(
    min_weight: Callable[[int], int],
    slots: Callable[[int], int],
    order: int,
    *,
    start: int = 0,
) -> TruncatedSeries:
    """Sum over n of q^{min_weight(n)} / ((1-q)...(1-q^{slots(n)})).

    The scan starts at ``start`` and stops at the first n whose exponent
    reaches the truncation order.  Exponents must be nondecreasing over the
    scanned range (a decrease raises ValueError), and a scan that stays below
    the order for more than 10,000 values of n raises
    SumTerminationError instead of looping forever.

    One running 1/(q)_u is carried across the terms.  A term of exponent w
    needs it only below ``order - w``, and w never decreases, so it is trimmed
    to that length and extended by the factors the new slot count adds.  When
    the slot count drops it restarts from 1 and is rebuilt the same way.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    total = [0] * order
    run = list(series_one(order).coefficients)  # 1/(q)_have, exact below len(run)
    have = 0
    previous = None
    n = start
    scanned = 0
    while True:
        if scanned > _MAX_TERMS:
            raise SumTerminationError(
                f"exponent stayed below order {order} for more than "
                f"{_MAX_TERMS} terms (last n={n - 1})"
            )
        w = int(min_weight(n))
        u = int(slots(n))
        if w < 0 or u < 0:
            raise ValueError(f"negative exponent or slot count at n={n}")
        if previous is not None and w < previous:
            raise ValueError(
                f"term exponents must be nondecreasing: value {w} at n={n} "
                f"after {previous}"
            )
        if w >= order:
            break
        previous = w
        del run[order - w :]
        if u < have:
            run, have = [1] + [0] * (order - w - 1), 0
        _pochhammer_inverse_from(run, have, u)
        have = u
        total[w:] = map(add, total[w:], run)
        n += 1
        scanned += 1
    return TruncatedSeries(tuple(total))


def sum_side_glaisher(modulus: int, order: int) -> TruncatedSeries:
    """1 + sum over n >= 1 of (q^n - q^{nM}) (q^M)_{n-1} / (q)_n for M = modulus.

    Here (q)_n = (1-q)...(1-q^n) and (q^M)_{n-1} = (1-q^M)...(1-q^{(n-1)M}).
    With g_1 = 1/(1-q) and g_n = (1-q^{(n-1)M})/(1-q^n), the term n is
    q^n (1 - q^{n(M-1)}) g_1...g_n, so the sum nests as 1 + q V_1 with

        V_n = g_n (1 - q^{n(M-1)} + q V_{n+1}),

    and V_n is needed only below ``order - n``.  From n = order-1 down to 1,
    1 + q V_{n+1} is one shift with 1 at q^0, -q^{n(M-1)} one O(1) update,
    and g_n one ``_one_minus`` and one ``_geometric``.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    v: list[int] = []  # V_{n+1}, exact below order - n - 1
    for n in range(order - 1, 0, -1):
        v.insert(0, 1)
        if n * (modulus - 1) < len(v):
            v[n * (modulus - 1)] -= 1
        if n >= 2 and (n - 1) * modulus < len(v):
            _one_minus(v, (n - 1) * modulus)
        _geometric(v, n)
    return TruncatedSeries((1, *v))


def euler_distinct_sum(order: int) -> TruncatedSeries:
    """1 + sum over n >= 1 of q^n (1+q)(1+q^2)...(1+q^{n-1}).

    Nested from the top as in ``sum_side_glaisher``: the sum is 1 + q U_1
    with U_n = 1 + q (1+q^n) U_{n+1}, needed only below ``order - n``, so
    each step is one shift, one shifted addition for (1+q^n) and +1 at q^0.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    u: list[int] = []  # U_{n+1}, exact below order - n - 1
    for n in range(order - 1, 0, -1):
        u.insert(0, 0)
        u[n:] = map(add, u[n:], u[:-n])
        u[0] += 1
    return TruncatedSeries((1, *u))


def alpha_closed_form(modulus: int, n: int, order: int) -> TruncatedSeries:
    """Closed form for the n-th term polynomial of the bounded-gap family:

        (q^n + q^{2n} + ... + q^{(M-1)n}) * prod_{j<n} (1-q^{jM})/(1-q^j),

    which is (q^n - q^{nM})/(1-q^n) expanded as a polynomial so that no series
    division is ever performed.  Returns 1 for n = 0.

    Each ratio (1-q^{jM})/(1-q^j) is 1 + q^j + ... + q^{(M-1)j}, so the term
    is a polynomial of degree at most (M-1)n + (M-1)(1 + ... + (n-1)), which is
    (M-1)n(n+1)/2.  It is computed on that many coefficients plus one, or on
    ``order`` if fewer, and padded with zeros up to the order: exact, since
    truncation commutes with the products.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if n < 0:
        raise ValueError("term index must be nonnegative")
    if n == 0:
        return series_one(order)
    length = min(order, (modulus - 1) * n * (n + 1) // 2 + 1)
    coeffs = [0] * length
    for j in range(1, modulus):
        e = j * n
        if e < length:
            coeffs[e] = 1
    for j in range(1, n):
        _one_minus(coeffs, j * modulus)
        _geometric(coeffs, j)
    return TruncatedSeries((*coeffs, *(0,) * (order - length)))


def _alpha_from_sum(modulus: int, n: int, lower_sum: TruncatedSeries) -> TruncatedSeries:
    """The n-th term from the recurrence, (q^n + q^{2n} + ... + q^{(M-1)n})
    times ``lower_sum`` = alpha_0 + ... + alpha_{n-1}, at the sum's order."""
    out = [0] * lower_sum.order
    for j in range(1, modulus):
        e = j * n
        out[e:] = map(add, out[e:], lower_sum.coefficients)
    return TruncatedSeries(tuple(out))


def alpha_recurrence(
    modulus: int,
    n: int,
    lower: Iterable[TruncatedSeries],
    order: int,
) -> TruncatedSeries:
    """The n-th term from the recurrence

        alpha_n = (q^n + q^{2n} + ... + q^{(M-1)n}) * (alpha_0 + ... + alpha_{n-1}),

    given all lower terms at order >= ``order``.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if n < 1:
        raise ValueError("recurrence needs a positive term index")
    terms = list(lower)
    if len(terms) != n:
        raise ValueError(f"expected {n} lower terms, got {len(terms)}")
    acc = [0] * order
    for t in terms:
        if t.order < order:
            raise ValueError("all lower terms must be supplied at the target order")
        acc = list(map(add, acc, t.coefficients))
    return _alpha_from_sum(modulus, n, TruncatedSeries(tuple(acc)))
