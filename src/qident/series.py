"""Exact arithmetic on truncated integer power series in the formal variable q,
with builders for the product and sum sides of partition identities.

Coefficients are plain Python ints, so there is no precision ceiling; every
value carries its truncation order explicitly and mixed-order arithmetic
truncates to the shorter operand.  There is one series division, the exact
reciprocal ``_reciprocal`` of a series with constant term 1, which sums over
the nonzero terms of that series only; every other reciprocal, such as
1/((1-q)...(1-q^n)), multiplies geometric expansions of 1/(1-q^k), and
ratios like (q^n - q^{nM})/(1-q^n) are expanded as polynomials.

Every multiplication by one factor runs in place on a list of coefficients
through two kernels, ``_geometric`` for 1/(1-q^k) and ``_one_minus`` for
(1-q^k), and every shifted addition is one slice assignment such as
``total[n:] = map(add, total[n:], run)``: a few C-level slice operations per
factor, not a Python statement per coefficient.

``sum_side_standard`` carries one running factor across its terms
(``_sum_terms``), trimmed to ``order - w`` before a term of exponent w.
``sum_side_glaisher`` and ``euler_distinct_sum`` nest their sums from the
last term down (Horner form), the inner sum growing by one coefficient per
step, so no step adds a long slice into a total.

``product_side`` multiplies one 1/(1-q^k) per allowed part size.  Private
routes build the same series below the order from others:
``_product_side_by_complement`` from the product side of a base that allows
every size the class allows, times (1-q^k) per size only the base allows;
``_product_side_by_dilation`` the parts not divisible by d as the all-parts
series times E(q^d), E the Euler product (1-q)(1-q^2)... (``_euler``),
whose nonzero terms are few, so ``_times_dilated`` makes few passes; and
the all-parts series itself as 1/E.  ``_product_bases`` picks the routes
for a set of classes at one order by estimated coefficient updates and
kernel passes, from sums of arithmetic progressions and bit masks of one
period of the moduli, never scanning the sizes up to the order.

The n-th term polynomial of the divide-by-M family has degree
(M-1)n(n+1)/2, so ``alpha_closed_form`` works on no more coefficients than
that and pads with zeros.
"""

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, count, repeat
from math import isqrt, lcm
from operator import add, mul, sub

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


def _times_dilated(c: list[int], b: Sequence[int], d: int) -> list[int]:
    """``c`` times b(q^d) below len(c), d >= 1: one shifted pass of ``c`` per
    nonzero coefficient of ``b`` that lands below len(c), zeros skipped.
    Exact for any ``b``; a sparse one is cheap."""
    n = len(c)
    out = [0] * n
    for j, x in enumerate(b[: (n - 1) // d + 1]):
        e = j * d
        if x in (1, -1):
            out[e:] = map(add if x == 1 else sub, out[e:], c[: n - e])
        elif x:
            out[e:] = map(add, out[e:], map(mul, c[: n - e], repeat(x)))
    return out


def _reciprocal(series: TruncatedSeries) -> TruncatedSeries:
    """1/series for a constant term of 1: each coefficient is minus the sum
    of c_j times the one j below it, over the nonzero c_j alone.  Exact for
    any such series; a sparse one is cheap."""
    c = series.coefficients
    if c[0] != 1:
        raise ValueError("the reciprocal needs a constant term of 1")
    n = len(c)
    exponents = [j for j in range(1, n) if c[j]]
    negated = [-c[j] for j in exponents]
    out = [1] + [0] * (n - 1)
    k = 0  # the exponents up to i
    for i in range(1, n):
        if k < len(exponents) and exponents[k] == i:
            k += 1
        out[i] = sum(map(mul, negated, map(out.__getitem__, map(i.__sub__, exponents[:k]))))
    return TruncatedSeries(tuple(out))


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


def _euler(order: int) -> TruncatedSeries:
    """(1-q)(1-q^2)...(1-q^{order-1}), the Euler product E below ``order``;
    ``_reciprocal`` of it is the all-parts series."""
    c = list(series_one(order).coefficients)
    for k in range(1, order):
        _one_minus(c, k)
    return TruncatedSeries(tuple(c))


def _product_side_by_dilation(
    rc: ResidueClass, all_parts: TruncatedSeries, euler: TruncatedSeries
) -> TruncatedSeries:
    """``product_side(rc, order)`` for ``rc`` = ``ResidueClass.nonzero(d)``
    from the all-parts series and the Euler product E at that order: the
    product over d not dividing k of 1/(1-q^k) is E(q^d)/E(q), the all-parts
    series times E(q^d), exact below the order."""
    if len(rc.residues) != rc.modulus - 1:
        raise ValueError(f"{rc.label()} is not the class of every nonzero residue")
    return TruncatedSeries(
        tuple(_times_dilated(list(all_parts.coefficients), euler.coefficients, rc.modulus))
    )


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


# The two series besides product sides that ``_product_bases`` may plan: the
# all-parts series and the Euler product.
_ALL, _EULER = "all parts", "euler"

# Measured costs, in coefficient updates (one element of a kernel's slice
# pass, 35-70 ns on Python 3.11): a direct factor 1/(1-q^k) costs about
# 2 us beyond its updates (``_geometric`` makes up to sqrt(order) slice
# passes), any other pass, or coefficient of ``_reciprocal``, about 0.5-1 us,
# and each series built about 6 us (its list and tuple, its planned input
# and the run's bookkeeping of it).  Planning bases costs about 0.2-0.3 ms,
# and can save no more than building every class directly costs.
_FACTOR = 50
_PASS = 20
_BUILD = 150
_PLAN = 5_000


def _cost_terms(
    rc: ResidueClass | None, order: int, small: int, period: int
) -> tuple[int, int, int, int]:
    """Cost terms of the sizes ``rc`` allows (None allows every size): the
    sum of ``order - k`` over the allowed sizes k below ``order``, the sum of
    those up to ``small``, their number, and the allowed sizes below
    ``period`` as the bits of an int.  Each residue's sizes form an
    arithmetic progression, and the bits are one period of residue bits
    times the repunit that repeats it."""
    if rc is None:
        low = small * (small + 1) // 2
        return order * (order - 1) // 2, low, order - 1, (1 << period) - 2
    m = rc.modulus
    weight = low = sizes = bits = 0
    for r in rc.residues:
        bits |= 1 << r
        if r < order:
            c = (order - 1 - r) // m + 1
            weight += c * (order - r) - m * c * (c - 1) // 2
            sizes += c
        if r <= small:
            c = (small - r) // m + 1
            low += c * r + m * c * (c - 1) // 2
    repunit = ((1 << m * -(-period // m)) - 1) // ((1 << m) - 1)
    return weight, low, sizes, bits * repunit & ((1 << period) - 1)


def _nonzero_terms(
    d: int, every: tuple[int, int, int, int], order: int, small: int, period: int
) -> tuple[int, int, int, int]:
    """``_cost_terms`` of ``ResidueClass.nonzero(d)`` from ``every``, those of
    the all-parts series: less the multiples of d, an arithmetic progression
    whose bits below ``period`` are a repunit."""
    c, t = (order - 1) // d, small // d
    multiples = ((1 << d * -(-period // d)) - 1) // ((1 << d) - 1)
    weight, low, sizes, mask = every
    return (
        weight - c * order + d * c * (c + 1) // 2,
        low - d * t * (t + 1) // 2,
        sizes - c,
        mask & ~multiples,
    )


def _pentagonal(order: int) -> list[int]:
    """The generalized pentagonal numbers k(3k-1)/2 and k(3k+1)/2 below
    ``order``, ascending from 0: where Euler's pentagonal theorem puts the
    nonzero coefficients of the Euler product.  The planner's estimates
    count them; no series is built from them."""
    out, k = [0], 1
    while (e := k * (3 * k - 1) // 2) < order:
        out += [e, e + k] if e + k < order else [e]
        k += 1
    return out


def _product_bases(
    classes: Iterable[ResidueClass], order: int
) -> dict[ResidueClass | str, ResidueClass | str | None]:
    """How to build the product sides of ``classes`` at ``order`` for the
    fewest estimated coefficient updates and kernel passes: every series to
    build, mapped to what it is built from.

    None is a direct build (``product_side``, or ``_all_parts`` for
    ``_ALL``, or ``_euler`` for ``_EULER``).  Another key is a base that
    allows every size its class allows below the order, for
    ``_product_side_by_complement``.  ``_EULER`` is the Euler route: 1/E
    for ``_ALL``, and the all-parts series times E(q^d) for a class
    ``ResidueClass.nonzero(d)``.

    A direct factor 1/(1-q^k) costs ``order`` updates when k*k <= order and
    ``order - k`` otherwise, plus ``_FACTOR``; a factor (1-q^k) costs
    ``order - k``, a pass of the Euler route ``order - e`` for each exponent
    e of E(q^d) below the order, and 1/E ``order - e`` for each exponent of
    E below each coefficient, each plus ``_PASS``.  The all-parts series
    (alone or with E) and then the classes ``ResidueClass.nonzero(d)`` for
    each d below the order dividing a modulus, by rising d, are added when
    they save more than they cost, ``_BUILD`` each included.  Nothing is
    planned when building every class directly costs less than planning,
    ``_PLAN``.  Of bases that allow the same sizes the first is the base of
    the others, so no class is built from itself.
    """
    classes = dict.fromkeys(classes)
    moduli = {rc.modulus for rc in classes}
    small = min(isqrt(order), order - 1)
    # every class repeats with this period, so the sizes below it decide
    period = min(order, lcm(*moduli))
    every = _cost_terms(None, order, small, period)
    terms = [_cost_terms(rc, order, small, period) for rc in classes]
    if sum(w + low + _FACTOR * n for w, low, n, _ in terms) < _PLAN:
        return dict.fromkeys(classes)
    # the d of each class of every nonzero residue mod d
    nonzero = [rc.modulus if len(rc.residues) == rc.modulus - 1 else 0 for rc in classes]
    # nonzero(d) for d >= order allows every size below it, as all parts does
    extras = sorted(
        {d for m in moduli for d in range(2, min(m + 1, order)) if not m % d} - {*nonzero}
    )
    nodes = [_ALL, *extras, *classes, _EULER]
    nonzero[:0] = [1, *extras]  # all parts is nonzero(1)
    terms[:0] = [every, *(_nonzero_terms(d, every, order, small, period) for d in extras)]
    weight, _, sizes, mask = map(list, zip(*terms))
    euler = len(terms)
    # the Euler route's passes, by how many exponents of E lie below a bound
    pentagonal = _pentagonal(order)
    below = [0, *accumulate(pentagonal)]

    def euler_route(d: int) -> int:
        """The cost of the all-parts series times E(q^d), or for d = 1 of
        1/E: a pass per exponent of E(q^d) below the order, or every term
        of E below each coefficient."""
        n = bisect_left(pentagonal, -(-order // d))
        if d == 1:
            return (n - 1) * order - below[n] + _PASS * (order - 1)
        return n * (order + _PASS) - d * below[n]

    direct = {euler: order * (order - 1) // 2 + _PASS * (order - 1)}
    options: dict[int, list[tuple[int, int]]] = {euler: []}
    users: dict[int, list[tuple[int, int]]] = {}
    # A base allows every size of what it builds, so it weighs more, or as
    # much when the two allow the same sizes; of those, the first in this
    # rank, the all-parts series first, is the base of the others.
    rank = sorted(range(euler), key=weight.__getitem__, reverse=True)
    first = len(extras) + 1  # the first class
    for at, i in enumerate(rank):
        w, c, m = weight[i], sizes[i], mask[i]
        direct[i] = w + terms[i][1] + _FACTOR * c
        # the cheapest route from a class, always built, or direct (-1); then
        # the routes from extras that beat it, cheapest first
        settled = (direct[i], -1)
        extra = []
        for j in rank[:at]:
            if not m & ~mask[j]:
                route = (weight[j] - w + _PASS * (sizes[j] - c), j)
                if j < first:
                    extra.append(route)
                elif route < settled:
                    settled = route
        if nonzero[i]:
            extra.append((euler_route(nonzero[i]), euler))
        options[i] = opts = sorted(r for r in extra if r < settled)
        for cost_ij, j in opts:
            users.setdefault(j, []).append((cost_ij, i))
        if settled[1] >= 0:
            opts.append(settled)

    built = set(range(first, euler))

    def cheapest(i: int) -> tuple[int, int | None]:
        return next(((c, j) for c, j in options[i] if j in built), (direct[i], None))

    def gain(added: tuple[int, ...]) -> tuple[int, dict[int, int]]:
        """What building ``added`` too saves, net of its cost, and the new
        cost of each node it builds or builds for less."""
        built.update(added)
        new = {i: cheapest(i)[0] + _BUILD for i in added}
        for j in added:
            for c, i in users.get(j, ()):
                if i in built and i not in added and c < new.get(i, cost[i]):
                    new[i] = c
        built.difference_update(added)
        return sum(cost.get(i, 0) - c for i, c in new.items()), new

    cost = {i: cheapest(i)[0] for i in built}
    # the all-parts series alone or with E, then each nonzero(d) by rising d
    for choices in ([(0,), (0, euler)], *([(x,)] for x in range(1, len(extras) + 1))):
        saved, new = max(map(gain, choices), key=lambda g: g[0])
        if saved > 0:
            built.update(new)
            cost.update(new)
    for i in built & set(range(1, len(extras) + 1)):
        nodes[i] = ResidueClass.nonzero(nodes[i])
    return {
        nodes[i]: None if j is None else nodes[j]
        for i in built
        for j in (cheapest(i)[1],)
    }


def _product_routes(
    classes: Iterable[ResidueClass], order: int
) -> dict[ResidueClass | str, tuple[Callable, tuple[ResidueClass | str, ...]]]:
    """Every series ``_product_bases`` plans for ``classes`` at ``order``,
    mapped to the function that builds it from the series it needs, and
    those, in the order the function takes them."""
    routes = {}
    for node, base in _product_bases(classes, order).items():
        if base is None:
            direct = {_ALL: _all_parts, _EULER: _euler}.get(node) or partial(product_side, node)
            routes[node] = (partial(direct, order), ())
        elif base is _EULER and node is _ALL:
            routes[node] = (_reciprocal, (_EULER,))
        elif base is _EULER:
            routes[node] = (partial(_product_side_by_dilation, node), (_ALL, _EULER))
        else:
            routes[node] = (
                partial(_product_side_by_complement, node, base=None if base is _ALL else base),
                (base,),
            )
    return routes


_MAX_TERMS = 10_000


def _standard_terms(
    min_weight: Callable[[int], int], slots: Callable[[int], int], order: int, start: int
) -> Iterator[tuple[int, int]]:
    """The exponent and slot count of each term n = start, start + 1, ...
    below ``order``, checked as ``sum_side_standard`` documents: it stops at
    the first exponent that reaches the order."""
    previous = None
    for scanned, n in enumerate(count(start)):
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
            return
        previous = w
        yield w, u


def _sum_terms(terms: Iterable[tuple[int, int]], order: int) -> TruncatedSeries:
    """Sum of q^w / ((1-q)...(1-q^u)) over the (w, u) of ``terms``, whose
    exponents w are nondecreasing and below ``order``.

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
    for w, u in terms:
        del run[order - w :]
        if u < have:
            run, have = [1] + [0] * (order - w - 1), 0
        _pochhammer_inverse_from(run, have, u)
        have = u
        total[w:] = map(add, total[w:], run)
    return TruncatedSeries(tuple(total))


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
    SumTerminationError instead of looping forever.  The terms are summed
    with one running 1/(q)_u (``_sum_terms``).
    """
    return _sum_terms(_standard_terms(min_weight, slots, order, start), order)


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
