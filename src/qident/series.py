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
through a kernel, ``_geometric`` for 1/(1-q^k), ``_one_minus`` for (1-q^k) or
``_one_plus`` for (1+q^k), and every shifted addition is one slice assignment
such as ``total[n:] = map(add, total[n:], run)``: a few C-level slice
operations per factor, not a Python statement per coefficient.

``sum_side_standard`` (through ``_sum_terms``), ``sum_side_glaisher`` and
``euler_distinct_sum`` nest their sums from the last term down (Horner form),
each inner sum needed only below the order less its exponent, so no step adds
a long slice into a total.  From n0(M) = ceil((order+M)/(M+1)) up the
divide-by-M nest has no numerator below its length and splits as A - B, A the
same for every M and B zero above (order-1)//M, so one nest of A
(``_glaisher_tails``) serves every M >= 3.  At M = 2 each term is
q^n (-q;q)_{n-1}, so that sum is ``euler_distinct_sum``.

``product_side`` multiplies one 1/(1-q^k) per allowed part size.
``_product_side`` builds it as 1/E, E the Euler product (1-q)(1-q^2)...
(``_euler``), times the class's numerator, the product of (1-q^k) over the
sizes it does not allow: E(q^d) for the parts not divisible by d, and for
Rogers-Ramanujan type classes a theta-type series with few nonzero terms,
which ``_numerator`` builds at one pass per term.  Where a class's numerator
is dense, as for Schur's +-1 mod 6, ``_numerator`` gives up on it within a
few terms and the class is the direct product.

The n-th term polynomial of the divide-by-M family has degree
(M-1)n(n+1)/2, so ``alpha_closed_form`` works on no more coefficients than
that and pads with zeros; ``_alpha_from_sum`` stops where its product ends,
read from its input's last nonzero coefficient, not from that degree.
"""

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, compress, count, repeat
from math import isqrt
from operator import add, mul, sub

from ._record import Record

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
]


class SumTerminationError(RuntimeError):
    """A term-family scan failed to reach the truncation order within the
    allowed number of terms."""


class TruncatedSeries(Record):
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


def _one_plus(c: list[int], k: int) -> None:
    """Multiply the coefficients ``c`` by (1 + q^k) in place, k >= 1."""
    c[k:] = map(add, c[k:], c[:-k])


def _add_times(out: list[int], c: Sequence[int], e: int, x: int) -> None:
    """Add x q^e ``c`` into ``out`` in place: one pass, no multiply for +-1."""
    if x in (1, -1):
        out[e:] = map(add if x == 1 else sub, out[e:], c[: len(out) - e])
    else:
        out[e:] = map(add, out[e:], map(mul, c[: len(out) - e], repeat(x)))


def _times_dilated(c: Sequence[int], b: Sequence[int], d: int) -> list[int]:
    """``c`` times b(q^d) below len(c), d >= 1: one shifted pass of ``c`` per
    nonzero coefficient of ``b`` that lands below len(c), zeros skipped.
    Exact for any ``b``; a sparse one is cheap."""
    out = [0] * len(c)
    for j, x in enumerate(b[: (len(c) - 1) // d + 1]):
        if x:
            _add_times(out, c, j * d, x)
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


class ResidueClass(Record):
    """Nonzero residues mod ``modulus`` marking which part sizes are allowed.
    The modulus and every residue must be ints (a bool is none); nothing is
    coerced."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        for value in (self.modulus, *self.residues):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"modulus and residues must be ints, not {value!r}")
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


def _numerator(excluded: Sequence[bool], removed: Sequence[bool]) -> list[int] | None:
    """The product of (1 - q^k) over the sizes 0 < k < order with
    ``excluded[k]``, order the length of both lists, from its logarithmic
    derivative: with s_j the sum of those sizes that divide j,
    n c_n = -(s_1 c_{n-1} + ... + s_n c_0).  Each nonzero c_i adds c_i s,
    shifted by i, into those sums once: one pass per nonzero term.  An inexact
    quotient raises ArithmeticError.  It gives up with None at the first n
    where c has more nonzero terms at q^1..q^n than one plus the sizes
    0 < k <= n with ``removed[k]``: the one term of slack lets a sparse
    numerator with a term before the first removed size through."""
    order = len(excluded)
    w = list(map(mul, count(), excluded))
    s, r = [0] * order, isqrt(order - 1)  # no size and its cofactor both exceed r
    for m in range(1, r + 1):  # each size m <= r, then m times each size above r
        s[m::m] = map(add, s[m::m], repeat(w[m]))
        s[m * (r + 1) :: m] = map(add, s[m * (r + 1) :: m], w[r + 1 : (order - 1) // m + 1])
    c, t, spare = [1] + [0] * (order - 1), s[:], 1  # t_n: s_n c_0 + ..., c_i found so far
    for n in range(1, order):
        x, inexact = divmod(-t[n], n)
        if inexact:
            raise ArithmeticError(f"inexact numerator coefficient at q^{n}")
        if x:
            c[n] = x
            _add_times(t, s, n, x)  # s_0 = 0
        spare += removed[n] - (x != 0)
        if spare < 0:
            return None
    return c


def _euler(order: int) -> TruncatedSeries:
    """(1-q)(1-q^2)...(1-q^{order-1}), the Euler product E below ``order``:
    the numerator with every size removed, so it never gives up.
    ``_reciprocal`` of it is the all-parts series."""
    every = [True] * order
    return TruncatedSeries(tuple(_numerator(every, every)))


def _product_side(
    rc: ResidueClass, all_parts: TruncatedSeries, euler: TruncatedSeries
) -> TruncatedSeries:
    """``product_side(rc, order)`` from the all-parts series 1/E and the
    Euler product E at that order.  The parts not divisible by m, every
    nonzero residue mod m, are E(q^m)/E(q), the all-parts series times
    E(q^m).  Any other class is the all-parts series times its numerator,
    or, where ``_numerator`` gives up on a dense one, the direct product.
    The give-up rule counts the sizes below the order that the class does
    not allow and the parts not divisible by d do, d the least divisor of m
    from 2 up that divides no allowed residue.  Below the order a d at or
    above it removes every size the class does not allow, so the search
    stops at the order: no step is sized by m, and a modulus of any size
    costs work set by the order and the residues."""
    m, order = rc.modulus, all_parts.order
    if len(rc.residues) == m - 1:
        return TruncatedSeries(tuple(_times_dilated(all_parts.coefficients, euler.coefficients, m)))
    d = next((d for d in range(2, order) if not m % d and all(r % d for r in rc.residues)), order)
    excluded = [k % m not in rc.residues for k in range(order)]
    numerator = _numerator(excluded, [x and k % d != 0 for k, x in enumerate(excluded)])
    if numerator is None:
        return product_side(rc, order)
    return TruncatedSeries(tuple(_times_dilated(all_parts.coefficients, numerator, 1)))


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

    Nested from the last term down (Horner form): with the terms
    (w_0, u_0) ... (w_t, u_t), the sum is q^{w_0} H_0 / (q)_{u_0}, where
    H_t = 1 and H_i = 1 + q^{w_{i+1} - w_i} R_i H_{i+1}, needed only below
    ``order - w_i``.  R_i = (q)_{u_i} / (q)_{u_{i+1}} is 1/(1-q^j) for
    u_i < j <= u_{i+1}, or (1-q^j) for u_{i+1} < j <= u_i when the slot count
    drops; a factor with j at or beyond the length of H_{i+1} is the identity
    and is skipped.  Each factor works at the length of the inner sum it
    multiplies, and no term adds a slice into a total.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    w, u, h = order, 0, []  # past the last term, H is 0 from exponent ``order``
    for w_i, u_i in reversed(list(terms)):
        if u_i <= u:
            _pochhammer_inverse_from(h, u_i, u)
        else:
            for j in range(u + 1, min(u_i, len(h) - 1) + 1):
                _one_minus(h, j)
        if w_i < w:
            h[:0] = [1] + [0] * (w - w_i - 1)
        else:
            h[0] += 1
        w, u = w_i, u_i
    _pochhammer_inverse_from(h, 0, u)
    return TruncatedSeries((*(0,) * w, *h))


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
    SumTerminationError instead of looping forever.  The terms are nested
    from the last one down (``_sum_terms``).
    """
    return _sum_terms(_standard_terms(min_weight, slots, order, start), order)


def sum_side_glaisher(modulus: int, order: int) -> TruncatedSeries:
    """1 + sum over n >= 1 of (q^n - q^{nM}) (q^M)_{n-1} / (q)_n for M = modulus.

    Here (q)_n = (1-q)...(1-q^n) and (q^M)_{n-1} = (1-q^M)...(1-q^{(n-1)M}).
    With g_1 = 1/(1-q) and g_n = (1-q^{(n-1)M})/(1-q^n), the term n is
    q^n (1 - q^{n(M-1)}) g_1...g_n, so the sum nests as 1 + q V_1 with

        V_n = g_n (1 - q^{n(M-1)} + q V_{n+1}),

    and V_n is needed only below ``order - n``.  From n0 = ceil((order+M)/(M+1))
    up, (n-1)M >= order - n, so g_n is 1/(1-q^n) there and V_n = A_n - B_n,
    A_n = (1 + q A_{n+1})/(1-q^n) the same for every M and
    B_n = (q^{n(M-1)} + q B_{n+1})/(1-q^n) zero below ``order - n`` once
    nM >= order.  So V_n = A_n there once nM >= order, copied from one nest of
    A (``_glaisher_tails``), and below that the nest runs on (``_glaisher_sum``):
    1 + q V_{n+1} is one shift with 1 at q^0, -q^{n(M-1)} one O(1) update, and
    g_n one ``_geometric`` with, below n0, one ``_one_minus``.  At M = 2 the
    term is q^n (1+q)...(1+q^{n-1}), so the sum is ``euler_distinct_sum``.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    return _glaisher_sum(modulus, order, _glaisher_tails((modulus,), order))


def _glaisher_tails(moduli: Iterable[int], order: int) -> dict[int, list[int]]:
    """For each M >= 3 in ``moduli``, A_n of ``sum_side_glaisher`` at the
    least n >= n0(M) above (order-1)//M, exact below ``order - n``, where it
    is V_n: one nest down to the least such n, copied at each."""
    starts = {m: max((order - 1) // m + 1, -(-(order + m) // (m + 1))) for m in moduli if m > 2}
    a, at = [], {order: []}  # A_n, exact below order - n
    for n in range(order - 1, min(starts.values(), default=order) - 1, -1):
        a.insert(0, 1)
        _geometric(a, n)
        if n in starts.values():
            at[n] = a[:]
    return {m: at[n] for m, n in starts.items()}


def _glaisher_sum(modulus: int, order: int, tails: dict[int, list[int]]) -> TruncatedSeries:
    """``sum_side_glaisher(modulus, order)``, the nest run on from the tail
    that ``_glaisher_tails`` built for moduli holding ``modulus``."""
    if modulus == 2:
        return euler_distinct_sum(order)
    v = list(tails[modulus])  # V_{n+1}, exact below order - n - 1
    for n in range(order - len(v) - 1, 0, -1):
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
    each step is one shift, one ``_one_plus`` and +1 at q^0.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    u: list[int] = []  # U_{n+1}, exact below order - n - 1
    for n in range(order - 1, 0, -1):
        u.insert(0, 0)
        _one_plus(u, n)
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
    for e in range(n, min(length, modulus * n), n):
        coeffs[e] = 1
    for j in range(1, n):
        _one_minus(coeffs, j * modulus)
        _geometric(coeffs, j)
    return TruncatedSeries((*coeffs, *(0,) * (order - length)))


def _alpha_from_sum(modulus: int, n: int, lower_sum: Sequence[int], order: int) -> list[int]:
    """The n-th term from the recurrence, (q^n + q^{2n} + ... + q^{(M-1)n})
    times ``lower_sum`` = alpha_0 + ... + alpha_{n-1}, below ``order``.  Both
    list their coefficients from q^0, any not listed being 0: with L one past
    the sum's last nonzero one, the term lists min(order, L + (M-1)n)."""
    top = max(compress(range(1, len(lower_sum) + 1), lower_sum), default=0)
    out = [0] * min(order, top + (modulus - 1) * n)
    for e in range(n, min(len(out), modulus * n), n):
        out[e : e + top] = map(add, out[e : e + top], lower_sum)
    return out
