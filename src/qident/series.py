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
route, ``_product_side_by_complement``, starts instead from the all-parts
series 1/((1-q)...(1-q^{order-1})) and multiplies one (1-q^k) per excluded
part size, exact mod q^order.  For a class that allows most part sizes that
is fewer factors, and when several classes share one all-parts series, as
``qident.verify`` arranges within a run, it is the cheaper build.
"""

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import accumulate
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


def _complement_pays(rc: ResidueClass, order: int) -> bool:
    """True when ``rc`` allows more part sizes below ``order`` than it
    excludes, so that ``_product_side_by_complement`` multiplies fewer
    factors than ``product_side``.  Each whole period of the modulus allows
    one part size per residue; only the sizes after the last are tested."""
    periods, rest = divmod(order - 1, rc.modulus)
    allowed = periods * len(rc.residues) + sum(map(rc.allows, range(1, rest + 1)))
    return 2 * allowed > order - 1


def _product_side_by_complement(
    rc: ResidueClass, all_parts: TruncatedSeries
) -> TruncatedSeries:
    """``product_side(rc, all_parts.order)`` from ``all_parts = _all_parts(order)``:
    the all-parts series times (1 - q^k) for every excluded part size k,
    which cancels its factor 1/(1 - q^k) exactly below the order."""
    c = list(all_parts.coefficients)
    for k in range(1, len(c)):
        if not rc.allows(k):
            _one_minus(c, k)
    return TruncatedSeries(tuple(c))


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
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if n < 0:
        raise ValueError("term index must be nonnegative")
    if n == 0:
        return series_one(order)
    coeffs = [0] * order
    for j in range(1, modulus):
        e = j * n
        if e < order:
            coeffs[e] = 1
    for j in range(1, n):
        _one_minus(coeffs, j * modulus)
        _geometric(coeffs, j)
    return TruncatedSeries(tuple(coeffs))


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
    out = [0] * order
    for j in range(1, modulus):
        e = j * n
        out[e:] = map(add, out[e:], acc)
    return TruncatedSeries(tuple(out))
