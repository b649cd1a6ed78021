"""Exact arithmetic on truncated integer power series in the formal variable q,
with builders for the product and sum sides of partition identities.

Coefficients are plain Python ints, so there is no precision ceiling; every
value carries its truncation order explicitly and mixed-order arithmetic
truncates to the shorter operand.  There is no general series division:
reciprocals such as 1/((1-q)(1-q^2)...(1-q^n)) are assembled by multiplying
geometric expansions of 1/(1-q^k), and ratios like (q^n - q^{nM})/(1-q^n) are
expanded symbolically as polynomials.
"""

from collections.abc import Callable, Iterable
from dataclasses import dataclass

__all__ = [
    "SumTerminationError",
    "TruncatedSeries",
    "ResidueClass",
    "series_one",
    "geometric_inverse_factor",
    "pochhammer",
    "pochhammer_base",
    "pochhammer_inverse",
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
        for e in range(order):
            if self.coefficients[e] != other.coefficients[e]:
                return e
        return None

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))[:order]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients))[:order]
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coefficients))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [0] * order
        for i in range(order):
            a = self.coefficients[i]
            if a:
                for j in range(min(order - i, other.order)):
                    b = other.coefficients[j]
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k, keeping the truncation order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k == 0:
            return self
        if k >= self.order:
            return TruncatedSeries((0,) * self.order)
        return TruncatedSeries((0,) * k + self.coefficients[: self.order - k])

    def times_geometric(self, k: int) -> "TruncatedSeries":
        """Multiply by 1/(1 - q^k) exactly, in a single O(order) pass."""
        if k < 1:
            raise ValueError("factor exponent must be positive")
        if k >= self.order:
            return self
        out = list(self.coefficients)
        for i in range(k, self.order):
            out[i] += out[i - k]
        return TruncatedSeries(tuple(out))

    def times_one_minus(self, k: int) -> "TruncatedSeries":
        """Multiply by (1 - q^k) exactly, in a single O(order) pass."""
        if k < 1:
            raise ValueError("factor exponent must be positive")
        if k >= self.order:
            return self
        out = list(self.coefficients)
        for i in range(self.order - 1, k - 1, -1):
            out[i] -= out[i - k]
        return TruncatedSeries(tuple(out))

    def render_text(self) -> str:
        """Canonical text form ``c0 + c1*q + c2*q^2 + ... (mod q^ORDER)``."""
        parts = [str(self.coefficients[0])]
        for e in range(1, self.order):
            c = self.coefficients[e]
            parts.append(f"{c}*q" if e == 1 else f"{c}*q^{e}")
        return " + ".join(parts) + f" (mod q^{self.order})"


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


def geometric_inverse_factor(k: int, order: int) -> TruncatedSeries:
    """1/(1 - q^k) = 1 + q^k + q^{2k} + ..., truncated at ``order``."""
    if k < 1:
        raise ValueError("exponent must be positive")
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    coeffs = [0] * order
    for e in range(0, order, k):
        coeffs[e] = 1
    return TruncatedSeries(tuple(coeffs))


def pochhammer(n: int, order: int) -> TruncatedSeries:
    """(1-q)(1-q^2)...(1-q^n) truncated; the empty product 1 for n <= 0.
    Factors with exponent at least ``order`` are the identity and are skipped."""
    out = series_one(order)
    for s in range(1, min(n, order - 1) + 1):
        out = out.times_one_minus(s)
    return out


def pochhammer_base(base_exponent: int, n: int, order: int) -> TruncatedSeries:
    """(1-q^M)(1-q^{2M})...(1-q^{nM}) for M = ``base_exponent``; 1 for n <= 0.
    Factors with exponent at least ``order`` are the identity and are skipped."""
    if base_exponent < 1:
        raise ValueError("base exponent must be positive")
    out = series_one(order)
    for s in range(1, min(n, (order - 1) // base_exponent) + 1):
        out = out.times_one_minus(s * base_exponent)
    return out


def pochhammer_inverse(n: int, order: int) -> TruncatedSeries:
    """1/((1-q)(1-q^2)...(1-q^n)), built from geometric factors; 1 for n <= 0.
    Factors with exponent at least ``order`` are the identity and are skipped."""
    out = series_one(order)
    for s in range(1, min(n, order - 1) + 1):
        out = out.times_geometric(s)
    return out


def product_side(rc: ResidueClass, order: int) -> TruncatedSeries:
    """Product of 1/(1-q^k) over allowed part sizes k.

    The q^N coefficient counts partitions of N into parts whose residue
    mod ``rc.modulus`` lies in ``rc.residues``.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    coeffs = [0] * order
    coeffs[0] = 1
    for k in range(1, order):
        if rc.allows(k):
            for i in range(k, order):
                coeffs[i] += coeffs[i - k]
    return TruncatedSeries(tuple(coeffs))


def sum_side_standard(
    min_weight: Callable[[int], int],
    slots: Callable[[int], int],
    order: int,
    *,
    start: int = 0,
    max_terms: int = 10_000,
) -> TruncatedSeries:
    """Sum over n of q^{min_weight(n)} / ((1-q)...(1-q^{slots(n)})).

    The scan starts at ``start`` and stops at the first n whose exponent
    reaches the truncation order.  Exponents must be nondecreasing over the
    scanned range (a decrease raises ValueError), and a scan that stays below
    the order for more than ``max_terms`` values of n raises
    SumTerminationError instead of looping forever.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    total = [0] * order
    previous = None
    n = start
    scanned = 0
    while True:
        if scanned > max_terms:
            raise SumTerminationError(
                f"exponent stayed below order {order} for more than "
                f"{max_terms} terms (last n={n - 1})"
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
        inv = pochhammer_inverse(u, order - w)
        for i, c in enumerate(inv.coefficients):
            if c:
                total[w + i] += c
        n += 1
        scanned += 1
    return TruncatedSeries(tuple(total))


def sum_side_glaisher(modulus: int, order: int) -> TruncatedSeries:
    """1 + sum over n >= 1 of (q^n - q^{nM}) (q^M)_{n-1} / (q)_n for M = modulus.

    Here (q)_n = (1-q)...(1-q^n) and (q^M)_{n-1} = (1-q^M)...(1-q^{(n-1)M});
    the running factor (q^M)_{n-1}/(q)_n is updated incrementally so the whole
    expansion costs O(order^2).
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    total = [0] * order
    total[0] = 1
    run = [0] * order
    run[0] = 1
    for n in range(1, order):
        if n >= 2:
            k = (n - 1) * modulus
            if k < order:
                for i in range(order - 1, k - 1, -1):
                    run[i] -= run[i - k]
        for i in range(n, order):
            run[i] += run[i - n]
        hi = n * modulus
        for i in range(order - n):
            c = run[i]
            if c:
                total[i + n] += c
                if i + hi < order:
                    total[i + hi] -= c
    return TruncatedSeries(tuple(total))


def euler_distinct_sum(order: int) -> TruncatedSeries:
    """1 + sum over n >= 1 of q^n (1+q)(1+q^2)...(1+q^{n-1})."""
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    total = [0] * order
    total[0] = 1
    prod = [0] * order
    prod[0] = 1
    for n in range(1, order):
        for i in range(order - n):
            if prod[i]:
                total[i + n] += prod[i]
        for i in range(order - 1, n - 1, -1):
            prod[i] += prod[i - n]
    return TruncatedSeries(tuple(total))


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
    out = TruncatedSeries(tuple(coeffs))
    for j in range(1, n):
        out = out.times_one_minus(j * modulus).times_geometric(j)
    return out


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
        for i in range(order):
            acc[i] += t.coefficients[i]
    out = [0] * order
    for j in range(1, modulus):
        e = j * n
        if e >= order:
            break
        for i in range(order - e):
            if acc[i]:
                out[i + e] += acc[i]
    return TruncatedSeries(tuple(out))
