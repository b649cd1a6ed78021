"""End-to-end identity verification.

Three kinds of check, deliberately routed through independent machinery:
analytic (series algebra on both sides), combinatorial (chain enumeration
against series coefficients), and equinumerosity (several interpretations of
one sum side counted against each other and against the product side).  The
divide-by-M family additionally gets its bijection certified, its conjugate
chain characterization checked, and its term recurrence compared with the
closed form.  The bijection and the conjugate characterization are each
certified by one ``certify_bijection`` pass over ``repetition_bounded_walk``,
every bounded-repetition partition up to the weight bound once as a bare part
tuple, mapped by the public ``glaisher_forward`` and ``glaisher_inverse`` or by
``conjugate``, against a target known only by its membership test and its size
at each weight, an enumeration count, never a listed set or a series.  The
conjugate target is counted by one search over its vectors of every length.

What gets checked is derived from the catalog alone: ``plan_checks`` turns
names into a tuple of ``Check`` rows without running anything, and
``run_suite`` runs that plan.  A catalog identity, a label and its member
entries, gets a combinatorial row per member and, when its first member has
a product side, an analytic row; a divide-by-M identity, fixed by its
modulus M, gets analytic, bijection, conjugate, alpha and (at M = 2) forms
rows.  The planner is the one place where names are looked up: each row
binds the catalog entries it checks, so a check function takes entries or
values, never a name or a catalog.  A check function returns a ``Finding``
for a failure and None for a pass; it knows nothing of the row it fills.
``run_suite`` times each check and builds its ``VerificationReport`` from
the planned row (identity, mode, subject, bound) and the finding.

Many identities share a product side, and many interpretations share their
term rules, so each row also declares the shared inputs it reads: product
sides, divide-by-M sum sides and their shared tail, profile sum sides (keyed
by the term rules of their branches) and profiles' chain counts at a weight
bound.  Every product side is built from the all-parts series 1/E and E,
the Euler product, each an input of its own: the parts not divisible by m
are 1/E times E(q^m), and any other class 1/E times its numerator
(``_product_side``).  ``run_suite`` builds each input once, as its own timed
step, just before its first reader (a row, or an input built from it), hands
it to every reader and drops it after the last; a check function is handed
the values it compares and builds none of them.

The rows that read no shared input, the divide-by-M ``bijection``,
``conjugate`` and ``alpha`` rows and any ``lookup`` row, need nothing the run
builds.  Where a second CPU is free, ``run_suite`` forks one helper before
building anything, and the helper takes such rows from a queue shared
through a pipe while the parent runs the rows that read inputs and then takes
from the queue too.  The reports, the machine lines and any exception are
those of a run in one process, and no helper outlives the run.
"""

import json
import re
import time
from collections import Counter
from collections.abc import Callable, Sequence
from functools import partial
from itertools import chain
from operator import add, sub

from ._record import Record
from .bijections import (
    CertificationReport,
    certify_bijection,
    glaisher_forward,
    glaisher_inverse,
)
from .partitions import (
    conjugate,
    count_bounded_gap_vectors,
    count_partitions_with_parts,
    repetition_bounded_walk,
)
from .profiles import (
    Catalog,
    CatalogEntry,
    ProfileBranch,
    ProfileFamily,
    default_catalog,
    profile_chain_counts,
    profile_series,
)
from .series import (
    ResidueClass,
    TruncatedSeries,
    _alpha_from_sum,
    _euler,
    _glaisher_sum,
    _glaisher_tails,
    _product_side,
    _reciprocal,
    alpha_closed_form,
    sum_side_glaisher,
)

__all__ = [
    "VerificationReport",
    "Finding",
    "SuiteSummary",
    "Check",
    "CONJUGATE_MAX_WEIGHT",
    "verify_analytic",
    "verify_combinatorial",
    "verify_equinumerosity",
    "glaisher_bijection_report",
    "glaisher_conjugate_report",
    "glaisher_alpha_report",
    "euler_forms_report",
    "plan_checks",
    "run_suite",
]


class VerificationReport(Record):
    """Result of one check; mismatches carry the smallest offending exponent
    (or weight) and both exact values."""

    identity: str
    mode: str
    bound: int
    outcome: str  # "pass" | "mismatch" | "error"
    subject: str = ""
    exponent: int | None = None
    lhs: int | None = None
    rhs: int | None = None
    note: str = ""
    elapsed: float = 0.0
    _uncompared = frozenset({"elapsed"})

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def machine(self) -> str:
        """One-line JSON record; wall time is excluded so output is
        byte-identical across runs."""
        payload: dict = {
            "identity": self.identity,
            "mode": self.mode,
            "bound": self.bound,
            "outcome": self.outcome,
        }
        if self.subject:
            payload["subject"] = self.subject
        if self.exponent is not None:
            payload["exponent"] = self.exponent
        if self.lhs is not None:
            payload["lhs"] = self.lhs
        if self.rhs is not None:
            payload["rhs"] = self.rhs
        if self.note:
            payload["note"] = self.note
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        if self.outcome == "pass":
            return "pass"
        if self.outcome == "mismatch":
            where = f" at q^{self.exponent}" if self.exponent is not None else ""
            values = (
                f": {self.lhs} != {self.rhs}"
                if self.lhs is not None or self.rhs is not None
                else ""
            )
            note = f" ({self.note})" if self.note else ""
            return f"mismatch{where}{values}{note}"
        return f"error: {self.note}"


class Finding(Record):
    """What a failed check found: the smallest offending exponent (or weight)
    and both exact values, or, with ``error``, why it could not run.  A check
    function returns None when it passes."""

    note: str
    exponent: int | None = None
    lhs: int | None = None
    rhs: int | None = None
    error: bool = False


def _first_difference(
    lhs: TruncatedSeries, rhs: TruncatedSeries, order: int, note: str
) -> Finding | None:
    e = lhs.first_difference(rhs, order)
    if e is None:
        return None
    return Finding(note, e, lhs.coefficient(e), rhs.coefficient(e))


def verify_analytic(product: TruncatedSeries, sum_side: TruncatedSeries) -> Finding | None:
    """Compare a product side and a sum side, both computed by series algebra
    alone, coefficientwise below the product side's order; a sum side of
    lower order raises ValueError."""
    return _first_difference(product, sum_side, product.order, "product vs sum side")


def verify_combinatorial(
    counts: Sequence[int], sum_side: TruncatedSeries, product: TruncatedSeries | None = None
) -> Finding | None:
    """Chain-enumeration counts of one interpretation, at every weight from 0
    to ``len(counts) - 1``, against the sum-side series coefficients, and
    against the product-side series when the identity has one.  Enumeration
    and series are independent code paths."""
    series = [("sum side", sum_side)]
    if product is not None:
        series.append(("product side", product))
    for label, s in series:
        for weight, count in enumerate(counts):
            if count != s.coefficient(weight):
                return Finding(f"enumeration vs {label}", weight, count, s.coefficient(weight))
    return None


def verify_equinumerosity(
    entries: Sequence[CatalogEntry], series: TruncatedSeries, *counts: Sequence[int]
) -> Finding | None:
    """Count agreement across interpretations sharing one term family: the
    chain counts of each entry, in order, checked against each other, against
    product-side enumeration and against ``series``, the product side or,
    without one, the sum side, at every weight below its order.
    Interpretations of different product sides raise ValueError, and so does
    a count sequence too many or too few."""
    if len({e.product for e in entries}) != 1:
        names = ", ".join(e.name for e in entries)
        raise ValueError(f"profiles {names} disagree on the product side")
    product = entries[0].product
    sequences = list(zip((e.name for e in entries), counts, strict=True))
    if product is not None:
        sequences += [
            ("product enumeration", count_partitions_with_parts(product, series.order - 1)),
            ("product series", series.coefficients),
        ]
    else:
        sequences.append(("sum series", series.coefficients))
    ref_name, reference = sequences[0]
    for other_name, other in sequences[1:]:
        for weight in range(series.order):
            if reference[weight] != other[weight]:
                return Finding(
                    f"{ref_name} vs {other_name}", weight, reference[weight], other[weight]
                )
    return None


def euler_forms_report(
    odd_parts: TruncatedSeries, divide_by_2: TruncatedSeries, triangular: TruncatedSeries
) -> Finding | None:
    """At modulus 2, the odd-parts product equals the divide-by-2 sum, built in
    its distinct-parts form, and the triangular-exponent family; both are
    compared to the product below its order."""
    order = odd_parts.order
    for label, s in (("divide-by-2 sum", divide_by_2), ("triangular sum", triangular)):
        finding = _first_difference(odd_parts, s, order, f"odd-parts product vs {label}")
        if finding is not None:
            return finding
    return None


def _finding(cert: CertificationReport) -> Finding | None:
    """The lowest failing weight of a certificate, with both sizes there."""
    if cert.ok:
        return None
    return Finding(cert.failure, cert.weight, cert.domain_size, cert.target_size)


def glaisher_bijection_report(modulus: int, max_weight: int) -> Finding | None:
    """Certify the divide-by-M map from bounded-repetition partitions onto
    partitions with no part divisible by M, at every weight up to
    ``max_weight``, in one walk over the domain.

    The target is never listed: each image must be a partition of the weight
    with no part divisible by M, and the number of such partitions at every
    weight comes from one count of partitions into parts not divisible by M,
    an enumeration oracle.
    """
    target_sizes = count_partitions_with_parts(ResidueClass.nonzero(modulus), max_weight)
    # a member of weight w <= max_weight has only parts from this set
    allowed = frozenset(k for k in range(1, max_weight + 1) if k % modulus)

    def in_target(weight: int, parts: tuple[int, ...]) -> bool:
        if sum(parts) != weight:
            return False
        # weakly decreasing: no part above the one before it, the first
        # compared with the weight
        above = weight
        for part in parts:
            if part > above or part not in allowed:
                return False
            above = part
        return True

    return _finding(certify_bijection(
        repetition_bounded_walk(max_weight, modulus),
        lambda parts: glaisher_forward(parts, modulus),
        lambda parts: glaisher_inverse(parts, modulus),
        in_target,
        target_sizes,
    ))


def glaisher_conjugate_report(modulus: int, max_weight: int) -> Finding | None:
    """Conjugation must map the bounded-repetition partitions of every weight
    from 1 to ``max_weight`` onto the vectors whose adjacent differences lie
    in [0, M-1] and whose last entry lies in [1, M-1].

    Certified like the divide-by-M map, on the same walk less its weight-0
    partition: conjugating twice gives the partition back, each conjugate has
    the weight, a length from 1 to the weight, every adjacent difference in
    [0, M-1] and its last entry in [1, M-1], and at every weight the target
    vectors, counted over every length in one search, are as many as the
    partitions.
    """
    target_sizes = count_bounded_gap_vectors(modulus, max_weight)
    gaps = frozenset(range(min(modulus, max_weight + 1)))  # no target gap exceeds its weight

    def in_target(weight: int, vector: tuple[int, ...]) -> bool:
        return (
            sum(vector) == weight
            and 0 < len(vector) <= weight
            and 0 < vector[-1] < modulus
            and gaps.issuperset(map(sub, vector, vector[1:]))
        )

    return _finding(certify_bijection(
        ((w, parts) for w, parts in repetition_bounded_walk(max_weight, modulus) if w),
        conjugate,
        conjugate,
        in_target,
        target_sizes,
    ))


def glaisher_alpha_report(modulus: int, n_max: int, order: int) -> Finding | None:
    """Recurrence-built terms must equal the closed form for every index up to
    ``n_max`` at the given order.  The sum of the terms built so far is
    carried from one index to the next, listed as ``_alpha_from_sum`` lists
    it: up to the length of the last term, its higher coefficients 0."""
    lower_sum = [1]
    for n in range(1, n_max + 1):
        recurred = _alpha_from_sum(modulus, n, lower_sum, order)
        finding = _first_difference(
            TruncatedSeries((*recurred, *(0,) * (order - len(recurred)))),
            alpha_closed_form(modulus, n, order),
            order,
            f"recurrence vs closed form at term {n}",
        )
        if finding is not None:
            return finding
        lower_sum = [*map(add, recurred, lower_sum), *recurred[len(lower_sum) :]]
    return None


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Left-aligned columns two spaces apart, under a header line and a rule
    of dashes; a column is as wide as its widest cell or header."""
    widths = [max([len(h), *(len(row[i]) for row in rows)]) for i, h in enumerate(headers)]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in (headers, ["-" * w for w in widths], *rows)
    ]


class SuiteSummary(Record):
    """The reports of one run, in plan order, and the build time of each
    shared input it made."""

    reports: tuple[VerificationReport, ...]
    build_times: tuple[float, ...] = ()
    _uncompared = frozenset({"build_times"})

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def has_mismatch(self) -> bool:
        return any(r.outcome == "mismatch" for r in self.reports)

    @property
    def has_error(self) -> bool:
        return any(r.outcome == "error" for r in self.reports)

    def machine_lines(self) -> list[str]:
        return [r.machine() for r in self.reports]

    def render_table(self) -> str:
        rows = [
            [r.identity, r.mode, r.subject or "-", str(r.bound), r.describe(),
             f"{r.elapsed:.2f}s"]
            for r in self.reports
        ]
        headers = ["identity", "mode", "subject", "bound", "result", "time"]
        good = sum(1 for r in self.reports if r.passed)
        built = f"{len(self.build_times)} shared inputs built in {sum(self.build_times):.2f}s"
        return "\n".join(
            [*_table(headers, rows), "", f"{good}/{len(self.reports)} checks passed", built]
        )


# The divide-by-M identities that "all" selects.
_GLAISHER_MODULI = range(2, 8)

# Largest weight of the divide-by-M conjugate check, whatever --max-weight
# says.  It is the bound in that check's report, so changing it changes the
# machine output.  Since the target is counted in one search, the uncapped
# conjugate check costs about as much as the bijection check over M = 2..7,
# in five paired in-process runs each: 0.20-0.27 s against 0.25-0.29 s at
# weight 25, and 0.57-0.68 s against 0.56-0.87 s at weight 30 (2 CPUs,
# Python 3.11.7), of which the count is 0.013-0.017 s and 0.023-0.033 s.
# By that measure the cap may go; lifting it changes the recorded output of
# ``verify all``, so it is left for a change that re-records it.
CONJUGATE_MAX_WEIGHT = 20

_GLAISHER_NAME = re.compile(r"glaisher-(\d+)")

# Recurrence terms the divide-by-M ``alpha`` check compares with the closed
# form.
_ALPHA_TERMS = 10


class _Input(Record):
    """A shared input of planned checks, named by ``key``.  ``run_suite``
    makes it as ``build(*values)``, ``values`` being those of the inputs it
    ``needs``; planning builds nothing."""

    key: tuple
    build: Callable
    needs: tuple["_Input", ...] = ()
    _uncompared = _unshown = frozenset({"build", "needs"})


def _product_input(rc: ResidueClass, order: int) -> _Input:
    """The product side of ``rc`` below ``order``, built by ``_product_side``
    from two inputs of their own: E, the Euler product, and the all-parts
    series 1/E."""
    euler = _Input(("euler", order), partial(_euler, order))
    all_parts = _Input(("all parts", order), _reciprocal, (euler,))
    return _Input(("product", rc, order), partial(_product_side, rc), (all_parts, euler))


def _profile_sum_input(profile: ProfileFamily, order: int) -> _Input:
    """``profile_series(profile, order)``, one per set of branch term rules:
    the offsets do not enter a profile's sum side."""
    rules = tuple((b.n_min, b.slots, b.min_weight) for b in profile.branches)
    return _Input(("profile sum", rules, order), lambda: profile_series(profile, order))


def _counts_input(profile: ProfileFamily, max_weight: int) -> _Input:
    # a profile's name is unique within the one catalog a plan is made from
    key = ("chain counts", profile.name, max_weight)
    return _Input(key, lambda: profile_chain_counts(profile, max_weight))


class Check(Record):
    """One planned check: the row its report fills, ``call``, a
    ``functools.partial`` of a check function that returns a ``Finding`` or
    None for a pass, and ``inputs``, the shared inputs whose values ``call``
    takes, in order."""

    identity: str
    mode: str
    subject: str
    bound: int
    call: partial
    inputs: tuple[_Input, ...] = ()
    _uncompared = _unshown = frozenset({"call", "inputs"})


def _term_family_groups(catalog: Catalog) -> list[tuple[str, tuple[CatalogEntry, ...]]]:
    """Equinumerosity groups: two or more entries sharing the product side and
    the term rules of every branch.  A group inside one identity is named
    ``<identity>-interpretations``, any other by its identities joined with
    ``+``.  Where that gives two groups one name, as for an identity whose
    members form two term families, each of them gets ``-1``, ``-2``, ...
    appended in catalog order."""
    families: dict[tuple, list[CatalogEntry]] = {}
    for entry in catalog.entries():
        rules = frozenset(
            (b.parity_label, b.n_min, b.slots, b.min_weight)
            for b in entry.profile.branches
        )
        families.setdefault((entry.product, rules), []).append(entry)
    groups = []
    for members in families.values():
        if len(members) < 2:
            continue
        labels = list(dict.fromkeys(e.identity or e.name for e in members))
        name = f"{labels[0]}-interpretations" if len(labels) == 1 else "+".join(labels)
        groups.append((name, tuple(members)))
    names = [name for name, _ in groups]
    return [
        (f"{name}-{names[:i].count(name) + 1}" if names.count(name) > 1 else name,
         members)
        for i, (name, members) in enumerate(groups)
    ]


def _check(
    identity: str, mode: str, bound: int, fn, /, *args, subject: str = "",
    inputs: tuple[_Input, ...] = (), **kwargs
) -> Check:
    return Check(identity, mode, subject, bound, partial(fn, *args, **kwargs), inputs)


def _identity_checks(label: str, members: Sequence[CatalogEntry], order: int,
                     max_weight: int) -> list[Check]:
    """One combinatorial check per member and, when the first member has a
    product side, the analytic check; the first member supplies both sides."""
    check, first = partial(_check, label), members[0]
    sides = (_profile_sum_input(first.profile, max_weight + 1),)
    if first.product is not None:
        sides += (_product_input(first.product, max_weight + 1),)
    checks = [
        check("combinatorial", max_weight, verify_combinatorial, subject=entry.name,
              inputs=(_counts_input(entry.profile, max_weight), *sides))
        for entry in members
    ]
    if first.product is not None:
        analytic = (_product_input(first.product, order), _profile_sum_input(first.profile, order))
        checks.append(check("analytic", order, verify_analytic, inputs=analytic))
    return checks


def _glaisher_checks(modulus: int, order: int, max_weight: int,
                     moduli: tuple[int, ...]) -> list[Check]:
    """The divide-by-M checks of one modulus; at M >= 3 the sum side runs on
    from the tail that the planned ``moduli`` share."""
    check = partial(_check, f"glaisher-{modulus}")
    # ResidueClass rejects a modulus below 2 with ValueError
    product = _product_input(ResidueClass.nonzero(modulus), order)
    if modulus == 2:
        sum_side = _Input(("glaisher", 2, order), partial(sum_side_glaisher, 2, order))
    else:
        tail = _Input(("glaisher tail", moduli, order), partial(_glaisher_tails, moduli, order))
        build = partial(_glaisher_sum, modulus, order)
        sum_side = _Input(("glaisher", modulus, order), build, (tail,))
    capped = min(max_weight, CONJUGATE_MAX_WEIGHT)
    checks = [
        check("analytic", order, verify_analytic, inputs=(product, sum_side)),
        check("bijection", max_weight, glaisher_bijection_report, modulus, max_weight),
        check("conjugate", capped, glaisher_conjugate_report, modulus, capped),
        check("alpha", order, glaisher_alpha_report, modulus, _ALPHA_TERMS, order),
    ]
    if modulus == 2:  # the analytic sides, and the triangular sum as euler's profile sum
        branch = ProfileBranch("all", 0, "n", "(n*n + n) // 2", ())
        triangular = _profile_sum_input(ProfileFamily("triangular", (branch,)), order)
        forms = (product, sum_side, triangular)
        checks.append(check("forms", order, euler_forms_report, inputs=forms))
    return checks


def _group_series_input(members: tuple[CatalogEntry, ...], order: int) -> _Input:
    """The product side the members share, or without one their sum side."""
    if members[0].product is None:
        return _profile_sum_input(members[0].profile, order)
    return _product_input(members[0].product, order)


def plan_checks(
    names: list[str] | None, order: int, max_weight: int, catalog: Catalog
) -> tuple[Check, ...]:
    """Every check the requested names select, sorted as the suite reports
    them; nothing runs.  Each check is bound to the catalog entries it
    checks, so nothing is looked up by name after planning, and declares the
    shared inputs it reads.

    The catalog's entries are grouped by identity label, in catalog order.
    None or "all" selects every catalog identity, ``glaisher-<M>`` for
    M = 2..7, and every equinumerosity group.  Otherwise a name is an identity
    label or every member's name and aliases, ``glaisher-<M>`` for any M >= 2
    (a smaller M raises ValueError), or a group name; an identity also brings
    the groups made only of its members.  Unknown names become ``lookup``
    error rows.
    """
    identities: dict[str, list[CatalogEntry]] = {}
    for entry in catalog.entries():
        identities.setdefault(entry.identity or entry.name, []).append(entry)
    groups = _term_family_groups(catalog)
    unknown: list[str] = []
    if names is None or "all" in names:
        labels, moduli, selected_groups = list(identities), list(_GLAISHER_MODULI), groups
    else:
        # Catalog rejects a name, alias or label that would key two identities
        by_key = {
            key: label
            for label, members in identities.items()
            for entry in members
            for key in (label, entry.name, *entry.aliases)
        }
        labels, moduli, selected_groups = [], [], []
        for raw in names:
            if (label := by_key.get(raw)) is not None:
                labels.append(label)
                selected_groups += [g for g in groups if set(g[1]) <= set(identities[label])]
            elif match := _GLAISHER_NAME.fullmatch(raw):
                moduli.append(int(match[1]))
            elif picked := [g for g in groups if g[0] == raw]:
                selected_groups += picked
            else:
                unknown.append(raw)

    tail = tuple(sorted({m for m in moduli if m > 2}))
    checks = [c for label in dict.fromkeys(labels)
              for c in _identity_checks(label, identities[label], order, max_weight)]
    checks += [c for m in dict.fromkeys(moduli)
               for c in _glaisher_checks(m, order, max_weight, tail)]
    checks += [
        _check(name, "equinumerosity", max_weight, verify_equinumerosity, members,
               inputs=(_group_series_input(members, max_weight + 1),
                       *(_counts_input(e.profile, max_weight) for e in members)))
        for name, members in dict.fromkeys(selected_groups)
    ]
    checks += [
        _check(raw, "lookup", 0, Finding, "unknown identity", error=True)
        for raw in unknown
    ]
    return tuple(sorted(checks, key=lambda c: (c.identity, c.mode, c.subject)))


def _outcome(check: Check, values: list) -> tuple:
    """Time one check on its input values: the fields its report takes from
    the finding, (outcome, exponent, lhs, rhs, note, elapsed)."""
    started = time.perf_counter()
    finding = check.call(*values)
    elapsed = time.perf_counter() - started
    if finding is None:
        return "pass", None, None, None, "", elapsed
    outcome = "error" if finding.error else "mismatch"
    return outcome, finding.exponent, finding.lhs, finding.rhs, finding.note, elapsed


def run_suite(
    names: list[str] | None = None,
    order: int = 60,
    max_weight: int = 25,
    catalog: Catalog | None = None,
) -> SuiteSummary:
    """Run every check ``plan_checks`` selects from ``catalog``, the shipped
    one by default (None or "all" selects everything; an empty list selects
    nothing), one report per check in plan order.  Unknown names become
    error rows rather than aborting the rest of the suite.  Each shared input
    is built once, timed apart from the rows, just before its first reader
    (a row, or a product side built from it) and dropped after its last.

    The rows that read no shared input go into the queue of a ``Helper``,
    in plan order.  This process runs the rows that read inputs, in plan
    order, and then takes from the queue too.  An exception leaves the run
    as in one process, from the first row in plan order that raises: a row
    that raised in the helper runs again here, and so does every row of a
    helper that exited with a code other than 0.  The helper is reaped
    before the run returns or raises, after ``SIGKILL`` if this process
    leaves early, as on ``KeyboardInterrupt``."""
    if catalog is None:
        catalog = default_catalog()
    plan = plan_checks(names, order, max_weight, catalog)
    readers = Counter(shared for check in plan for shared in check.inputs)
    pending = list(readers)
    while pending:  # each input reads its needs once, however many read it
        for need in pending.pop().needs:
            if not readers[need]:
                pending.append(need)
            readers[need] += 1
    live: dict[_Input, object] = {}
    build_times: list[float] = []

    def fetch(shared: _Input) -> object:
        if shared not in live:
            values = [fetch(need) for need in shared.needs]
            started = time.perf_counter()
            live[shared] = shared.build(*values)
            build_times.append(time.perf_counter() - started)
            release(shared.needs)
        return live[shared]

    def release(inputs: tuple[_Input, ...]) -> None:
        for shared in inputs:
            readers[shared] -= 1
            if not readers[shared]:
                del live[shared]

    reports: list[VerificationReport | None] = [None] * len(plan)

    def fill(i: int, outcome: str, *found) -> None:
        check = plan[i]
        reports[i] = VerificationReport(
            check.identity, check.mode, check.bound, outcome, check.subject, *found
        )

    def run(i: int) -> None:
        check = plan[i]
        fill(i, *_outcome(check, [fetch(shared) for shared in check.inputs]))
        release(check.inputs)

    # imported here, so that the commands that verify nothing never compile it
    from ._helper import Helper

    free = [i for i, check in enumerate(plan) if not check.inputs]
    raised = None  # (row, exception): no row runs here after it
    with Helper(free, lambda i: (i, *_outcome(plan[i], []))) as helper:
        for i in chain((i for i, check in enumerate(plan) if check.inputs), helper):
            if raised is None:
                try:
                    run(i)
                except Exception as exc:
                    raised = (i, exc)
        for found in helper.results():
            fill(*found)
    # rows before any that raised here and reported by no process: a row that
    # raised in the helper, or one left after a row raised here
    for i in range(raised[0] if raised else len(plan)):
        if reports[i] is None:
            run(i)
    if raised:
        raise raised[1]
    return SuiteSummary(tuple(reports), tuple(build_times))
