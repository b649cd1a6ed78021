"""Acceptance criteria, one test per criterion, all exact (tolerance zero).

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import time

from qident.bijections import (
    glaisher_forward,
    glaisher_forward_steps,
    glaisher_inverse,
    glaisher_inverse_steps,
    rr2_forward,
    rr2_inverse,
    rr2_record,
    weight_relation_check,
)
from qident.cli import main as cli_main
from qident.partitions import (
    ChainConstraint,
    GapBound,
    Partition,
    chain_violation,
    conjugate,
    enumerate_chain,
)
from qident.profiles import default_catalog, profile_chain_counts, validate_profile
from qident.series import (
    ResidueClass,
    alpha_closed_form,
    alpha_recurrence,
    euler_distinct_sum,
    product_side,
    series_one,
    sum_side_glaisher,
    sum_side_standard,
)

from oracles import (
    enumerate_partitions_with_parts,
    no_part_divisible,
    partitions_repetition_bounded,
)

RR2 = ResidueClass(5, frozenset({2, 3}))


def report(number: int, label: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {number:2d}: {label} ({elapsed:.2f}s)")


def test_criterion_1_rr2_analytic_order_300():
    started = time.perf_counter()
    lhs = product_side(RR2, 300)
    rhs = sum_side_standard(lambda n: n * n + n, lambda n: n, 300)
    ok = lhs.first_difference(rhs, 300) is None
    report(1, "rr2 product equals sum side below q^300", ok, time.perf_counter() - started)
    assert ok


def test_criterion_2_worked_example(capsys):
    started = time.perf_counter()
    # the third term of the family (exponent 15, six slots) contributes 3 at q^18
    term = sum_side_standard(lambda n: 15 if n == 0 else 19, lambda n: 6, 19)
    ok = term.coefficient(18) == 3

    expected_listings = {
        "example-alternating": "[7,3,3,2,2,1]\n[6,4,3,2,2,1]\n[5,4,4,2,2,1]\n",
        "example-exact-parts": "[13,1,1,1,1,1]\n[12,2,1,1,1,1]\n[11,2,2,1,1,1]\n",
        "example-atmost-parts": "[18]\n[17,1]\n[16,1,1]\n",
    }
    for profile, expected in expected_listings.items():
        code = cli_main(["enumerate", profile, "--n", "3", "--weight", "18"])
        out = capsys.readouterr().out
        ok = ok and code == 0 and out == expected
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(2, "q^18 worked example and byte-exact CLI listings", ok, elapsed)
    assert ok


def test_criterion_3_five_way_equinumerosity_to_40():
    started = time.perf_counter()
    max_weight = 40
    product_counts = [
        len(enumerate_partitions_with_parts(RR2, w)) for w in range(max_weight + 1)
    ]
    sequences = {"product-enumeration": product_counts}
    for name in ("P2", "P3", "P4", "P5"):
        sequences[name] = profile_chain_counts(
            default_catalog().lookup(name).profile, max_weight
        )
    sequences["product-series"] = product_side(RR2, max_weight + 1).to_list()
    sequences["sum-series"] = sum_side_standard(
        lambda n: n * n + n, lambda n: n, max_weight + 1
    ).to_list()
    ok = all(seq == product_counts for seq in sequences.values())
    report(3, "five-way count agreement to weight 40", ok, time.perf_counter() - started)
    assert ok


def test_criterion_4_appendix_suite():
    started = time.perf_counter()
    letters = "abcdefghijklmn"
    ok = True
    for letter in letters:
        entry = default_catalog().lookup(f"appendix-{letter}")
        validation = validate_profile(entry.profile, 12)
        ok = ok and validation.ok
        counts = profile_chain_counts(entry.profile, 25)
        coefficients = product_side(entry.product, 26).to_list()
        ok = ok and counts == coefficients
        if not ok:
            break
    report(
        4,
        "appendix families: offset sums and counts vs products to weight 25",
        ok,
        time.perf_counter() - started,
    )
    assert ok


def test_criterion_5_glaisher_analytic_order_200():
    started = time.perf_counter()
    ok = True
    for modulus in range(2, 8):
        lhs = product_side(ResidueClass.nonzero(modulus), 200)
        rhs = sum_side_glaisher(modulus, 200)
        ok = ok and lhs.first_difference(rhs, 200) is None
    odd_product = product_side(ResidueClass(2, frozenset({1})), 200)
    triangular = sum_side_standard(lambda n: (n * n + n) // 2, lambda n: n, 200)
    distinct = euler_distinct_sum(200)
    ok = ok and odd_product.first_difference(triangular, 200) is None
    ok = ok and odd_product.first_difference(distinct, 200) is None
    report(
        5,
        "divide-by-M identities for M=2..7 below q^200, plus the three M=2 forms",
        ok,
        time.perf_counter() - started,
    )
    assert ok


def test_criterion_6_glaisher_bijection_certified():
    started = time.perf_counter()
    ok = True
    for modulus in (2, 3, 4, 5):
        for weight in range(26):
            domain = partitions_repetition_bounded(weight, modulus)
            target = {
                p.parts
                for p in enumerate_partitions_with_parts(
                    ResidueClass.nonzero(modulus), weight
                )
            }
            image = set()
            for p in domain:
                mapped = glaisher_forward(p.parts, modulus)
                ok = ok and no_part_divisible(Partition(mapped), modulus)
                ok = ok and glaisher_inverse(mapped, modulus) == p.parts
                ok = ok and mapped not in image
                image.add(mapped)
            ok = ok and image == target
            if not ok:
                break
        if not ok:
            break
    # the printed intermediate steps of the modulus-2 worked example
    forward_steps = glaisher_forward_steps(Partition.of([7, 6, 4, 2, 1]), 2)
    ok = ok and [s.parts for s in forward_steps] == [
        (7, 6, 4, 2, 1),
        (7, 3, 3, 2, 2, 1, 1, 1),
        (7, 3, 3, 1, 1, 1, 1, 1, 1, 1),
    ]
    inverse_steps = glaisher_inverse_steps(
        Partition.of([7, 3, 3, 1, 1, 1, 1, 1, 1, 1]), 2
    )
    ok = ok and [s.parts for s in inverse_steps] == [
        (7, 3, 3, 1, 1, 1, 1, 1, 1, 1),
        (7, 6, 2, 2, 2, 1),
        (7, 6, 4, 2, 1),
    ]
    report(
        6,
        "divide-by-M bijection certified for M=2..5 to weight 25",
        ok,
        time.perf_counter() - started,
    )
    assert ok


def test_criterion_7_alpha_recurrence_vs_closed_form():
    started = time.perf_counter()
    ok = True
    for modulus in range(2, 7):
        terms = [series_one(100)]
        for n in range(1, 26):
            recurred = alpha_recurrence(modulus, n, terms, 100)
            closed = alpha_closed_form(modulus, n, 100)
            ok = ok and recurred == closed
            terms.append(recurred)
    report(
        7,
        "term recurrence equals closed form for M=2..6, n<=25, order 100",
        ok,
        time.perf_counter() - started,
    )
    assert ok


def test_criterion_8_rr2_bijection_certified_to_30():
    started = time.perf_counter()
    ok = True
    for weight in range(31):
        for p in enumerate_partitions_with_parts(RR2, weight):
            n = len(p)
            image = rr2_forward(p)
            ok = ok and len(image) == n
            if n:
                chain = ChainConstraint((GapBound(2),) * (n - 1), GapBound(2))
                ok = ok and chain_violation(image, chain) is None
            ok = ok and rr2_inverse(image) == p
            ok = ok and weight_relation_check(rr2_record(p))
            for s, value in enumerate(image, start=1):
                delta = n * n if s == 1 else 0
                pi_first = n * n + 1 if s == 1 else 1
                pi_classical = 2 * (n + 1 - s)
                k = (value - 1 - delta - pi_classical + pi_first) // 2
                ok = ok and k == p.parts[s - 1] // 5
            if not ok:
                break
        if not ok:
            break
    report(
        8,
        "rr2 map certified to weight 30 (chain, inverse, parts, k=q, weights)",
        ok,
        time.perf_counter() - started,
    )
    assert ok


def test_criterion_9_conjugate_chain_characterization():
    started = time.perf_counter()
    ok = True
    for modulus in (2, 3, 4):
        for weight in range(1, 21):
            conjugates = {
                conjugate(p.parts)
                for p in partitions_repetition_bounded(weight, modulus)
            }
            chain_vectors = set()
            for slots in range(1, weight + 1):
                chain = ChainConstraint(
                    (GapBound(0, modulus - 1),) * (slots - 1), GapBound(1, modulus - 1)
                )
                chain_vectors.update(enumerate_chain(chain, weight))
            ok = ok and conjugates == chain_vectors
            if not ok:
                break
        if not ok:
            break
    report(
        9,
        "conjugates of bounded-repetition sets match bounded-gap chains",
        ok,
        time.perf_counter() - started,
    )
    assert ok


def test_criterion_10_pipeline_independence():
    started = time.perf_counter()
    import ast
    import inspect

    import qident.partitions as partitions_module
    import qident.series as series_module

    ok = True
    tree = ast.parse(inspect.getsource(partitions_module))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and "series" in node.module:
            ok = ok and {alias.name for alias in node.names} == {"ResidueClass"}
    tree = ast.parse(inspect.getsource(series_module))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ok = ok and (node.module is None or "partitions" not in node.module)
        if isinstance(node, ast.Import):
            ok = ok and all("partitions" not in alias.name for alias in node.names)
    report(
        10,
        "series and enumeration pipelines share no counting code",
        ok,
        time.perf_counter() - started,
    )
    assert ok
