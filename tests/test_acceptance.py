"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; plain ``pytest`` asserts the same conditions.
Stated runtime bounds are asserted alongside the mathematical checks;
where a bound applies to cold construction, ``clear_caches()`` runs
first.
"""

import time

from helpers import bruhat_leq_by_reflection_closure, left_descents, stored_columns
from weylpat.kl import _KLTable, kl_polynomial
from weylpat.harness.verify import (
    default_window,
    matrix_pairs,
    verify_flattening,
    verify_kl_transfer,
    verify_length_sufficiency,
    verify_type_a_smoothness,
    verify_upper_ideal,
    verify_x_determination,
)
from weylpat.roots import build_root_system, clear_caches
from weylpat.weyl import (
    WeylGroup,
    bruhat_leq,
    enumerate_elements,
    identity,
    parse_element,
)


def _report(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_criterion_01_root_system_construction():
    expected = {"A1": 2, "A2": 6, "A3": 12, "A4": 20, "B2": 8, "B3": 18,
                "B4": 32, "C3": 18, "C4": 32, "D4": 24, "G2": 12, "F4": 48}
    clear_caches()
    start = time.perf_counter()
    systems = {t: build_root_system(t) for t in expected}
    elapsed = time.perf_counter() - start
    ok = True
    for t, rs in systems.items():
        ok &= len(rs.roots) == expected[t]
        n = len(rs.roots)
        for a in range(n):
            row = rs.reflection_table[a]
            ok &= sorted(row) == list(range(n))
            ok &= all(row[row[b]] == b for b in range(n))
        cm = rs.cartan_matrix
        ok &= all(cm[i][i] == 2 for i in range(rs.rank))
        ok &= all(
            cm[i][j] <= 0 and (cm[i][j] == 0) == (cm[j][i] == 0)
            and cm[i][j] * cm[j][i] in (0, 1, 2, 3)
            for i in range(rs.rank) for j in range(rs.rank) if i != j
        )
    ok &= elapsed < 1.0
    _report(1, ok, f"12 systems constructed and checked in {elapsed:.3f}s (< 1s)")


def test_criterion_02_group_enumeration():
    expected = {"A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48,
                "B4": 384, "D4": 192, "G2": 12, "F4": 1152}
    # fresh systems own no groups; they are built before the timer starts
    clear_caches()
    systems = {t: build_root_system(t) for t in expected}
    start = time.perf_counter()
    ok = True
    for t, order in expected.items():
        elements = enumerate_elements(systems[t])
        ok &= len(elements) == order
        ok &= all(w.length == w.inversions.bit_count() for w in elements)
        ok &= len({w.inversions for w in elements}) == order
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(2, ok, f"9 groups including F4 enumerated and swept in {elapsed:.2f}s (< 30s)")


def test_criterion_03_bruhat_differential():
    start = time.perf_counter()
    ok = True
    pairs = 0
    for t in ("A3", "B3", "G2"):
        rs = build_root_system(t)
        wg = WeylGroup.for_system(rs)
        for a, u in enumerate(wg.elements):
            for b, v in enumerate(wg.elements):
                lifting = bruhat_leq(u, v)
                ok &= lifting == wg.leq_idx(a, b)
                ok &= lifting == bruhat_leq_by_reflection_closure(u, v)
                pairs += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(3, ok, f"{pairs} pairs agree across three implementations "
                   f"in {elapsed:.2f}s (< 10s)")


def test_criterion_04_flattening_well_defined():
    window = default_window()
    cases = 0
    failures = 0
    for s, t in matrix_pairs(window):
        r = verify_flattening(s, t)
        cases += r.cases
        failures += len(r.failures)
    _report(4, failures == 0, f"{cases} flattenings over the default matrix, "
                              f"{failures} biconvexity failures")


def test_criterion_05_x_determination():
    window = default_window()
    cases = 0
    failures = 0
    for s, t in matrix_pairs(window):
        r = verify_x_determination(s, t)
        cases += r.cases
        failures += len(r.failures)
    _report(5, failures == 0,
            f"{cases} coset cases over the default matrix, {failures} counterexamples")


def test_criterion_06_length_sufficiency():
    window = default_window()
    start = time.perf_counter()
    cases = 0
    failures = 0
    for s, t in matrix_pairs(window):
        r = verify_length_sufficiency(s, t)
        cases += r.cases
        failures += len(r.failures)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 600.0
    _report(6, ok, f"{cases} cases over the default matrix, {failures} "
                   f"counterexamples in {elapsed:.1f}s (< 600s)")


def test_criterion_07_kl_transfer():
    window = default_window()
    start = time.perf_counter()
    cases = 0
    failures = 0
    for s, t in window["kl_transfer_pairs"]:
        r = verify_kl_transfer(s, t)
        cases += r.cases
        failures += len(r.failures)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 1800.0
    _report(7, ok, f"{cases} interval embeddings across 8 pairs, {failures} "
                   f"mismatches in {elapsed:.1f}s (< 1800s)")


def test_criterion_08_upper_ideal():
    window = default_window()
    types = sorted({*window["sources"], *window["targets"]},
                   key=lambda t: (build_root_system(t).rank, t))
    pairs = matrix_pairs(window)
    ok = True
    details = []
    for prop in window["upper_ideal_properties"]:
        r, = verify_upper_ideal([prop], types, pairs)
        ok &= r.passed
        details.append(f"{prop}: {r.cases} cases, {len(r.failures)} failures")
    _report(8, ok, "; ".join(details))


def test_criterion_09_type_a_smoothness():
    r4 = verify_type_a_smoothness(4)
    ok = (r4.passed and r4.parameters["smooth_kl"] == 22
          and r4.parameters["smooth_pattern"] == 22)
    r5 = verify_type_a_smoothness(5)
    ok &= r5.passed and r5.parameters["smooth_kl"] == r5.parameters["smooth_pattern"]
    start = time.perf_counter()
    r6 = verify_type_a_smoothness(6)
    elapsed = time.perf_counter() - start
    ok &= r6.passed and r6.parameters["smooth_kl"] == r6.parameters["smooth_pattern"]
    ok &= elapsed < 600.0
    _report(9, ok, f"n=4: 22 of 24 smooth both ways; n=5: "
                   f"{r5.parameters['smooth_kl']} both ways; n=6: "
                   f"{r6.parameters['smooth_kl']} both ways in {elapsed:.1f}s (< 600s)")


def test_criterion_10_kl_spot_values():
    a3 = build_root_system("A3")
    ok = kl_polynomial(identity(a3), parse_element(a3, "3412")).coefficients == (1, 1)
    # length gap at most 2 forces the constant polynomial 1
    for t in ("A3", "B2", "G2"):
        rs = build_root_system(t)
        wg = WeylGroup.for_system(rs)
        for b in range(wg.size):
            for a in range(wg.size):
                if wg.leq_idx(a, b) and wg.lengths[b] - wg.lengths[a] <= 2:
                    ok &= kl_polynomial(wg.elements[a], wg.elements[b]) == 1
    # recursion result does not depend on the descent chosen
    for t in ("A3", "B2", "G2"):
        rs = build_root_system(t)
        wg = WeylGroup.for_system(rs)

        def max_descent(v_idx):
            return left_descents(wg.elements[v_idx])[-1] - 1

        ref = _KLTable(wg)
        alt = _KLTable(wg, descent=max_descent)
        for b in range(wg.size):
            ref.ensure_column(b)
            alt.ensure_column(b)
        # ids follow the order values are first seen: compare the values
        ok &= ({r: keys for r, (keys, _) in stored_columns(ref).items()}
               == {r: keys for r, (keys, _) in stored_columns(alt).items()})
        ok &= all(ref._entries(v) == alt._entries(v) for v in range(wg.size))
    _report(10, ok, "P(id,3412) = 1 + q; gap <= 2 forces 1; descent choice "
                    "independent in A3, B2, G2")
