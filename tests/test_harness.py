import json
from array import array
from collections import Counter

import pytest

from helpers import (
    brute_force_isomorphic,
    coset_maps_by_target,
    flattening_by_element,
    interval,
    interval_isomorphic,
    interval_pattern_instances,
    pattern_map_isomorphic_on_target_interval,
    put_column,
    swapped_identity_embedding,
    upper_ideal_by_reads,
)
from weylpat.errors import NotComparableError
from weylpat.harness import verify as verify_module
from weylpat.harness.cli import main
from weylpat.harness.report import VerificationReport
from weylpat.harness.verify import (
    _parse_property,
    default_window,
    load_window,
    matrix_pairs,
    run_suite,
    verify_flattening,
    verify_kl_transfer,
    verify_length_sufficiency,
    verify_type_a_smoothness,
    verify_upper_ideal,
    verify_x_determination,
)
from weylpat.kl import KLPolynomial, _KLTable, _table_for
from weylpat import patterns
from weylpat.patterns import (
    SubsystemEmbedding,
    _cover_check,
    _pattern_map_isomorphic,
    enumerate_embeddings,
    format_interval_spec,
)
from weylpat.roots import build_root_system, clear_caches
from weylpat.weyl import DEFAULT_ENUMERATION_CAP, WeylGroup, format_word, parse_element


def test_report_round_trip():
    report = VerificationReport(
        suite="kl-transfer",
        parameters={"source": "A1", "target": "A2"},
        cases=26,
        failures=["x", "y"],
        wall_time=0.5,
    )
    again = VerificationReport(**report.to_dict())
    assert again == report
    assert not report.passed
    text = report.render_text()
    assert "FAIL" in text and "cases checked: 26" in text
    ok = VerificationReport(suite="s", cases=1)
    assert ok.passed and "PASS" in ok.render_text()


def test_default_window():
    window = default_window()
    assert window["sources"] == ["A1", "A1xA1", "A2", "B2", "A3"]
    assert "A4" in window["targets"]
    pairs = matrix_pairs(window)
    assert ("A3", "A2") not in pairs
    assert ("A2", "A3") in pairs
    slow = matrix_pairs(window, slow=True)
    assert ("A3", "F4") in slow and ("A3", "F4") not in pairs
    assert load_window(None) == window


def test_load_window_override(tmp_path):
    path = tmp_path / "window.json"
    path.write_text(json.dumps({"sources": ["A1"], "targets": ["A2"]}))
    window = load_window(str(path))
    assert window["sources"] == ["A1"]
    assert window["kl_transfer_pairs"]  # defaults fill the rest


@pytest.mark.parametrize("suite,window,key", [
    ("flattening", {"targets": None}, "targets"),
    ("upper-ideal", {"sources": 5}, "sources"),
    ("type-a-smoothness", {"smoothness_sizes": [None]}, "smoothness_sizes"),
    ("type-a-smoothness", {"smoothness_sizes": "12"}, "smoothness_sizes"),
    ("flattening", {"sources": "A1"}, "sources"),
    ("upper-ideal", {"upper_ideal_properties": "kl-nontrivial"}, "upper_ideal_properties"),
    ("kl-transfer", {"kl_transfer_pairs": [["A1"]]}, "kl_transfer_pairs"),
    ("type-a-smoothness", {"smoothness_sizes": [True]}, "smoothness_sizes"),
    ("flattening", {"sources": []}, "sources"),
], ids=["targets-null", "sources-number", "sizes-null", "sizes-string", "sources-string",
        "properties-string", "pairs-short", "sizes-bool", "sources-empty"])
def test_a_malformed_window_key_is_a_usage_error(tmp_path, capsys, suite, window, key):
    # each key of a window file is checked before any sweep reads it
    path = tmp_path / "window.json"
    path.write_text(json.dumps(window))
    assert main(["verify", suite, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and str(path) in err


def test_an_empty_slow_targets_list_loads(tmp_path):
    # the slow tier is an addition, so a window may have none
    path = tmp_path / "window.json"
    path.write_text(json.dumps({"slow_targets": []}))
    window = load_window(str(path))
    assert window["slow_targets"] == []
    assert matrix_pairs(window, slow=True) == matrix_pairs(window)


def test_a_window_file_may_set_every_key(tmp_path):
    path = tmp_path / "window.json"
    path.write_text(json.dumps(default_window()))
    assert load_window(str(path)) == default_window()


def test_property_parser():
    nontrivial = _parse_property("kl-nontrivial")
    assert nontrivial(KLPolynomial([1, 1]))
    assert not nontrivial(KLPolynomial([1]))
    coeff = _parse_property("kl-coeff(1,0)")
    assert coeff(KLPolynomial([1, 1]))
    assert not coeff(KLPolynomial([1]))
    assert not coeff(KLPolynomial([1, 0, 3]))
    deep = _parse_property("kl-coeff(2,2)")
    assert deep(KLPolynomial([1, 0, 3]))
    with pytest.raises(ValueError):
        _parse_property("gorenstein")


@pytest.mark.parametrize("plant,message", [
    ("wrong", "bottom is not forced"),
    ("extra", "scanned bottom outside the coset walk"),
])
def test_x_determination_catches_a_planted_scan_error(monkeypatch, plant, message):
    # the coset walk is an oracle of the coset sweep: one wrong entry planted in
    # one embedding's coset maps fails each pair that reads it, and one map past
    # the walk's cosets fails each of its pairs
    a2 = build_root_system("A2")
    emb = enumerate_embeddings(a2, build_root_system("A3"))[0]
    pairs = patterns._coset_tables(WeylGroup.for_system(a2))[0]
    cases = verify_x_determination("A2", "A3").cases
    real = SubsystemEmbedding.coset_maps

    def planted(self, cap=DEFAULT_ENUMERATION_CAP):
        maps = real(self, cap)
        if self is emb:
            if plant == "wrong":
                maps[1] = maps[1][:1] + maps[1][:1] + maps[1][2:]  # phi[1] = phi[0]
            else:
                maps.append(maps[0])
        return maps

    monkeypatch.setattr(SubsystemEmbedding, "coset_maps", planted)
    r = verify_x_determination("A2", "A3")
    assert r.cases == cases
    assert all(f.endswith(message) for f in r.failures)
    if plant == "wrong":
        assert len(r.failures) == sum(1 for u, v in pairs if 1 in (u, v))
    else:
        assert len(r.failures) == len(pairs)


def test_x_determination_walks_a_coset_that_fails_its_check_pair_by_pair(monkeypatch):
    # one g of one embedding is given the image of another element, so every
    # coset of that embedding fails the walk's own check (fl(i(g) m) = g) and
    # fails each of its pairs; neither that run nor a clean one makes a lifting
    # test in the target
    from weylpat.harness import verify

    a2, a3 = build_root_system("A2"), build_root_system("A3")
    src, tgt = WeylGroup.for_system(a2), WeylGroup.for_system(a3)
    emb = enumerate_embeddings(a2, a3)[0]
    pairs = patterns._coset_tables(src)[0]
    g, h = src.elements[1], src.elements[2]
    real_embed = verify.embed_element
    monkeypatch.setattr(verify, "embed_element",
                        lambda e, x: real_embed(e, h if e is emb and x == g else x))
    lifted = Counter()
    real_leq = WeylGroup.leq_idx

    def counted(wg, a, b):
        lifted[wg.rs.cartan_type] += 1
        return real_leq(wg, a, b)

    monkeypatch.setattr(WeylGroup, "leq_idx", counted)
    r = verify_x_determination("A2", "A3")
    assert all(f.endswith("bottom is not forced") for f in r.failures)
    assert len(r.failures) == tgt.size // src.size * len(pairs)
    assert not lifted["A3"]
    monkeypatch.setattr(verify, "embed_element", real_embed)
    assert verify_x_determination("A2", "A3").passed and not lifted["A3"]


def test_length_sufficiency_reports_a_failure_once_per_scanned_yield(monkeypatch):
    # the suite takes each per-element check once per coset map and bottom, yet
    # a quadruple that k embeddings yield must still be counted, and fail, k times
    from weylpat.harness import verify

    a2, a3 = build_root_system("A2"), build_root_system("A3")
    src, tgt = WeylGroup.for_system(a2).elements, WeylGroup.for_system(a3).elements
    yields = Counter((src[u], src[v], tgt[x], tgt[w]) for emb in enumerate_embeddings(a2, a3)
                     for u, v, x, w in interval_pattern_instances(emb))
    # v is the longest element, so no other interval [u, v'] holds v, and a
    # check denied at z = v fails this quadruple's proof alone
    (u, v, x, w), k = next(
        (q, k) for q, k in yields.items()
        if k > 1 and q[0] != q[1] and q[1] == src[-1]
        and q[1].length - q[0].length == q[3].length - q[2].length)
    cases = verify_length_sufficiency("A2", "A3").cases
    real_cover_check = verify._cover_check

    # the per-element check denies z = v of this one quadruple's proof
    def planted_cover_check(sg, tg):
        real_check = real_cover_check(sg, tg)

        def check(phi, a, up, z):
            if (sg.elements[a], sg.elements[z], tg.elements[phi[a]], tg.elements[phi[z]]) == (u, v, x, w):
                return False
            return real_check(phi, a, up, z)
        return check

    monkeypatch.setattr(verify, "_cover_check", planted_cover_check)
    r = verify_length_sufficiency("A2", "A3")
    assert r.cases == cases == sum(yields.values())
    label = f"[{format_interval_spec(u, v)}] -> [{format_interval_spec(x, w)}]"
    assert r.failures == [f"{label}: equal gaps without isomorphism"] * k


def _equal_gap_instances(source, target):
    """(coset map of w, u, v, x, w) for every scanned yield with equal length gaps."""
    s, t = build_root_system(source), build_root_system(target)
    src, tgt = WeylGroup.for_system(s), WeylGroup.for_system(t)
    for emb in enumerate_embeddings(s, t):
        maps = coset_maps_by_target(emb)
        for u, v, x, w in interval_pattern_instances(emb):
            if src.lengths[v] - src.lengths[u] == tgt.lengths[w] - tgt.lengths[x]:
                yield maps[w], u, v, x, w


@pytest.mark.parametrize("source,target", matrix_pairs(default_window()))
def test_pattern_map_proof_agrees_with_both_isomorphism_searches(source, target):
    # the coset map of every embedding that yields an equal-gap quadruple
    # is proved an isomorphism, and the colour-refined search finds one
    # too, as does the search over bijections on intervals of at most 8
    src = WeylGroup.for_system(build_root_system(source))
    tgt = WeylGroup.for_system(build_root_system(target))
    searched: dict[tuple[int, int, int, int], bool] = {}
    for phi, u, v, x, w in _equal_gap_instances(source, target):
        q = (u, v, x, w)
        if q not in searched:
            i1 = interval(src.elements[u], src.elements[v])
            i2 = interval(tgt.elements[x], tgt.elements[w])
            searched[q] = interval_isomorphic(i1, i2)
            if i1.size <= 8:
                assert searched[q] == brute_force_isomorphic(i1, i2)
        assert _pattern_map_isomorphic(src, tgt, phi, *q) == searched[q]
    assert all(searched.values())
    # some window pairs, such as A1xA1 -> A2, have no embedding
    assert bool(searched) == bool(enumerate_embeddings(src.rs, tgt.rs))


@pytest.mark.parametrize("source,target", matrix_pairs(default_window(), slow=True))
def test_pattern_map_proof_agrees_with_the_target_interval_proof(source, target):
    # every equal-gap yield of the default and slow tiers, each with the coset
    # map of the embedding that yields it, as the suite decides it: the proof
    # by cover chains from the top agrees with the oracle that builds [x, w]
    # and compares it whole
    src = WeylGroup.for_system(build_root_system(source))
    tgt = WeylGroup.for_system(build_root_system(target))
    yields = 0
    for phi, u, v, x, w in _equal_gap_instances(source, target):
        yields += 1
        assert (_pattern_map_isomorphic(src, tgt, phi, u, v, x, w)
                == pattern_map_isomorphic_on_target_interval(src, tgt, phi, u, v, x, w))
    assert bool(yields) == bool(enumerate_embeddings(src.rs, tgt.rs))


def test_pattern_map_proof_rejects_a_bijection_that_breaks_covers():
    a2 = WeylGroup.for_system(build_root_system("A2"))
    w0 = a2.size - 1
    phi = list(coset_maps_by_target(enumerate_embeddings(a2.rs, a2.rs)[0])[w0])
    assert _pattern_map_isomorphic(a2, a2, phi, 0, w0, 0, w0)
    # still a bijection of [e, w0] onto itself, but s1 trades places with a length-2 element
    phi[1], phi[3] = phi[3], phi[1]
    assert a2.lengths[1] != a2.lengths[3]
    assert not _pattern_map_isomorphic(a2, a2, phi, 0, w0, 0, w0)


def test_length_sufficiency_catches_a_wrong_embed_table(monkeypatch):
    # with a coset map planted that sends all of W' onto phi[z], every check
    # of a z above u fails, so the proof fails whenever u < v, and each such
    # yield is reported
    from weylpat.harness import verify

    cases = verify_length_sufficiency("A2", "A3").cases
    real_cover_check = verify._cover_check

    def planted_cover_check(sg, tg):
        real_check = real_cover_check(sg, tg)
        return lambda phi, u, up, z: real_check([phi[z]] * len(phi), u, up, z)

    monkeypatch.setattr(verify, "_cover_check", planted_cover_check)
    r = verify_length_sufficiency("A2", "A3")
    assert r.cases == cases
    yields = [tuple(q) for _, *q in _equal_gap_instances("A2", "A3") if q[0] != q[1]]
    assert len(yields) > len(set(yields))
    src, tgt = (WeylGroup.for_system(build_root_system(t)) for t in ("A2", "A3"))
    assert r.failures == sorted(
        f"[{format_interval_spec(src.elements[u], src.elements[v])}] -> "
        f"[{format_interval_spec(tgt.elements[x], tgt.elements[w])}]: "
        "equal gaps without isomorphism" for u, v, x, w in yields)


@pytest.mark.parametrize("source,target", matrix_pairs(default_window()))
def test_equal_gap_generator_matches_the_scan_filtered_by_gap(source, target):
    # the walk that kl-transfer, upper-ideal and the interval poset share
    # keeps exactly the scanned yields whose length gaps agree, each as often
    s, t = build_root_system(source), build_root_system(target)
    src, tgt = WeylGroup.for_system(s).lengths, WeylGroup.for_system(t).lengths
    embs = enumerate_embeddings(s, t)
    filtered = Counter((u, v, x, w) for emb in embs for u, v, x, w in interval_pattern_instances(emb)
                       if src[v] - src[u] == tgt[w] - tgt[x])
    swept = patterns._cosets(embs, DEFAULT_ENUMERATION_CAP)
    assert Counter((u, v, phi[u], phi[v]) for phi, pairs in swept for u, v in pairs) == filtered


def test_length_sufficiency_builds_each_embeddings_coset_maps_once(monkeypatch):
    calls = Counter()
    real = SubsystemEmbedding.coset_maps

    def counted(self, *args, **kwargs):
        calls[self] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SubsystemEmbedding, "coset_maps", counted)
    r = verify_length_sufficiency("A2", "A3")
    embs = enumerate_embeddings(build_root_system("A2"), build_root_system("A3"))
    assert r.passed and r.cases
    assert calls == Counter(embs)


def test_verify_suites_on_small_pairs():
    r = verify_flattening("A1xA1", "A3")
    assert r.passed and r.cases == 6 * 24
    r = verify_x_determination("A1", "A2")
    assert r.passed and r.cases > 0
    r = verify_length_sufficiency("A1", "B2")
    assert r.passed and r.cases > 0
    r = verify_kl_transfer("A1", "A2")
    assert r.passed and r.cases == 26
    r, = verify_upper_ideal(["kl-nontrivial"], ["A2"])
    assert r.passed  # vacuous: every KL polynomial in A2 is 1
    r = verify_type_a_smoothness(3)
    assert r.passed and r.parameters["smooth_kl"] == 6


@pytest.mark.parametrize("source,target", matrix_pairs(default_window(), slow=True))
def test_flattening_suite_matches_the_per_element_oracle(source, target):
    # one flat table per embedding counts and fails as the object-level
    # flatten does, one element at a time
    s, t = build_root_system(source), build_root_system(target)
    r = verify_flattening(source, target)
    assert (r.cases, r.failures) == flattening_by_element(enumerate_embeddings(s, t), t)


@pytest.mark.parametrize("cartan_type", ["A2", "B3"])
def test_flattening_suite_reports_an_invalid_embedding_once(monkeypatch, capsys, cartan_type):
    # an embedding whose pullbacks are not all biconvex is one failure, and
    # its elements still count as cases; B3's masks take two bytes, so its
    # flat table is a list, A2's a bytes
    rs = build_root_system(cartan_type)
    clean = verify_flattening(cartan_type, cartan_type)
    bad = swapped_identity_embedding(rs)
    embs = (*enumerate_embeddings(rs, rs), bad)
    monkeypatch.setattr(verify_module, "enumerate_embeddings", lambda source, target: embs)
    r = verify_flattening(cartan_type, cartan_type)
    assert r.failures == [
        f"{bad!r}: pulled-back inversion set is not biconvex; embedding is invalid"]
    assert r.cases == clean.cases + WeylGroup.for_system(rs).size
    assert (r.cases, r.failures) == flattening_by_element(embs, rs)
    assert main(["verify", "flattening", cartan_type, cartan_type]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_type_a_smoothness_builds_no_element_list():
    clear_caches()
    assert verify_type_a_smoothness(5).passed
    assert WeylGroup.for_system(build_root_system("A4"))._elements is None


def test_type_a_smoothness_reports_a_planted_disagreement(monkeypatch):
    # flip the KL answer of 3412 alone: the sweep names it, in its usual text
    real = verify_module.is_rationally_smooth
    planted = parse_element(build_root_system("A3"), "3412")

    def flipped(v, cap=DEFAULT_ENUMERATION_CAP):
        return real(v, cap) != (v == planted)

    monkeypatch.setattr(verify_module, "is_rationally_smooth", flipped)
    report = verify_type_a_smoothness(4)
    assert report.cases == 24
    assert report.failures == ["2 1 3 2 (3412): kl says smooth, patterns say singular"]
    assert report.parameters["smooth_kl"] == 23
    assert report.parameters["smooth_pattern"] == 22


def test_verify_type_a_smoothness_rejects_tiny_n():
    with pytest.raises(ValueError):
        verify_type_a_smoothness(1)


def test_run_suite_dispatch():
    window = default_window()
    reports = run_suite("kl-transfer", ["A1", "B2"], window)
    assert len(reports) == 1 and reports[0].passed
    reports = run_suite("type-a-smoothness", ["4"], window)
    assert reports[0].parameters["smooth_kl"] == 22
    with pytest.raises(ValueError):
        run_suite("kl-transfer", ["A1"], window)
    with pytest.raises(ValueError):
        run_suite("made-up", [], window)


def test_kl_transfer_into_a_d_type_target():
    # the slow window tier adds D4 and F4 targets; D4 is cheap enough to
    # keep in the regular suite and exercises a simply-laced fork diagram
    r = verify_kl_transfer("A1xA1", "D4")
    assert r.passed and r.cases > 0
    pairs = matrix_pairs(default_window(), slow=True)
    assert ("A1xA1", "D4") in pairs


def _plant_in_a_read_key(table, pairs, miss=False):
    """Set to 1 the value of a key of ``table`` that is not 1 and that a
    pair (u, v) of ``pairs`` reads, or with ``miss`` drop that key.  The key
    a pair reads is the one whose removal makes the read miss."""
    for u, v in pairs:
        r = table._orbit(v)[1]
        keys, ids = table.ensure_column(v)
        start = table.start[r]
        for i in range(len(keys)):
            put_column(table, r, keys[:i] + keys[i + 1:], ids[:i] + ids[i + 1:])
            dropped = not table._reader(v)(u)
            table.start[r], table.count[r] = start, len(keys)
            if dropped:
                break
        else:
            raise AssertionError("no key read")
        if ids[i]:
            if miss:
                put_column(table, r, keys[:i] + keys[i + 1:], ids[:i] + ids[i + 1:])
            else:
                planted = array("H", ids)
                planted[i] = 0
                put_column(table, r, keys, planted)
            return
    raise AssertionError("no key to plant in")


def _a3_a4_tables(monkeypatch):
    """Fresh KL tables of A3 and A4 put on their groups, and the equal-gap
    instances of A3 -> A4."""
    a3, a4 = build_root_system("A3"), build_root_system("A4")
    src, tgt = WeylGroup.for_system(a3), WeylGroup.for_system(a4)
    tables = _KLTable(src), _KLTable(tgt)
    monkeypatch.setattr(src, "_kl_table", tables[0])
    monkeypatch.setattr(tgt, "_kl_table", tables[1])
    instances = [(u, v, phi[u], phi[v]) for phi, pairs in patterns._cosets(
        enumerate_embeddings(a3, a4), DEFAULT_ENUMERATION_CAP) for u, v in pairs]
    return src, tgt, tables, instances


def test_kl_transfer_reports_a_planted_value_as_per_pair_reads_do(monkeypatch):
    # the suite compares packed values; a pair whose values differ is
    # decoded to the same failure text that reading both polynomials gives
    src, tgt, (src_kl, tgt_kl), instances = _a3_a4_tables(monkeypatch)
    _plant_in_a_read_key(tgt_kl, [(x, w) for _, _, x, w in instances])
    expected = []
    for u, v, x, w in instances:
        p1, p2 = src_kl.polynomial(u, v), tgt_kl.polynomial(x, w)
        if p1 != p2:
            expected.append(f"{verify_module._pair_label(src, tgt, u, v, x, w)}: {p1} != {p2}")
    r = verify_kl_transfer("A3", "A4")
    assert expected and r.failures == sorted(expected)
    assert r.cases == len(instances)


@pytest.mark.parametrize("sides", [(False, True), (True, False), (True, True)])
def test_kl_transfer_raises_on_a_planted_miss(monkeypatch, sides):
    # a miss on either side, or on both, where the packed values agree at
    # 0; the sweep is given the one instance whose keys are dropped
    _, _, tables, instances = _a3_a4_tables(monkeypatch)
    u, v, x, w = next((u, v, x, w) for u, v, x, w in instances
                      if tables[0]._reader(v)(u) != 1 and tables[1]._reader(w)(x) != 1)
    for table, pair, planted in zip(tables, [(u, v), (x, w)], sides):
        if planted:
            _plant_in_a_read_key(table, [pair], miss=True)
    monkeypatch.setattr(verify_module, "_cosets",
                        lambda embeddings, cap: iter([({u: x, v: w}, [(u, v)])]))
    with pytest.raises(NotComparableError):
        verify_kl_transfer("A3", "A4")


def test_reports_are_deterministic_across_fresh_runs():
    first = verify_kl_transfer("A1", "G2")
    # the root systems own every memo; dropping them runs the sweep cold
    clear_caches()
    second = verify_kl_transfer("A1", "G2")
    assert (first.cases, first.failures) == (second.cases, second.failures)
    assert first.parameters == second.parameters


def test_run_suite_sweeps_window_when_no_args():
    window = default_window()
    window.update({"sources": ["A1"], "targets": ["A2", "B2"],
                   "kl_transfer_pairs": [["A1", "A2"]],
                   "upper_ideal_properties": ["kl-nontrivial"],
                   "smoothness_sizes": [3]})
    assert [r.parameters for r in run_suite("flattening", [], window)] == [
        {"source": "A1", "target": "A2"}, {"source": "A1", "target": "B2"}]
    assert len(run_suite("kl-transfer", [], window)) == 1
    assert len(run_suite("upper-ideal", [], window)) == 1
    reports = run_suite("type-a-smoothness", [], window)
    assert len(reports) == 1 and reports[0].parameters["n"] == 3
    assert all(r.passed for r in run_suite("length-sufficiency", [], window))
    assert all(r.passed for r in run_suite("x-determination", [], window))


def test_length_sufficiency_per_coset_checks_match_the_per_yield_proof(monkeypatch):
    # with a check planted that fails on a scattered set of (phi, u, z), the
    # suite, which takes each check once per coset map and bottom, fails
    # exactly the yields whose own proof fails
    from weylpat.harness import verify

    real_cover_check = patterns._cover_check

    def planted_cover_check(sg, tg):
        real_check = real_cover_check(sg, tg)
        return lambda phi, u, up, z: (phi[u] + 3 * phi[z] + z) % 7 != 0 and real_check(phi, u, up, z)

    monkeypatch.setattr(verify, "_cover_check", planted_cover_check)
    monkeypatch.setattr(patterns, "_cover_check", planted_cover_check)
    src, tgt = (WeylGroup.for_system(build_root_system(t)) for t in ("A2", "B3"))
    expected = sorted(
        f"{verify._pair_label(src, tgt, u, v, x, w)}: equal gaps without isomorphism"
        for phi, u, v, x, w in _equal_gap_instances("A2", "B3")
        if not _pattern_map_isomorphic(src, tgt, phi, u, v, x, w))
    r = verify_length_sufficiency("A2", "B3")
    assert expected and r.failures == sorted(expected)


def _upper_ideal_window(slow):
    """(properties, types, pairs) as run_suite sweeps the shipped window."""
    window = default_window()
    types = sorted({*window["sources"], *window["targets"]},
                   key=lambda t: (build_root_system(t).rank, t))
    return window["upper_ideal_properties"], types, matrix_pairs(window, slow)


def _without_wall_time(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "wall_time"} for r in reports]


@pytest.mark.parametrize("slow", [False, True])
def test_upper_ideal_sweep_gives_each_property_its_own_report(slow):
    # one sweep for all the window's properties reports as one call per property
    props, types, pairs = _upper_ideal_window(slow)
    assert len(props) == 2
    together = run_suite("upper-ideal", [], default_window(), slow=slow)
    assert len({r.wall_time for r in together}) == 1
    apart = [verify_upper_ideal([p], types, pairs)[0] for p in props]
    assert _without_wall_time(together) == _without_wall_time(apart)


def test_upper_ideal_scans_each_embedding_once_for_two_properties(monkeypatch):
    # move 1 sweeps the cosets of each window pair's embeddings in one call
    calls = Counter()
    real = verify_module._cosets

    def counted(embeddings, cap):
        calls[tuple(embeddings)] += 1
        return real(embeddings, cap)

    monkeypatch.setattr(verify_module, "_cosets", counted)
    props, _, pairs = _upper_ideal_window(False)
    reports = run_suite("upper-ideal", [], default_window())
    assert [r.parameters["property"] for r in reports] == props
    expected = Counter(enumerate_embeddings(build_root_system(s), build_root_system(t))
                       for s, t in pairs)
    assert calls == expected and sum(map(len, calls)) > len(pairs)


def test_upper_ideal_reports_a_planted_failure_under_its_own_property(monkeypatch):
    # kl-coeff(0,0) holds on every interval; planted false on one [u0, v0] of A3,
    # it fails move 2 once per u in (u0, v0] and move 1 once per yield onto
    # [u0, v0] from elsewhere, while the kl-nontrivial report stays as it was
    window = default_window()
    window["upper_ideal_properties"] = ["kl-nontrivial", "kl-coeff(0,0)"]
    clean = run_suite("upper-ideal", [], window)
    assert all(r.passed for r in clean)
    a3 = WeylGroup.for_system(build_root_system("A3"))
    into_a3 = [(s, t) for s, t in matrix_pairs(window) if t == "A3"]
    yields = [(s, u, v, phi[u], phi[v]) for s, t in into_a3 for phi, pairs in patterns._cosets(
        enumerate_embeddings(build_root_system(s), a3.rs), DEFAULT_ENUMERATION_CAP)
        for u, v in pairs]
    u0, v0 = next((x, w) for *_, x, w in yields if x != w)
    real = verify_module._kl_masks

    def planted(wg, props):
        down, holds = real(wg, props)
        if wg is a3:
            holds[1][v0] &= ~(1 << u0)
        return down, holds

    monkeypatch.setattr(verify_module, "_kl_masks", planted)
    nontrivial, coeff = run_suite("upper-ideal", [], window)
    assert _without_wall_time([nontrivial]) == _without_wall_time(clean[:1])
    # u0 no longer holds at v0, so move 2 checks nothing below it there
    assert coeff.cases == clean[1].cases - (len(a3.below(u0)) - 1)
    label = [format_word(a3.elements[k]) for k in (u0, v0)]
    moved = [f for f in coeff.failures if f.startswith("A3: ")]
    assert moved == sorted(
        f"A3: property holds on [{format_word(a3.elements[u])}..{label[1]}] "
        f"but not on [{label[0]}..{label[1]}]"
        for u in a3.interval_indices(u0, v0) if u != u0)
    lost = [f for f in coeff.failures if not f.startswith("A3: ")]
    # a yield onto [u0, v0] from [u0, v0] itself loses nothing: the property fails on both
    assert len(lost) == sum((x, w) == (u0, v0) and (s, u, v) != ("A3", u0, v0)
                            for s, u, v, x, w in yields) > 0
    assert all(f.endswith(f"-> [A3:{label[0]}..{label[1]}]: property lost along embedding")
               for f in lost)


@pytest.mark.parametrize("prop", ["kl-nontrivial", "kl-coeff(1,0)", "kl-coeff(0,0)"])
def test_upper_ideal_masks_match_one_kl_read_per_case(prop):
    # the sweep reads holder masks decoded once per column; the oracle reads
    # every polynomial on its own, one property at a time
    _, types, pairs = _upper_ideal_window(False)
    r, = verify_upper_ideal([prop], types, pairs)
    assert (r.cases, r.failures) == upper_ideal_by_reads(_parse_property(prop), types, pairs)
    assert r.cases


@pytest.mark.parametrize("source,target", [("A2", "A3"), ("B2", "B3"), ("A1xA1", "D4")])
def test_cover_check_matches_its_definition_on_any_map(source, target):
    # on coset maps and on maps shifted off them, the check holds exactly when
    # the in-interval covers of z go onto the covers of phi[z] above x = phi[u],
    # each cover tested by the lifting test; the shifted maps also exercise a
    # cover outside the image that lies above x, one longer than x or more
    src = WeylGroup.for_system(build_root_system(source))
    tgt = WeylGroup.for_system(build_root_system(target))
    check = _cover_check(src, tgt)
    # ups[u] is the mask of the source elements above u, by the lifting test
    ups = [sum(1 << c for c in range(src.size) if src.leq_idx(u, c)) for u in range(src.size)]
    outcomes = Counter()
    for emb in enumerate_embeddings(src.rs, tgt.rs):
        maps = coset_maps_by_target(emb)
        for w in range(0, tgt.size, 7):
            for phi in (maps[w], maps[w][1:] + maps[w][:1], [(y + 1) % tgt.size for y in maps[w]]):
                for u, up in enumerate(ups):
                    for z in src.below(src.size - 1):
                        x, y = phi[u], phi[z]
                        image = {phi[c] for c in src.lower_covers[z] if src.leq_idx(u, c)}
                        above = {c for c in tgt.lower_covers[y] if tgt.leq_idx(x, c)}
                        expected = image == above | (image & set(tgt.lower_covers[y]))
                        assert check(phi, u, up, z) == expected
                        # the least length gap from x to a cover above x outside the image
                        stray = min((tgt.lengths[c] - tgt.lengths[x] for c in above - image),
                                    default=None)
                        outcomes[expected, stray] += 1
    assert outcomes[True, None] and outcomes[False, None]
    assert outcomes[False, 1] and any(not ok and gap and gap > 1 for ok, gap in outcomes)


def test_length_sufficiency_takes_each_check_once_per_coset_map_and_bottom(monkeypatch):
    # a check depends on (phi, u, z) alone, so the suite takes none twice, however
    # many tops of one coset share it, and never takes the vacuous z = u
    from weylpat.harness import verify

    taken = Counter()
    real_cover_check = verify._cover_check

    def counted_cover_check(sg, tg):
        real_check = real_cover_check(sg, tg)

        def check(phi, u, up, z):
            taken[tuple(phi), u, z] += 1
            return real_check(phi, u, up, z)
        return check

    monkeypatch.setattr(verify, "_cover_check", counted_cover_check)
    assert verify_length_sufficiency("A2", "B3").passed
    assert taken and max(taken.values()) == 1
    assert all(u != z for _, u, z in taken)


@pytest.mark.parametrize("side", ["source", "target"])
def test_upper_ideal_rejects_a_scanned_pair_outside_its_down_set(monkeypatch, side):
    # move 1 reads holder masks where it read polynomials; a swept pair whose
    # bottom is not below its top still raises, as the read did.  The source
    # side is checked on every pair of a signature, the target side on the
    # pairs whose source property holds, as kl-coeff(0,0) does on every interval
    top = WeylGroup.for_system(build_root_system("A2")).size - 1
    if side == "source":
        prop, phi, pairs = "kl-nontrivial", tuple(range(top + 1)), [(top, 0)]
    else:
        # (u, v) = (e, s1) goes to (x, w) = (w0, e)
        prop, phi, pairs = "kl-coeff(0,0)", (top, 0) + tuple(range(1, top)), [(0, 1)]
    monkeypatch.setattr(verify_module, "_cosets", lambda embs, cap: iter([(phi, pairs)]))
    with pytest.raises(NotComparableError, match="not comparable: 1 2 1 !<= e"):
        verify_upper_ideal([prop], ["A2"], [("A2", "A2")])
