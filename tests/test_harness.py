import json
from collections import Counter

import pytest

from helpers import (
    brute_force_isomorphic,
    flattening_by_element,
    interval_isomorphic,
    pattern_map_isomorphic_on_target_interval,
    swapped_identity_embedding,
)
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
from weylpat.kl import KLPolynomial
from weylpat import patterns
from weylpat.patterns import (
    SubsystemEmbedding,
    _interval_covers,
    _pattern_map_isomorphic,
    enumerate_embeddings,
    format_interval_spec,
    interval_pattern_instances,
)
from weylpat.roots import build_root_system, clear_caches
from weylpat.weyl import DEFAULT_ENUMERATION_CAP, WeylGroup, interval, parse_element


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
    # the coset walk is an oracle of the scan: a wrong bottom, or one the
    # walk cannot reach, planted in one embedding's scan must show up
    from weylpat.harness import verify

    a2 = build_root_system("A2")
    w0 = WeylGroup.for_system(a2).size - 1  # the longest element is indexed last
    emb = enumerate_embeddings(a2, build_root_system("A3"))[0]
    found = list(interval_pattern_instances(emb))
    k = next(k for k, (u, v, x, w) in enumerate(found) if x != w and v != w0)
    u, v, x, w = found[k]
    if plant == "wrong":
        found[k] = (u, v, w, w)
    else:
        found.append((w0, v, x, w))  # w0 is not below v, so no walk reaches it
    real = verify.interval_pattern_instances
    monkeypatch.setattr(verify, "interval_pattern_instances",
                        lambda e, cap: iter(found) if e is emb else real(e, cap))
    r = verify_x_determination("A2", "A3")
    assert not r.passed
    assert any(f.endswith(message) for f in r.failures)


def test_length_sufficiency_reports_a_failure_once_per_scanned_yield(monkeypatch):
    # the suite decides each distinct quadruple once, yet a quadruple that
    # k embeddings yield must still be counted, and fail, k times
    from weylpat.harness import verify

    a2, a3 = build_root_system("A2"), build_root_system("A3")
    src, tgt = WeylGroup.for_system(a2).elements, WeylGroup.for_system(a3).elements
    yields = Counter((src[u], src[v], tgt[x], tgt[w]) for emb in enumerate_embeddings(a2, a3)
                     for u, v, x, w in interval_pattern_instances(emb))
    (u, v, x, w), k = next(
        (q, k) for q, k in yields.items()
        if k > 1 and q[0] != q[1] and q[1].length - q[0].length == q[3].length - q[2].length)
    cases = verify_length_sufficiency("A2", "A3").cases
    real_proof = verify._pattern_map_isomorphic

    # the pattern-map proof denies this one quadruple
    def planted_proof(sg, tg, embed, a, b, c, d, bottom):
        if (sg.elements[a], sg.elements[b], tg.elements[c], tg.elements[d]) == (u, v, x, w):
            return False
        return real_proof(sg, tg, embed, a, b, c, d, bottom)

    monkeypatch.setattr(verify, "_pattern_map_isomorphic", planted_proof)
    r = verify_length_sufficiency("A2", "A3")
    assert r.cases == cases == sum(yields.values())
    label = f"[{format_interval_spec(u, v)}] -> [{format_interval_spec(x, w)}]"
    assert r.failures == [f"{label}: equal gaps without isomorphism"] * k


def _equal_gap_instances(source, target):
    """(coset map of w, u, v, x, w) for every scanned yield with equal length gaps."""
    s, t = build_root_system(source), build_root_system(target)
    src, tgt = WeylGroup.for_system(s), WeylGroup.for_system(t)
    for emb in enumerate_embeddings(s, t):
        maps = emb.coset_maps()
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
        bottom = _interval_covers(src, u, v)
        assert _pattern_map_isomorphic(src, tgt, phi, *q, bottom) == searched[q]
    assert all(searched.values())
    # some window pairs, such as A1xA1 -> A2, have no embedding
    assert bool(searched) == bool(enumerate_embeddings(src.rs, tgt.rs))


@pytest.mark.parametrize("source,target", matrix_pairs(default_window(), slow=True))
def test_pattern_map_proof_agrees_with_the_target_interval_proof(source, target):
    # every equal-gap quadruple of the default and slow tiers, decided as the
    # suite decides it, by the coset map of the first embedding that yields it:
    # the proof by cover chains from the top agrees with the oracle that builds
    # [x, w] and compares it whole
    src = WeylGroup.for_system(build_root_system(source))
    tgt = WeylGroup.for_system(build_root_system(target))
    decided = set()
    for phi, u, v, x, w in _equal_gap_instances(source, target):
        q = (u, v, x, w)
        if q not in decided:
            decided.add(q)
            assert (_pattern_map_isomorphic(src, tgt, phi, *q, _interval_covers(src, u, v))
                    == pattern_map_isomorphic_on_target_interval(src, tgt, phi, *q))
    assert bool(decided) == bool(enumerate_embeddings(src.rs, tgt.rs))


def test_pattern_map_proof_rejects_a_bijection_that_breaks_covers():
    a2 = WeylGroup.for_system(build_root_system("A2"))
    w0 = a2.size - 1
    phi = list(enumerate_embeddings(a2.rs, a2.rs)[0].coset_maps()[w0])
    bottom = _interval_covers(a2, 0, w0)
    assert _pattern_map_isomorphic(a2, a2, phi, 0, w0, 0, w0, bottom)
    # still a bijection of [e, w0] onto itself, but s1 trades places with a length-2 element
    phi[1], phi[3] = phi[3], phi[1]
    assert a2.lengths[1] != a2.lengths[3]
    assert not _pattern_map_isomorphic(a2, a2, phi, 0, w0, 0, w0, bottom)


def test_length_sufficiency_catches_a_wrong_embed_table(monkeypatch):
    # with a coset map planted that sends all of [u, v] onto w the proof
    # fails whenever u < v, and each such yield is reported
    from weylpat.harness import verify

    cases = verify_length_sufficiency("A2", "A3").cases
    real_proof = verify._pattern_map_isomorphic
    monkeypatch.setattr(verify, "_pattern_map_isomorphic",
                        lambda sg, tg, phi, u, v, x, w, bottom:
                        real_proof(sg, tg, [w] * len(phi), u, v, x, w, bottom))
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
    assert Counter(patterns._equal_gap_instances(embs, DEFAULT_ENUMERATION_CAP)) == filtered


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
    r = verify_upper_ideal("kl-nontrivial", ["A2"])
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
