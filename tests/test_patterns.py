import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    classical_contains,
    coset_maps_by_target,
    digest,
    dot,
    flip_perm,
    forced_bottom,
    full_map_by_vector_sums,
    interval,
    interval_embeds as defined_interval_embeds,
    interval_pattern_instances,
    interval_poset_reachable,
    mask_index,
    naive_embeddings,
    negatives,
    perm_of,
    swapped_identity_embedding,
)
from weylpat.errors import (
    CapExceededError,
    GroupMismatchError,
    InternalInvariantError,
    NotComparableError,
)
from weylpat.kl import is_rationally_smooth, kl_polynomial, mu
from weylpat.patterns import (
    SubsystemEmbedding,
    _cosets,
    _full_map,
    _pair_masks,
    embed_element,
    enumerate_embeddings,
    flatten,
    format_interval_spec,
    interval_embeds,
    interval_pattern_avoids,
    parse_interval_spec,
    pattern_avoids,
)
from weylpat.roots import RootSystem, build_root_system, clear_caches
from weylpat.weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    bruhat_leq,
    enumerate_elements,
    format_word,
    from_inversion_set,
    from_word,
    identity,
    inverse,
    inversion_roots,
    multiply,
    parse_element,
    simple_reflection,
)

EMBEDDING_COUNTS = [
    ("A1", "A2", 3),
    ("A1xA1", "A2", 0),
    ("A1xA1", "B2", 0),
    ("A1xA1", "A3", 6),
    ("A2", "A2", 2),      # identity and the diagram automorphism
    ("A3", "A3", 2),
    ("B2", "B2", 1),
    ("G2", "G2", 1),
    ("A1", "A1", 1),
    ("A1xA1", "A1xA1", 2),
    ("A2", "A3", 8),
    ("B2", "B3", 3),
    ("A1", "G2", 6),
    ("A1", "B2", 4),
    ("A3", "A2", 0),      # rank too large, no embeddings
    ("D4", "D4", 6),      # triality: the full diagram automorphism group
    ("A2xA2", "A2xA2", 8),  # factor flips and the factor swap
    ("A2", "G2", 0),      # both A2 subsystems span the plane and fail the
                          # intersection condition
    ("A1xA1", "G2", 0),
    ("A1xA1", "B3", 12),  # one short root with one long root of the
                          # orthogonal complement
    ("B2", "D4", 0),      # simply laced target has no short roots
    ("A1xA1", "E6", 540),  # 36 positive roots, each orthogonal to 15
    ("D4", "E6", 270),    # 45 D4 subsystems times 6 diagram automorphisms
]


@pytest.mark.parametrize("src,tgt,count", EMBEDDING_COUNTS)
def test_embedding_counts(src, tgt, count):
    embs = enumerate_embeddings(build_root_system(src), build_root_system(tgt))
    assert len(embs) == count
    assert len(set(embs)) == count


@pytest.mark.parametrize("src,tgt", [
    ("A1", "A2"), ("A1", "B2"), ("A1", "G2"), ("A1xA1", "A3"), ("A1xA1", "B2"),
    ("A2", "A3"), ("A2", "B3"), ("B2", "B3"), ("A2", "A2"), ("A3", "A3"),
    ("A2", "G2"), ("A1xA1", "B3"),
    # the rest of the default window
    ("A1", "A3"), ("A1", "B3"), ("A1", "A4"), ("A1xA1", "A2"), ("A1xA1", "G2"),
    ("A1xA1", "A4"), ("A2", "B2"), ("A2", "A4"), ("B2", "A2"), ("B2", "A3"),
    ("B2", "B2"), ("B2", "G2"), ("B2", "A4"), ("A3", "B3"), ("A3", "A4"),
    # the slow tier
    ("A2", "D4"), ("A1xA1", "D4"), ("B2", "F4"),
])
def test_embeddings_match_brute_force(src, tgt):
    source, target = build_root_system(src), build_root_system(tgt)
    got = {e.simple_images for e in enumerate_embeddings(source, target)}
    assert got == naive_embeddings(source, target)


def test_embeddings_are_deterministically_ordered():
    source, target = build_root_system("A2"), build_root_system("A3")
    embs = enumerate_embeddings(source, target)
    keys = [(tuple(sorted(e.simple_images)), e.simple_images) for e in embs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("src,tgt", [("A2", "A3"), ("B2", "B3"), ("A1xA1", "A3")])
def test_embedding_structural_invariants(src, tgt):
    source, target = build_root_system(src), build_root_system(tgt)
    src_neg, tgt_neg = negatives(source), negatives(target)
    for emb in enumerate_embeddings(source, target):
        fm = emb.full_map
        for r in range(len(source.roots)):
            # commutes with negation
            assert fm[src_neg[r]] == tgt_neg[fm[r]]
            # positive roots stay positive
            if source.is_positive(r):
                assert target.is_positive(fm[r])
            # commutes with reflections
            for a in range(len(source.roots)):
                assert (fm[source.reflection_table[a][r]]
                        == target.reflection_table[fm[a]][fm[r]])
        # Cartan integers of the simple images match the source
        for i in range(source.rank):
            for j in range(source.rank):
                si, sj = source.simple[i], source.simple[j]
                ti, tj = emb.simple_images[i], emb.simple_images[j]
                lhs = 2 * dot(source.roots[si], source.roots[sj]) / dot(
                    source.roots[si], source.roots[si])
                rhs = 2 * dot(target.roots[ti], target.roots[tj]) / dot(
                    target.roots[ti], target.roots[ti])
                assert lhs == rhs


def test_flatten_identity_embedding_is_identity_map():
    a2 = build_root_system("A2")
    emb = next(e for e in enumerate_embeddings(a2, a2)
               if e.simple_images == a2.simple)
    for w in enumerate_elements(a2):
        assert flatten(emb, w) == w


def test_flatten_line_example():
    # A1 embedded on the highest root of A2; w = s1 s2 has I(w) = {a1, a1+a2}
    a1 = build_root_system("A1")
    a2 = build_root_system("A2")
    hi = a2.positive[-1]
    emb = next(e for e in enumerate_embeddings(a1, a2) if e.simple_images == (hi,))
    w = from_word(a2, [1, 2])
    assert flatten(emb, w) == simple_reflection(a1, 1)
    assert flatten(emb, identity(a2)) == identity(a1)
    assert flatten(emb, from_word(a2, [1])) == identity(a1)


@pytest.mark.parametrize("src,tgt", [("A2", "A3"), ("B2", "B3"), ("A1xA1", "A3")])
def test_flatten_section_and_equivariance(src, tgt):
    source, target = build_root_system(src), build_root_system(tgt)
    src_elements = enumerate_elements(source)
    for emb in enumerate_embeddings(source, target):
        for g in src_elements:
            assert flatten(emb, embed_element(emb, g)) == g
        for w in enumerate_elements(target):
            fw = flatten(emb, w)
            for g in src_elements:
                assert flatten(emb, multiply(embed_element(emb, g), w)) == multiply(g, fw)


def _pulled_back_mask(emb, w):
    inverted = set(inversion_roots(w))
    return sum(1 << emb.source.positive_position(r)
               for r in emb.source.positive if emb.full_map[r] in inverted)


@pytest.mark.parametrize("src,tgt", [("A1xA1", "B3"), ("A1", "G2"), ("A3", "A4")])
def test_flatten_matches_inversion_set_reconstruction(src, tgt):
    source, target = build_root_system(src), build_root_system(tgt)
    embs = enumerate_embeddings(source, target)
    assert embs
    for emb in embs:
        for w in enumerate_elements(target):
            assert flatten(emb, w) == from_inversion_set(source, _pulled_back_mask(emb, w))


def test_flatten_rejects_an_invalid_embedding():
    # swap the images of a2 and a1+a2 in the identity embedding of A2:
    # w = s1 s2 has I(w) = {a1, a1+a2}, which pulls back to {a1, a2}
    a2 = build_root_system("A2")
    bad = swapped_identity_embedding(a2)
    assert flatten(bad, identity(a2)) == identity(a2)
    with pytest.raises(InternalInvariantError, match="not biconvex"):
        flatten(bad, from_word(a2, [1, 2]))
    with pytest.raises(InternalInvariantError, match="not biconvex"):
        bad.flat()
    # sources whose masks take two bytes (B3: 9 positive roots, D4: 12), whose
    # flat tables are lists: I(s2) = {a2} pulls back to the highest root alone
    for cartan_type in ("B3", "D4"):
        rs = build_root_system(cartan_type)
        bad = swapped_identity_embedding(rs)
        with pytest.raises(InternalInvariantError, match="not biconvex"):
            flatten(bad, from_word(rs, [2]))
        with pytest.raises(InternalInvariantError, match="not biconvex"):
            bad.flat()


@pytest.mark.parametrize("cartan_type", ["A2", "B3", "D4"])
def test_an_embedding_is_identified_by_its_full_map(cartan_type):
    # the swapped embedding shares the valid identity embedding's simple
    # images, so only its full map tells the two apart, in ==, hash and repr
    rs = build_root_system(cartan_type)
    bad = swapped_identity_embedding(rs)
    good = next(e for e in enumerate_embeddings(rs, rs) if e.simple_images == bad.simple_images)
    assert bad != good and hash(bad) != hash(good)
    assert repr(bad) != repr(good)
    twin = SubsystemEmbedding(rs, rs, good.simple_images, good.full_map)
    assert twin == good and hash(twin) == hash(good) and repr(twin) == repr(good)
    assert len(set(enumerate_embeddings(rs, rs)) | {bad}) == len(enumerate_embeddings(rs, rs)) + 1


@pytest.mark.parametrize("src,tgt", [
    # sources whose masks fit one byte, with bytes tables, into targets of one to three bytes
    ("A1xA1", "B3"), ("A2", "A4"), ("B2", "F4"), ("G2", "G2"), ("A3", "D5"),
    # sources of 9 and 12 positive roots, with list tables
    ("B3", "F4"), ("D4", "D5"),
])
def test_flat_table_matches_the_pullback_oracle(src, tgt):
    source, target = build_root_system(src), build_root_system(tgt)
    src_group, tgt_group = WeylGroup.for_system(source), WeylGroup.for_system(target)
    embs = enumerate_embeddings(source, target)
    assert embs
    for emb in embs:
        flat = emb.flat()
        assert isinstance(flat, bytes) == (source.num_positive <= 8)
        index = mask_index(src_group)
        assert list(flat) == [index[emb._pull_back(m)] for m in tgt_group.masks]


@pytest.mark.parametrize("src,tgt", [("A2", "A3"), ("B3", "F4")])
def test_flat_builds_a_fresh_table_on_each_call(src, tgt):
    # no embedding keeps its flat table: two calls give equal tables, a bytes
    # for A2 and a list for B3, and never the same object
    emb = enumerate_embeddings(build_root_system(src), build_root_system(tgt))[0]
    first, second = emb.flat(), emb.flat()
    assert first == second
    assert first is not second


def test_embeddings_into_another_realization_are_its_own():
    # A2 on doubled simple roots is a valid A2 but not the interned one, so the
    # embeddings into it are searched and kept apart from those into the
    # interned A2, and the query answers the same on a warm memo as on a cold one
    custom = RootSystem("A2", [(2, -2, 0), (0, 2, -2)], 3)
    assert custom != build_root_system("A2")

    def query():
        a1 = build_root_system("A1")
        return pattern_avoids(parse_element(a1, "1"), parse_element(custom, "1 2"))

    clear_caches()
    cold = query()
    clear_caches()
    enumerate_embeddings(build_root_system("A1"), build_root_system("A2"))
    assert query() == cold is False
    assert all(e.target is custom
               for e in enumerate_embeddings(build_root_system("A1"), custom))


def test_flatten_group_mismatch():
    a2 = build_root_system("A2")
    a3 = build_root_system("A3")
    emb = enumerate_embeddings(a2, a3)[0]
    with pytest.raises(GroupMismatchError):
        flatten(emb, identity(a2))
    with pytest.raises(GroupMismatchError):
        embed_element(emb, identity(a3))


def test_interval_embeds_group_mismatch():
    # the bottom pair must come from the source, the top pair from the target
    a2, a3, b2 = (build_root_system(t) for t in ("A2", "A3", "B2"))
    emb = enumerate_embeddings(a2, a3)[0]
    e2, e3 = identity(a2), identity(a3)
    for u, v, x, w in [(identity(b2), from_word(b2, [1, 2]), e3, from_word(a3, [1, 2])),
                       (e2, from_word(a2, [1, 2]), identity(b2), from_word(b2, [1, 2]))]:
        with pytest.raises(GroupMismatchError):
            interval_embeds(emb, u, v, x, w)


def test_pattern_embedding_basics():
    a3 = build_root_system("A3")
    v = parse_element(a3, "3412")
    assert not pattern_avoids(v, v)  # self embedding
    assert pattern_avoids(v, identity(a3))
    ident_emb = next(e for e in enumerate_embeddings(a3, a3)
                     if e.simple_images == a3.simple)
    assert flatten(ident_emb, v) == v
    # the identity of the target avoids every nonidentity pattern
    a2 = build_root_system("A2")
    for vp in enumerate_elements(a2):
        if vp.length > 0:
            assert pattern_avoids(vp, identity(a3))


def test_pattern_avoidance_matches_classical_containment():
    # in type A, flattening through all subsystem embeddings sees exactly
    # the classical patterns of w and their reverse-complements
    a2 = build_root_system("A2")
    a3 = build_root_system("A3")
    a4 = build_root_system("A4")
    for source, target in [(a2, a3), (a3, a4), (a2, a4)]:
        for v in enumerate_elements(source):
            pv = perm_of(v)
            for w in enumerate_elements(target):
                pw = perm_of(w)
                expected = not (classical_contains(pv, pw)
                                or classical_contains(flip_perm(pv), pw))
                assert pattern_avoids(v, w) == expected


def test_pattern_avoidance_is_vacuous_without_embeddings():
    # no orthogonal root pair exists in B2, so every element avoids
    # every A1xA1 pattern
    a1a1 = build_root_system("A1xA1")
    b2 = build_root_system("B2")
    v = from_word(a1a1, [1, 2])
    for w in enumerate_elements(b2):
        assert pattern_avoids(v, w)


def test_interval_poset_reachable_cap():
    a3 = build_root_system("A3")
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    gen = interval(u, v)
    with pytest.raises(CapExceededError):
        interval_poset_reachable([gen], identity(a3), v, cap=1)
    # |W(A2)| = 6 fits a cap of 6, but the 14 states above [e, s] of A1
    # do not; [s1, s1] has gap 0, so no upward move reaches it
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    s1 = from_word(a2, [1])
    with pytest.raises(CapExceededError, match="interval poset search"):
        interval_poset_reachable([interval(identity(a1), from_word(a1, [1]))], s1, s1, cap=6)


def test_smoothness_pattern_count():
    a3 = build_root_system("A3")
    v1 = parse_element(a3, "3412")
    v2 = parse_element(a3, "4231")
    avoiders = [w for w in enumerate_elements(a3)
                if pattern_avoids(v1, w) and pattern_avoids(v2, w)]
    assert len(avoiders) == 22


def test_interval_embeds_identity_case():
    a3 = build_root_system("A3")
    emb = next(e for e in enumerate_embeddings(a3, a3)
               if e.simple_images == a3.simple)
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    assert interval_embeds(emb, u, v, u, v)
    with pytest.raises(NotComparableError):
        interval_embeds(emb, v, u, u, v)


def test_interval_embeds_singleton_intervals():
    a2 = build_root_system("A2")
    a3 = build_root_system("A3")
    targets = enumerate_elements(a3)
    for emb in enumerate_embeddings(a2, a3)[:2]:
        for v in enumerate_elements(a2):
            for x in targets:
                for w in targets:
                    if not bruhat_leq(x, w):
                        continue
                    got = interval_embeds(emb, v, v, x, w)
                    assert got == (x == w and flatten(emb, w) == v)


def test_interval_embeds_takes_a_cap():
    # W(E6) has 51,840 elements, past the default cap of 10,000; at cap 60,000
    # the answers match the definition, on the forced bottom of every u <= v
    # and on two bottoms off it, for sampled tops w
    a2, e6 = build_root_system("A2"), build_root_system("E6")
    src, tgt = WeylGroup.for_system(a2), WeylGroup.for_system(e6, 60_000)
    emb = enumerate_embeddings(a2, e6)[5]
    e = identity(e6)
    for cap in ({}, {"cap": 10_000}):
        with pytest.raises(CapExceededError):
            interval_embeds(emb, identity(a2), identity(a2), e, e, **cap)
    flat, maps = emb.flat(60_000), emb.coset_maps(60_000)
    rnd = random.Random(33)
    outcomes = set()
    for w in rnd.sample([w for w in range(tgt.size) if tgt.lengths[w] <= 12 and flat[w]], 12):
        phi, v = next(phi for phi in maps if w in phi), flat[w]
        bottoms = rnd.sample(tgt.below(w), 2)
        for u in src.below(v):
            for x in [phi[u]] + bottoms:
                args = (src.elements[u], src.elements[v],
                        WeylElement(e6, tgt.masks[x]), WeylElement(e6, tgt.masks[w]))
                got = interval_embeds(emb, *args, cap=60_000)
                assert got == defined_interval_embeds(emb, *args, cap=60_000)
                outcomes.add((got, x == phi[u]))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_interval_pattern_avoids_basics():
    a2 = build_root_system("A2")
    a3 = build_root_system("A3")
    w0 = from_word(a2, [1, 2, 1])
    assert interval_pattern_avoids(identity(a3), identity(a2), w0)
    with pytest.raises(NotComparableError):
        interval_pattern_avoids(identity(a3), w0, identity(a2))
    # interval avoidance of [v, v] collapses to ordinary avoidance
    for v in enumerate_elements(a2):
        for w in enumerate_elements(a3):
            assert interval_pattern_avoids(w, v, v) == pattern_avoids(v, w)


def test_interval_pattern_avoids_equals_search_over_all_bottoms():
    # the implementation only inspects the forced bottom i(u v^-1) w and
    # compares length gaps; compare against a definition-level search
    # over every x <= w that decides poset isomorphism, in and out of
    # type A, which interval_embeds must agree with at every x
    for src_type, tgt_type in [("A2", "A3"), ("A1", "G2"), ("A1", "B3"), ("A1xA1", "B3")]:
        source = build_root_system(src_type)
        target = build_root_system(tgt_type)
        embs = enumerate_embeddings(source, target)
        src = enumerate_elements(source)
        tgt = enumerate_elements(target)
        for v in src:
            for u in src:
                if not bruhat_leq(u, v):
                    continue
                for w in tgt:
                    bottoms = [x for x in tgt if bruhat_leq(x, w)]
                    brute = True
                    for emb in embs:
                        for x in bottoms:
                            got = defined_interval_embeds(emb, u, v, x, w)
                            assert interval_embeds(emb, u, v, x, w) == got
                            brute &= not got
                    assert interval_pattern_avoids(w, u, v) == brute, (src_type, tgt_type)


# pairs on which the coset maps are checked whole, every w and every g
COSET_PAIRS = [
    ("A2", "A3"), ("A1xA1", "B3"), ("B2", "B3"), ("A2", "B3"), ("G2", "G2"),
    ("A1", "G2"), ("A2", "A4"), ("A3", "D4"), ("A1xA1", "D4"), ("B2", "F4")]


@pytest.mark.parametrize("source,target", COSET_PAIRS)
def test_coset_map_is_an_order_embedding(source, target):
    # the Billey-Braden coset lemma, on which the completeness of the
    # coset-map isomorphism proof rests: for each m with fl(m) = e the
    # map g -> i(g) m is injective, inverted by fl, and order preserving.
    # The converse fails on some cosets, which is why the proof checks covers
    src = WeylGroup.for_system(build_root_system(source))
    tgt = WeylGroup.for_system(build_root_system(target))
    embs = enumerate_embeddings(src.rs, tgt.rs)
    assert embs
    for emb in embs:
        flat, maps = emb.flat(), coset_maps_by_target(emb)
        for m in range(tgt.size):
            if flat[m] != 0:
                continue
            phi = maps[m]
            assert phi[0] == m
            assert len(set(phi)) == src.size
            assert [flat[z] for z in phi] == list(range(src.size))
            for g in range(src.size):
                assert all(tgt.leq_idx(phi[h], phi[g]) for h in src.below(g))


@pytest.mark.parametrize("source,target", COSET_PAIRS)
def test_coset_maps_match_the_object_level_definition(source, target):
    # maps[w][g] is i(g fl(w)^-1) w, computed on elements for every w and g
    s, t = build_root_system(source), build_root_system(target)
    src_elements, tgt_elements = enumerate_elements(s), enumerate_elements(t)
    for emb in enumerate_embeddings(s, t):
        maps = coset_maps_by_target(emb)
        assert len(maps) == len(tgt_elements)
        # embed_element over the (small) source group, once per embedding
        image = {g: embed_element(emb, g) for g in src_elements}
        for w, phi in zip(tgt_elements, maps):
            fl_inv = inverse(flatten(emb, w))
            assert ([tgt_elements[k] for k in phi]
                    == [multiply(image[multiply(g, fl_inv)], w) for g in src_elements])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_coset_sweep_matches_the_object_level(data):
    # one embedding and one target element w: the flat table at w against
    # flatten, the map of w's coset from coset_maps and from _cosets against
    # i(g) m built with embed_element, m = i(fl(w)^-1) w, and the equal-gap
    # pairs of that coset against the definition of an interval pattern
    source = build_root_system(data.draw(st.sampled_from(["A1", "A1xA1", "A2", "B2", "G2"])))
    target = build_root_system(data.draw(st.sampled_from(["A3", "B3", "C3", "G2", "A4"])))
    embs = enumerate_embeddings(source, target)
    assume(embs)
    emb = data.draw(st.sampled_from(embs))
    src, tgt = WeylGroup.for_system(source), WeylGroup.for_system(target)
    w = data.draw(st.integers(0, tgt.size - 1))
    v = flatten(emb, tgt.elements[w])
    assert emb.flat()[w] == src.idx(v)
    m = multiply(embed_element(emb, inverse(v)), tgt.elements[w])
    phi = tuple(tgt.idx(multiply(embed_element(emb, g), m)) for g in src.elements)
    assert [p for p in emb.coset_maps() if w in p] == [phi]
    swept = [(p, pairs) for p, pairs in _cosets((emb,), DEFAULT_ENUMERATION_CAP) if w in p]
    assert [p for p, _ in swept] == [phi]
    el = src.elements
    assert swept[0][1] == [
        (a, b) for b in range(src.size) for a in range(src.size)
        if bruhat_leq(el[a], el[b])
        and defined_interval_embeds(emb, el[a], el[b], tgt.elements[phi[a]], tgt.elements[phi[b]])]


@pytest.mark.parametrize("source,target", [("A2", "A3"), ("B2", "B3")])
def test_single_coset_map_equals_the_coset_maps_entry(source, target):
    # interval_embeds builds only the map of w's coset, from w and v = fl(w),
    # flattening that coset alone; for every target w it is the entry of
    # coset_maps that holds w
    s, t = build_root_system(source), build_root_system(target)
    for emb in enumerate_embeddings(s, t):
        maps = coset_maps_by_target(emb)
        assert [emb._coset_map(w) for w in range(len(maps))] == maps


def test_an_e6_interval_proof_builds_no_flat_table_and_fills_few_covers(monkeypatch):
    # [e, s1] -> [e, i(s1)] along the first A1 -> E6 embedding: the proof
    # flattens only the coset of i(s1) and reads the covers of the two
    # elements it checks, so of the 51,840 cover lists at most a handful are
    # filled, and no flat table is built
    def no_table(self, cap=DEFAULT_ENUMERATION_CAP):
        raise AssertionError("interval_embeds built a flat table")

    monkeypatch.setattr(SubsystemEmbedding, "flat", no_table)
    clear_caches()
    a1, e6 = build_root_system("A1"), build_root_system("E6")
    emb = enumerate_embeddings(a1, e6)[0]
    e, s1, top = identity(a1), from_word(a1, [1]), embed_element(emb, from_word(a1, [1]))
    assert interval_embeds(emb, e, s1, identity(e6), top, cap=60_000)
    # fl(e) = e is not s1: refuted by the one coset map, still with no table
    assert not interval_embeds(emb, e, s1, identity(e6), identity(e6), cap=60_000)
    tgt = WeylGroup.for_system(e6, 60_000)
    assert tgt.size == 51_840 and len(tgt.lower_covers) <= 4


@pytest.mark.parametrize("flat", ["overlap", "gap", "moved", "dropped"])
def test_coset_maps_reject_a_planted_flat_table(monkeypatch, capsys, flat):
    # a flat table whose cosets overlap (every element a coset minimum),
    # leave a gap (no minimum at all), keep their number of minima but
    # move one (y = phi_e[1], the image of s1, made a minimum and another
    # coset's minimum not), or drop one coset's minimum (y, given fl(y) = s1),
    # so that fl inverts every map built but the maps miss that coset, is an
    # internal fault, raised by the library for every reader of the coset maps
    # and reported by the CLI with exit code 3; every reader of the table gets
    # it from flat(), and interval_embeds reads each flattening from _fl, so
    # the same table is planted in both
    from weylpat.harness.cli import main
    from weylpat.harness.verify import (
        verify_kl_transfer, verify_length_sufficiency, verify_upper_ideal)

    source, target = build_root_system("A2"), build_root_system("A3")
    src, tgt = WeylGroup.for_system(source), WeylGroup.for_system(target)
    embs = enumerate_embeddings(source, target)
    ys, tables = [], {}
    for emb in embs:
        maps = emb.coset_maps()
        ys.append(maps[1][0] if flat == "dropped" else maps[0][1])
        planted = {"overlap": [0] * tgt.size, "gap": [1] * tgt.size,
                   "moved": list(emb.flat()), "dropped": list(emb.flat())}[flat]
        if flat == "moved":
            planted[ys[-1]], planted[maps[1][0]] = 0, 1
        elif flat == "dropped":
            planted[ys[-1]] = 1
        tables[emb] = planted
    monkeypatch.setattr(SubsystemEmbedding, "flat",
                        lambda self, cap=DEFAULT_ENUMERATION_CAP: tables[self])
    monkeypatch.setattr(SubsystemEmbedding, "_fl",
                        lambda self, source, mask: tables[self][tgt.find(mask)])
    emb, y = embs[0], ys[0]
    with pytest.raises(InternalInvariantError, match="cosets of the embedded subgroup"):
        emb.coset_maps()
    with pytest.raises(InternalInvariantError, match="cosets"):
        list(interval_pattern_instances(emb))
    # [v, v] -> [y, y] with the planted fl(y) = v reaches the one coset map of y,
    # which the planted table does not invert
    v, w = src.elements[emb.flat()[y]], tgt.elements[y]
    with pytest.raises(InternalInvariantError, match="no coset map carries"):
        interval_embeds(emb, v, v, w, w)
    for suite in (lambda: verify_length_sufficiency("A2", "A3"),
                  lambda: verify_kl_transfer("A2", "A3"),
                  lambda: verify_upper_ideal(["kl-nontrivial"], ["A2", "A3"], [("A2", "A3")])):
        with pytest.raises(InternalInvariantError, match="cosets"):
            suite()
    assert main(["verify", "length-sufficiency", "A2", "A3"]) == 3
    assert "cosets of the embedded subgroup" in capsys.readouterr().err


def test_forced_bottom_checks_both_flattenings_and_order():
    a1 = build_root_system("A1")
    a2 = build_root_system("A2")
    emb = enumerate_embeddings(a1, a2)[0]
    e, s = identity(a1), simple_reflection(a1, 1)
    w = identity(a2)
    assert forced_bottom(emb, e, e, w) == w
    assert forced_bottom(emb, e, s, w) is None  # w flattens to e, not s
    assert forced_bottom(emb, s, s, w) is None
    # i(s) w flattens to s but lies above w
    assert forced_bottom(emb, s, e, w) is None


def test_forced_bottom_enumerates_no_target_group():
    # flatten looks the pulled-back masks up in W(source); W(target) stays unbuilt,
    # for the forced bottom and for interval pattern avoidance alike
    clear_caches()
    a1, b3 = build_root_system("A1"), build_root_system("B3")
    emb = enumerate_embeddings(a1, b3)[0]
    e, s = identity(a1), simple_reflection(a1, 1)
    w = embed_element(emb, s)
    assert forced_bottom(emb, e, s, w) == identity(b3)
    assert not interval_pattern_avoids(w, e, s)
    assert isinstance(a1._group, WeylGroup)
    assert b3._group is None


def _scanned(emb):
    """The scan of emb, its index quadruples mapped to group elements."""
    src, tgt = enumerate_elements(emb.source), enumerate_elements(emb.target)
    return [(src[u], src[v], tgt[x], tgt[w]) for u, v, x, w in interval_pattern_instances(emb)]


@pytest.mark.parametrize("src,tgt", [("A1", "A2"), ("A2", "A3"), ("A1xA1", "B3")])
def test_interval_pattern_instances_match_coset_walk(src, tgt):
    # every pair with matching flattenings, a shared coset and u <= v,
    # x <= w, found by walking whole cosets, is exactly what the
    # forced-bottom scan yields
    source, target = build_root_system(src), build_root_system(tgt)
    src_elements = enumerate_elements(source)
    for emb in enumerate_embeddings(source, target):
        walked = set()
        for w in enumerate_elements(target):
            v = flatten(emb, w)
            for g in src_elements:
                x = multiply(embed_element(emb, g), w)
                u = flatten(emb, x)
                if bruhat_leq(u, v) and bruhat_leq(x, w):
                    walked.add((u, v, x, w))
        scanned = _scanned(emb)
        assert len(scanned) == len(set(scanned))
        assert set(scanned) == walked


@pytest.mark.parametrize("src,tgt", [
    ("A1", "G2"), ("A2", "B3"), ("A1xA1", "B3"), ("A3", "A4"),
    # masks of three bytes (D5: 20 positive roots, F4: 24) and of four (B5: 25)
    ("A1", "D5"), ("A2", "D5"), ("A3", "D5"), ("A2", "F4"), ("B2", "F4"), ("A1", "B5"),
])
def test_index_tables_match_flatten_and_embed_element(src, tgt):
    source, target = build_root_system(src), build_root_system(tgt)
    src_elements, tgt_elements = enumerate_elements(source), enumerate_elements(target)
    for emb in enumerate_embeddings(source, target):
        assert [src_elements[k] for k in emb.flat()] == [flatten(emb, w) for w in tgt_elements]
        # the coset map of the identity's coset is the embedding itself
        assert ([tgt_elements[k] for k in emb.coset_maps()[0]]
                == [embed_element(emb, g) for g in src_elements])


@pytest.mark.parametrize("src,tgt", [("A2", "A3"), ("A1xA1", "B3"), ("A1", "F4")])
def test_interval_pattern_instances_match_object_level_forced_bottom(src, tgt):
    # the index scan yields, in order, what the object-level forced
    # bottom accepts over every w and every u <= fl(w)
    source, target = build_root_system(src), build_root_system(tgt)
    src_elements = enumerate_elements(source)
    for emb in enumerate_embeddings(source, target):
        expected = []
        for w in enumerate_elements(target):
            v = flatten(emb, w)
            for u in src_elements:
                if bruhat_leq(u, v):
                    x = forced_bottom(emb, u, v, w)
                    if x is not None:
                        expected.append((u, v, x, w))
        assert _scanned(emb) == expected


@pytest.mark.parametrize("shift,check", [("within", "flat"), ("across", "order"), ("table", "flat")])
def test_scan_checks_reject_candidates_of_a_planted_wrong_table(monkeypatch, capsys, shift, check):
    # with valid tables neither the fl test of coset_maps nor the order check
    # of _cosets rejects, so wrong tables are planted: each coset map rotated
    # within itself, which moves phi[0] off the coset's minimum, planted in the
    # columns below coset_maps' own test; each coset keeping its minimum but
    # taking the rest of its map from the coset before it, which keeps
    # fl(phi[g]) = g but not the order of every cover, planted on the maps
    # coset_maps returns; or a flat table with s1 and s2 swapped, whose cosets
    # stay the same, planted in flat() and in _fl, the per-element lookup that
    # interval_embeds reads.  The named check must raise for every interval
    # reader, and the CLI must exit 3
    from weylpat.harness.cli import main
    from weylpat.harness.verify import (
        verify_kl_transfer, verify_length_sufficiency, verify_upper_ideal)

    source, target = build_root_system("A2"), build_root_system("A3")
    message = {"flat": "does not invert coset map", "order": "does not lengthen a cover"}[check]
    if shift == "table":
        # w = phi_e[1], read before the plant
        w = enumerate_embeddings(source, target)[0].coset_maps()[0][1]
        real_flat, real_fl = SubsystemEmbedding.flat, SubsystemEmbedding._fl

        def swap(k):
            return {1: 2, 2: 1}.get(k, k)
        monkeypatch.setattr(SubsystemEmbedding, "flat", lambda self, cap=DEFAULT_ENUMERATION_CAP:
                            [swap(f) for f in real_flat(self, cap)])
        monkeypatch.setattr(SubsystemEmbedding, "_fl",
                            lambda self, source, mask: swap(real_fl(self, source, mask)))
    elif shift == "within":
        real_columns = SubsystemEmbedding._columns

        def rotated(self, col, cap):
            # cols[g] over every coset at once, so each map phi[g] = cols[g][c] rotates
            cols = real_columns(self, col, cap)
            return cols[1:] + cols[:1]
        monkeypatch.setattr(SubsystemEmbedding, "_columns", rotated)
    else:
        real = SubsystemEmbedding.coset_maps

        def planted(self, cap):
            # the coset maps, in the order of their minima phi[0]
            phis = real(self, cap)
            return [phi[:1] + prev[1:] for phi, prev in zip(phis, phis[-1:] + phis[:-1])]
        monkeypatch.setattr(SubsystemEmbedding, "coset_maps", planted)
    with pytest.raises(InternalInvariantError, match=message):
        interval_pattern_instances(enumerate_embeddings(source, target)[0])
    if shift == "table":
        # w has the planted fl(w) = s2, and no coset map carries s2 to w
        emb = enumerate_embeddings(source, target)[0]
        src, tgt = WeylGroup.for_system(source), WeylGroup.for_system(target)
        v = src.elements[emb.flat()[w]]
        with pytest.raises(InternalInvariantError, match="no coset map carries"):
            interval_embeds(emb, v, v, tgt.elements[w], tgt.elements[w])
    for suite in (lambda: verify_length_sufficiency("A2", "A3"),
                  lambda: verify_kl_transfer("A2", "A3"),
                  lambda: verify_upper_ideal(["kl-nontrivial"], ["A2", "A3"], [("A2", "A3")])):
        with pytest.raises(InternalInvariantError, match=message):
            suite()
    assert main(["verify", "length-sufficiency", "A2", "A3"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("source,target", [
    ("A2", "F4"), ("B2", "F4"), ("A3", "D5"), ("A1xA1", "B3"), ("C3", "F4")])
def test_coset_order_check_agrees_with_the_lifting_test(source, target):
    # the order check of _cosets compares lengths across each cover c < g of
    # W', as phi[g] = i(t) phi[c] for a reflection t of W' and so the longer
    # of the two is the larger; on every cover of every coset the lifting
    # test gives the same answer, both ways round
    src = WeylGroup.for_system(build_root_system(source))
    tgt = WeylGroup.for_system(build_root_system(target))
    lengths, leq, covers = tgt.lengths, tgt.leq_idx, 0
    for emb in enumerate_embeddings(src.rs, tgt.rs):
        flat, maps = emb.flat(), coset_maps_by_target(emb)
        for phi in (maps[m] for m in range(tgt.size) if flat[m] == 0):
            for g in range(src.size):
                for c in src.lower_covers[g]:
                    a, b = phi[c], phi[g]
                    assert (lengths[a] < lengths[b]) == leq(a, b)
                    assert (lengths[b] < lengths[a]) == leq(b, a)
                    covers += 1
    assert covers


def _a4_pair():
    a4 = build_root_system("A4")
    return identity(a4), from_word(a4, [1, 2, 1])


def _a2_into_a4():
    return enumerate_embeddings(build_root_system("A2"), build_root_system("A4"))[0]


def _a2_pattern():
    return from_word(build_root_system("A2"), [1, 2, 1])


# a query taking cap=..., and a cap too small for it: |W(A2)| = 6,
# |W(A4)| = 120, and the A2 -> A4 search tries more than 3 nodes
CAP_CASES = {
    "enumerate_elements": (lambda **kw: enumerate_elements(build_root_system("A4"), **kw), 119),
    "interval": (lambda **kw: interval(*_a4_pair(), **kw), 119),
    "kl_polynomial": (lambda **kw: kl_polynomial(*_a4_pair(), **kw), 119),
    "mu": (lambda **kw: mu(*_a4_pair(), **kw), 119),
    "is_rationally_smooth": (lambda **kw: is_rationally_smooth(_a4_pair()[1], **kw), 119),
    "flatten": (lambda **kw: flatten(_a2_into_a4(), _a4_pair()[1], **kw), 5),
    "pattern_avoids": (lambda **kw: pattern_avoids(_a2_pattern(), _a4_pair()[1], **kw), 3),
    "interval_pattern_avoids": (lambda **kw: interval_pattern_avoids(
        _a4_pair()[1], identity(build_root_system("A2")), _a2_pattern(), **kw), 3),
    "enumerate_embeddings": (lambda **kw: enumerate_embeddings(
        build_root_system("A2"), build_root_system("A4"), **kw), 3),
    "flat": (lambda **kw: _a2_into_a4().flat(**kw), 119),
    "coset_maps-target": (lambda **kw: _a2_into_a4().coset_maps(**kw), 119),
    "coset_maps-source": (lambda **kw: _a2_into_a4().coset_maps(**kw), 5),
    # the hexagon of A2 reaches [e, s1 s2 s1] of A4 in under 119 states
    "interval_poset_reachable": (lambda **kw: interval_poset_reachable(
        [interval(identity(build_root_system("A2")), _a2_pattern())], *_a4_pair(), **kw), 119),
}


@pytest.mark.parametrize("name", list(CAP_CASES))
def test_caps_hold_on_warm_caches(name):
    # the same too-small cap must fail on fresh systems and again once the
    # memo it guards has been filled with the default cap
    query, small = CAP_CASES[name]
    clear_caches()
    with pytest.raises(CapExceededError):
        query(cap=small)
    query()
    with pytest.raises(CapExceededError):
        query(cap=small)


def test_interval_pattern_avoids_finds_singular_transfer():
    # [1324, 3412] embeds into [x, w] inside A4 for suitable w
    a3 = build_root_system("A3")
    a4 = build_root_system("A4")
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    hits = [w for w in enumerate_elements(a4) if not interval_pattern_avoids(w, u, v)]
    assert hits  # patterns do occur
    for w in hits:
        assert not pattern_avoids(v, w)  # flattening to v is necessary


def test_interval_poset_reachable_reflexive_and_relation2():
    a3 = build_root_system("A3")
    u = parse_element(a3, "1324")
    v = parse_element(a3, "3412")
    gen = interval(u, v)
    assert interval_poset_reachable([gen], u, v)
    # lowering the bottom moves up in the poset
    assert interval_poset_reachable([gen], identity(a3), v)
    # raising the bottom does not
    gen2 = interval(identity(a3), v)
    assert not interval_poset_reachable([gen2], u, v)
    # a different top in the same window is unreachable
    assert not interval_poset_reachable([gen], parse_element(a3, "2143"),
                                        parse_element(a3, "4231"))


def test_interval_poset_reachable_crosses_groups():
    # a diamond in A2 embeds into diamonds of A3
    a2 = build_root_system("A2")
    a3 = build_root_system("A3")
    gen = interval(identity(a2), from_word(a2, [1, 2]))
    w = from_word(a3, [1, 2])
    x = identity(a3)
    assert interval_poset_reachable([gen], x, w, groups=[a2, a3])


def test_interval_poset_reachable_needs_equal_length_gaps():
    # the reflection s_(e1-e4) of A3 flattens to w0 of A2 with forced
    # bottom e, but [e, s_(e1-e4)] has rank 5 and the hexagon [e, w0]
    # rank 3: that pair is no interval pattern, and no other route leads
    # from the hexagon to [e, s_(e1-e4)]
    a2 = build_root_system("A2")
    a3 = build_root_system("A3")
    gen = interval(identity(a2), from_word(a2, [1, 2, 1]))
    assert interval_poset_reachable([gen], identity(a3), from_word(a3, [1, 2, 1]),
                                    groups=[a2, a3])
    assert not interval_poset_reachable([gen], identity(a3), from_word(a3, [1, 2, 3, 2, 1]),
                                        groups=[a2, a3])


def test_singular_locus_upper_ideal_in_a3():
    # the intervals with nontrivial KL polynomial form an upper ideal
    # generated by its minimal elements inside the A3 window
    a3 = build_root_system("A3")
    elements = enumerate_elements(a3)
    nontrivial = [
        (u, v)
        for v in elements for u in elements
        if bruhat_leq(u, v) and kl_polynomial(u, v) != 1
    ]
    assert len(nontrivial) == 6
    reach = {
        (a, b): interval_poset_reachable([interval(*a_pair)], b_pair[0], b_pair[1],
                                         groups=[a3])
        for a, a_pair in enumerate(nontrivial)
        for b, b_pair in enumerate(nontrivial)
    }
    minimal = [
        k for k in range(len(nontrivial))
        if not any(reach[(j, k)] and not reach[(k, j)] for j in range(len(nontrivial)))
    ]
    # every nontrivial interval is reachable from some minimal generator
    for k in range(len(nontrivial)):
        assert any(reach[(g, k)] for g in minimal)
    tops = {format_word(pair[1]) for pair in (nontrivial[g] for g in minimal)}
    assert len(minimal) == 2 and len(tops) == 2


def test_interval_spec_round_trip():
    rs, u, v = parse_interval_spec("A3:1234..3412")
    assert rs.cartan_type == "A3"
    assert u == identity(rs)
    assert v == parse_element(rs, "3412")
    assert format_interval_spec(u, v) == "A3:e..2 1 3 2"
    rs2, u2, v2 = parse_interval_spec("A3:e..2 1 3 2")
    assert (rs2, u2, v2) == (rs, u, v)
    with pytest.raises(ValueError):
        parse_interval_spec("A3(1234,3412)")
    with pytest.raises(ValueError):
        parse_interval_spec("A3:1234")


DIGEST_TARGETS = ["A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "C4",
                  "D4", "D5", "G2", "F4", "E6"]
# per source: the rank-compatible targets (120 pairs in all) and the
# sha256 prefix (helpers.digest) of their (simple_images, full_map) lists
# in order, recorded from the ambient Fraction search that the integer
# one replaced
EMBEDDING_DIGESTS = {
    "A1": (15, "70616e6052fc53ff"), "A1xA1": (15, "ee64dd77fb3fa872"),
    "A2": (15, "9784f5ade9c559e9"), "B2": (15, "a54acf0388fcc212"),
    "G2": (15, "bac4bc7c10697393"), "A3": (12, "605dd16e6e5c11a1"),
    "B3": (12, "44072bf8b36c626e"), "C3": (12, "9c7640a47bcecd5a"),
    "D4": (9, "6c7f58da914eca76"),
}


@pytest.mark.parametrize("src", EMBEDDING_DIGESTS)
def test_embeddings_match_pinned_digests(src):
    source = build_root_system(src)
    found = []
    for tgt in DIGEST_TARGETS:
        target = build_root_system(tgt)
        if source.rank <= target.rank:
            found.append((tgt, tuple((e.simple_images, e.full_map)
                                     for e in enumerate_embeddings(source, target))))
    assert (len(found), digest(tuple(found))) == EMBEDDING_DIGESTS[src]


# per source, the count and sha256 prefix (helpers.digest) of its
# (simple_images, full_map) list into E7, recorded from the search that
# scanned every positive root per node and summed vectors per full map
E7_DIGESTS = {
    "A2": (672, "127a125744f1731e"), "A3": (2520, "bb8def7ef4c523fc"),
    "D4": (1890, "dc29f26857140067"),
}


@pytest.mark.parametrize("src", E7_DIGESTS)
def test_embeddings_into_e7_match_pinned_digests(src):
    embs = enumerate_embeddings(build_root_system(src), build_root_system("E7"))
    found = tuple((e.simple_images, e.full_map) for e in embs)
    assert (len(found), digest(found)) == E7_DIGESTS[src]


@pytest.mark.parametrize("src,tgt,nodes", [("A3", "A6", 161), ("D4", "E7", 5145)])
def test_embedding_cap_boundary_is_the_node_count(src, tgt, nodes):
    # the search tries exactly `nodes` partial assignments, counted before
    # the search used pairing masks: that cap succeeds and one fewer fails,
    # cold and warm alike
    for cap, ok in ((nodes - 1, False), (nodes, True)):
        clear_caches()
        source, target = build_root_system(src), build_root_system(tgt)
        if ok:
            found = enumerate_embeddings(source, target, cap=cap)
        else:
            with pytest.raises(CapExceededError):
                enumerate_embeddings(source, target, cap=cap)
    with pytest.raises(CapExceededError):
        enumerate_embeddings(source, target, cap=nodes - 1)
    assert enumerate_embeddings(source, target, cap=nodes) is found


@pytest.mark.parametrize("src,tgt", [
    ("A2", "F4"), ("B2", "F4"), ("G2", "G2"), ("C3", "F4"), ("A1xA1", "D5"),
    ("A1xA2", "A2xB2"), ("A3", "E6"), ("D4", "E7"),
])
def test_full_maps_match_vector_sums(src, tgt):
    source, target = build_root_system(src), build_root_system(tgt)
    embs = enumerate_embeddings(source, target)
    assert embs
    for emb in embs:
        assert emb.full_map == full_map_by_vector_sums(source, target, emb.simple_images)


@pytest.mark.parametrize("cartan_type", ["A3", "G2", "B3", "C3", "F4", "A1xB2", "E6"])
def test_pair_masks_hold_the_cartan_integers(cartan_type):
    rs = build_root_system(cartan_type)
    masks = _pair_masks(rs)
    assert _pair_masks(rs) is masks
    for pa, a in enumerate(rs.positive):
        assert sum(masks[pa].values()) == (1 << rs.num_positive) - 1
        for pb, b in enumerate(rs.positive):
            ra, rb = rs.roots[a], rs.roots[b]
            pair = (2 * dot(rb, ra) / dot(ra, ra), 2 * dot(ra, rb) / dot(rb, rb))
            assert [key for key, m in masks[pa].items() if m >> pb & 1] == [pair]


def test_full_map_rejects_a_positive_root_sent_negative():
    # a1 and -(a1 + a2) have the Cartan integers of a1 and a2, but the
    # linear map sends a1 + a2 to -a2
    a2 = build_root_system("A2")
    images = (a2.simple[0], a2.simple_coords.index((-1, -1)))
    assert full_map_by_vector_sums(a2, a2, images)[a2.simple_coords.index((1, 1))] \
        == a2.simple_coords.index((0, -1))
    with pytest.raises(InternalInvariantError, match="positive root to a negative"):
        _full_map(a2, a2, images)
