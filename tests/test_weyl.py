import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    BruhatInterval,
    _reflection_closure_downsets,
    all_reduced_words,
    brute_force_isomorphic,
    bruhat_leq_by_reflection_closure,
    cayley_distances,
    compose,
    cover_downsets,
    covers,
    image_inversions,
    interval,
    interval_isomorphic,
    interval_pattern_instances,
    inverses_by_walk,
    invert,
    is_biconvex,
    left_descents,
    lifting_downsets,
    lower_covers_table,
    mask_index,
    mul,
    negatives,
    one_line_by_coordinates,
    root_image,
    word_image,
)
from weylpat.errors import (
    CapExceededError,
    GroupMismatchError,
    InternalInvariantError,
    NotAnInversionSetError,
    NotComparableError,
)
from weylpat.harness.verify import verify_upper_ideal
from weylpat.kl import _table_for
from weylpat.patterns import (
    enumerate_embeddings,
    flatten,
    pattern_avoids,
)
from weylpat.roots import build_root_system, clear_caches
from weylpat.weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    _byte_planes,
    _left_step,
    _plane_sum,
    _plane_tables,
    _plane_words,
    _step_tables,
    apply,
    bruhat_leq,
    enumerate_elements,
    format_word,
    from_inversion_set,
    from_word,
    identity,
    inverse,
    inversion_roots,
    multiply,
    one_line,
    parse_element,
    reflection,
    simple_reflection,
    to_reduced_word,
)

GROUP_ORDERS = {"A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12, "A1xA1": 4}


@pytest.mark.parametrize("cartan_type,order", sorted(GROUP_ORDERS.items()))
def test_enumeration(cartan_type, order):
    rs = build_root_system(cartan_type)
    elements = enumerate_elements(rs)
    assert len(elements) == order
    # ordered by (length, lex word), no repeats
    keys = [(w.length, to_reduced_word(w)) for w in elements]
    assert keys == sorted(keys)
    assert len(set(keys)) == order
    assert len({w.inversions for w in elements}) == order
    for w in elements:
        assert w.length == w.inversions.bit_count()


@pytest.mark.parametrize("cartan_type", ["A3", "B2", "G2"])
def test_length_is_minimal_word_length(cartan_type):
    rs = build_root_system(cartan_type)
    dist = cayley_distances(rs)
    for w in enumerate_elements(rs):
        assert dist[w.inversions] == w.length


def test_identity_and_simple_reflections():
    rs = build_root_system("A2")
    e = identity(rs)
    assert e.length == 0 and e.inversions == 0
    s1 = simple_reflection(rs, 1)
    assert s1.length == 1
    assert inversion_roots(s1) == (rs.simple[0],)
    with pytest.raises(ValueError):
        simple_reflection(rs, 3)
    with pytest.raises(ValueError):
        simple_reflection(rs, 0)


def test_reflection_is_sign_invariant_and_longest_example():
    rs = build_root_system("A2")
    hi = rs.positive[-1]  # a1 + a2
    assert reflection(rs, hi) == reflection(rs, negatives(rs)[hi])
    assert reflection(rs, hi).length == 3


def test_group_arithmetic():
    rs = build_root_system("A2")
    e = identity(rs)
    s1 = simple_reflection(rs, 1)
    s2 = simple_reflection(rs, 2)
    assert multiply(s1, s1) == e
    assert inverse(multiply(s1, s2)) == multiply(s2, s1)
    assert multiply(multiply(s1, s2), inverse(multiply(s1, s2))) == e
    # apply matches the reflection action on roots
    assert apply(s1, rs.simple[1]) == rs.reflection_table[rs.simple[0]][rs.simple[1]]
    for alpha in (-1, len(rs.roots)):
        with pytest.raises(ValueError):
            apply(e, alpha)
    with pytest.raises(GroupMismatchError):
        multiply(s1, identity(build_root_system("B2")))


@pytest.mark.parametrize("cartan_type", ["A3", "B2"])
def test_root_image_commutes_with_negation(cartan_type):
    rs = build_root_system(cartan_type)
    neg = negatives(rs)
    for w in enumerate_elements(rs):
        image = root_image(w)
        for r in range(len(rs.roots)):
            assert image[neg[r]] == neg[image[r]]


def test_from_word():
    rs = build_root_system("A2")
    assert from_word(rs, [1, 1]) == identity(rs)
    assert from_word(rs, [1, 2, 1]) == from_word(rs, [2, 1, 2])
    assert from_word(rs, []) == identity(rs)
    with pytest.raises(ValueError):
        from_word(rs, [7])


@pytest.mark.parametrize("cartan_type",
                         ["A1xA1", "A3", "B3", "C3", "D4", "G2", "F4", "A2xB2", "E6"])
def test_left_step_matches_the_tuple_product(cartan_type):
    # the one left multiplication of masks, against products of root
    # permutations; E6, with masks of five bytes, on a sample of random words
    rs = build_root_system(cartan_type)
    if cartan_type == "E6":
        rnd = random.Random(6)
        elements = [from_word(rs, [rnd.randint(1, 6) for _ in range(rnd.randint(0, 40))])
                    for _ in range(300)]
    else:
        elements = enumerate_elements(rs)
    for w in elements:
        image = root_image(w)
        for i in range(rs.rank):
            assert _left_step(rs, w.inversions, i) == \
                image_inversions(rs, compose(rs.reflection_table[rs.simple[i]], image))


@pytest.mark.parametrize("cartan_type", ["A1xA1", "A3", "B3", "G2", "F4", "A2xB2", "E6"])
def test_element_operations_match_root_permutations(cartan_type):
    # from_word, multiply with a sampled partner, inverse, apply and every
    # reflection, against permutations of root indices composed from the
    # reflection rows; every element's reduced word, and 300 random E6 words
    rs = build_root_system(cartan_type)
    rnd = random.Random(6)
    if cartan_type == "E6":
        words = [[rnd.randint(1, 6) for _ in range(rnd.randint(0, 40))] for _ in range(300)]
    else:
        words = [to_reduced_word(w) for w in enumerate_elements(rs)]
    elements = [from_word(rs, word) for word in words]
    for word, w in zip(words, elements):
        image = word_image(rs, word)
        v = rnd.choice(elements)
        assert w.inversions == image_inversions(rs, image)
        assert multiply(w, v).inversions == image_inversions(rs, compose(image, root_image(v)))
        assert inverse(w).inversions == image_inversions(rs, invert(image))
        assert [apply(w, r) for r in range(len(rs.roots))] == list(image)
    for alpha in range(len(rs.roots)):
        assert reflection(rs, alpha).inversions == \
            image_inversions(rs, rs.reflection_table[alpha])


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "A3", "B3", "G2", "A1xA1"])
def test_reduced_word_is_lex_least(cartan_type):
    rs = build_root_system(cartan_type)
    for w in enumerate_elements(rs):
        words = all_reduced_words(w)
        assert to_reduced_word(w) == min(words)
        assert all(len(word) == w.length for word in words)
        assert from_word(rs, to_reduced_word(w)) == w


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "G2", "D4", "A1xA1"])
def test_group_words_and_lmult_match_the_object_level(cartan_type):
    # the enumeration derives both from its search; the greedy descent
    # peel and object-level products are the oracles
    rs = build_root_system(cartan_type)
    wg = WeylGroup.for_system(rs)
    for k, w in enumerate(wg.elements):
        assert wg.word(k) == to_reduced_word(w)
        for i in range(rs.rank):
            assert wg.elements[wg.lmult[i][k]] == multiply(simple_reflection(rs, i + 1), w)


@pytest.mark.parametrize("cartan_type", ["A6", "A7", "D6", "E6"])
def test_lmult_rows_are_allocated_to_the_group_size(cartan_type):
    # the rows grow a block at a time up to the middle level, and then once
    # to |W|, spare capacity included; each lists every index once
    wg = WeylGroup(build_root_system(cartan_type), 60_000)
    for row in wg.lmult:
        assert sys.getsizeof(row) == sys.getsizeof([]) + 8 * wg.size
        assert sorted(row) == list(range(wg.size))


@pytest.mark.parametrize("cartan_type",
                         ["A1xA1", "A3", "B3", "C3", "D4", "G2", "F4", "A2xB2", "E6"])
def test_build_numbers_elements_in_order_of_length_and_word(cartan_type):
    # the build numbers each level in order with no sort: (length, lex-least
    # word) increases strictly, and each word, read down the first letters,
    # is the greedy peel of the element built from the rows
    rs = build_root_system(cartan_type)
    wg = WeylGroup(rs, 60_000)
    keys = [(wg.lengths[k], wg.word(k)) for k in range(wg.size)]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for k, w in enumerate(wg.elements):
        assert keys[k] == (w.length, to_reduced_word(w))
        if k:
            assert wg.first[k] == left_descents(w)[0]
    assert wg.first[0] == 0
    assert isinstance(wg.first, bytes) and isinstance(wg.lengths, bytes)


def test_group_keeps_no_word_tuples_and_builds_small():
    # a cold A6 build keeps masks, one int per index, rows and two bytes
    # tables; a per-element word tuple list, or a second discovery-order
    # copy of the tables renumbered by a sort, takes it past 2 MB
    rs = build_root_system("A6")
    tracemalloc.start()
    try:
        wg = WeylGroup(rs, DEFAULT_ENUMERATION_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wg.size == 5040
    assert not hasattr(wg, "words")
    assert peak < 1_000_000


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4", "E6"])
def test_find_and_idx_match_the_whole_group_index_dict(cartan_type):
    # every mask is looked up within its length level, against the dict over
    # all of W that the group used to keep; a mask of no element misses
    rs = build_root_system(cartan_type)
    wg = WeylGroup(rs, 60_000)
    index = mask_index(wg)
    assert len(index) == wg.size
    assert [wg.find(m) for m in wg.masks] == [index[m] for m in wg.masks] == list(range(wg.size))
    assert [wg.idx(w) for w in wg.elements] == list(range(wg.size))
    assert all(lv is not None for lv in wg._levels)
    top = (1 << rs.num_positive) - 1
    misses = [top << 1, 1 << rs.num_positive, top ^ 1 << (rs.num_positive - 1)]
    rnd = random.Random(wg.size)
    misses += [m for m in (rnd.getrandbits(rs.num_positive) for _ in range(300)) if m not in index]
    assert len(misses) > 100
    assert all(m not in index and wg.find(m) is None for m in misses)
    with pytest.raises(KeyError):
        wg.idx(WeylElement(rs, misses[-1]))


def test_a_cold_idx_sorts_only_the_level_it_reads():
    rs = build_root_system("E6")
    wg = WeylGroup(rs, 60_000)
    assert wg._levels == [None] * 37
    k = wg.idx(from_word(rs, [1, 3, 4]))
    assert wg.word(k) == (1, 3, 4)
    assert [n for n, lv in enumerate(wg._levels) if lv is not None] == [3]
    keys, ids = wg._levels[3]
    assert list(keys) == sorted(keys) and sorted(ids) == list(range(wg.starts[3], wg.starts[4]))


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4", "E6"])
def test_covers_on_demand_match_the_whole_table_build(cartan_type):
    # the mapping read in any order, each list filled on its first read,
    # against the whole table built in index order; a fresh group read in
    # index order fills each list from one already filled
    wg = WeylGroup(build_root_system(cartan_type), 60_000)
    table = lower_covers_table(wg)
    order = list(range(wg.size))
    random.Random(wg.size).shuffle(order)
    assert all(wg.lower_covers[v] == table[v] for v in order)
    assert wg.lower_covers == dict(enumerate(table))
    fresh = WeylGroup(wg.rs, 60_000)
    assert [fresh.lower_covers[v] for v in range(fresh.size)] == table


def test_racing_cover_reads_see_whole_lists():
    # eight threads read every entry of one cold mapping, each in its own
    # order, with the interpreter switching threads every microsecond: a
    # fill that stored a list before it was whole, or stored a wrong one,
    # would show in some read
    import sys
    import threading

    wg = WeylGroup(build_root_system("F4"), 60_000)
    table = lower_covers_table(wg)
    reads: list[list[bool]] = []

    def read(seed):
        order = list(range(wg.size))
        random.Random(seed).shuffle(order)
        reads.append([wg.lower_covers[v] == table[v] for v in order])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(reads) == 8 and all(all(r) for r in reads)
    assert wg.lower_covers == dict(enumerate(table))


def test_a_cold_e6_interval_fills_only_the_covers_it_walks():
    # [e, s1 s2] visits 4 elements, whose first-letter chains stay inside
    # it, so 4 of the 51,840 lists are filled; [e, s1 s3] adds 2 more
    rs = build_root_system("E6")
    wg = WeylGroup(rs, 60_000)
    assert wg.lower_covers == {0: []}
    iv = wg.interval_indices(0, wg.idx(from_word(rs, [1, 2])))
    assert [wg.word(z) for z in iv] == [(), (1,), (2,), (1, 2)]
    assert sorted(wg.lower_covers) == iv
    assert wg.below(wg.idx(from_word(rs, [1, 3]))) == [0, 1, 3, wg.idx(from_word(rs, [1, 3]))]
    assert len(wg.lower_covers) == 6


@pytest.mark.parametrize("cartan_type", ["E8", "E7", "A3xA2xA2xA1xA1"])
def test_level_steps_match_the_left_step_past_64_bits(cartan_type):
    # E8 has 120 positive roots, so the masks of a level are a list and each
    # step is added up from two runs of eight bytes
    rs = build_root_system(cartan_type)
    rnd = random.Random(8)
    masks = [from_word(rs, [rnd.randint(1, rs.rank) for _ in range(rnd.randint(0, 150))]).inversions
             for _ in range(200)] + [0, (1 << rs.num_positive) - 1]
    planes = _byte_planes(masks, rs.num_positive)
    for i, (bit, before, tables, (k, ascents)) in enumerate(_step_tables(rs)):
        words = _plane_words(planes, tables)
        assert isinstance(words, list) == (rs.num_positive > 64)
        assert before == sum(b for b, _ in rs._left_steps[:i])
        assert list(planes[k].translate(ascents)) == [0 if m & bit else 1 for m in masks]
        assert [w if m & bit else w | bit for m, w in zip(masks, words)] == [
            _left_step(rs, m, i) for m in masks]


def test_enumeration_cap_at_the_size_of_e6():
    # the cap is tested per new element, and against |W| once the middle
    # level is built: |W(E6)| = 51,840, cold and warm
    clear_caches()
    e6 = build_root_system("E6")
    with pytest.raises(CapExceededError, match=r"cap exceeded: \|W\(E6\)\| > 51839$"):
        WeylGroup.for_system(e6, 51_839)
    assert e6._group is None
    assert WeylGroup.for_system(e6, 51_840).size == 51_840
    with pytest.raises(CapExceededError, match=r"cap exceeded: \|W\(E6\)\| > 51839$"):
        WeylGroup.for_system(e6, 51_839)
    assert WeylGroup.for_system(e6, 51_840).size == 51_840


def test_a_cap_past_the_middle_level_fails_before_the_rows_grow():
    # once the middle level of E6 is built, past |W|/2 = 25,920 elements,
    # |W| = 51,840 is known; a cap between the two is refused there, before
    # each row grows to |W|, so the failed build peaks well below a full one
    # (2.9 against 4.6 MB)
    rs = build_root_system("E6")
    tracemalloc.start()
    try:
        WeylGroup(rs, 51_840)  # dropped at once
        full = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(CapExceededError, match=r"cap exceeded: \|W\(E6\)\| > 40000$"):
            WeylGroup(rs, 40_000)
        failed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failed < 0.75 * full


def test_an_e7_cap_fails_quickly_and_small():
    # |W(E7)| = 2,903,040: a cap of 100,000 stops the build at its 100,000th
    # element, within a few levels, holding tables of that size only
    clear_caches()
    e7 = build_root_system("E7")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=r"cap exceeded: \|W\(E7\)\| > 100000$"):
            WeylGroup.for_system(e7, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_caches()
    assert e7._group is None
    assert peak < 16 * 2**20


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_index_product_and_inverse_match_the_object_level(data):
    rs = build_root_system(data.draw(st.sampled_from(["A3", "B3", "G2", "A1xA1"])))
    wg = WeylGroup.for_system(rs)
    a = data.draw(st.integers(0, wg.size - 1))
    b = data.draw(st.integers(0, wg.size - 1))
    u, v = wg.elements[a], wg.elements[b]
    assert wg.elements[mul(wg, a, b)] == multiply(u, v)
    assert wg.elements[wg.inverses[a]] == inverse(u)


@pytest.mark.parametrize("cartan_type",
                         ["A4", "B3", "D4", "F4", "G2", "A1xA1", "A3xA2xA2xA1xA1", "E6"])
def test_inverses_match_the_first_letter_walk(cartan_type):
    # the one-pass recurrence on last letters against the walk down each
    # element's first-letter chain
    wg = WeylGroup.for_system(build_root_system(cartan_type), 60000)
    assert wg.inverses == inverses_by_walk(wg)


def test_longest_element_word():
    rs = build_root_system("A2")
    w0 = enumerate_elements(rs)[-1]
    assert to_reduced_word(w0) == (1, 2, 1)


def test_from_inversion_set_examples():
    rs = build_root_system("A2")
    assert from_inversion_set(rs, 0) == identity(rs)
    a1, a2 = rs.simple
    hi = rs.positive[-1]
    s1s2 = multiply(simple_reflection(rs, 1), simple_reflection(rs, 2))
    assert from_inversion_set(rs, [a1, hi]) == s1s2
    with pytest.raises(NotAnInversionSetError, match="not an inversion set"):
        from_inversion_set(rs, [a1, a2])
    with pytest.raises(ValueError):
        from_inversion_set(rs, [0])  # a negative root index


@pytest.mark.parametrize("idx", [-1, 99])
def test_from_inversion_set_rejects_a_root_index_out_of_range(idx):
    # as reflection and apply do: a ValueError that names the index, not a
    # KeyError or IndexError from the root tables
    rs = build_root_system("A2")
    with pytest.raises(ValueError, match=f"root index {idx} out of range for A2"):
        from_inversion_set(rs, [idx])


@pytest.mark.parametrize("cartan_type", ["A3", "B2", "G2"])
def test_inversion_set_round_trip(cartan_type):
    rs = build_root_system(cartan_type)
    for w in enumerate_elements(rs):
        assert from_inversion_set(rs, w.inversions) == w


def test_from_inversion_set_matches_biconvexity():
    # every mask, against naive closure under root addition
    for cartan_type in ("A3", "B3", "G2"):
        rs = build_root_system(cartan_type)
        for mask in range(1 << rs.num_positive):
            expected = is_biconvex(rs, mask)
            try:
                w = from_inversion_set(rs, mask)
            except NotAnInversionSetError:
                assert not expected
            else:
                assert expected
                assert w.inversions == mask


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_group_laws_sampled(data):
    rs = build_root_system("B3")
    elements = enumerate_elements(rs)
    u = data.draw(st.sampled_from(elements))
    v = data.draw(st.sampled_from(elements))
    w = data.draw(st.sampled_from(elements))
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
    assert inverse(inverse(u)) == u
    assert inverse(u).length == u.length
    assert multiply(u, identity(rs)) == u
    for r in range(len(rs.roots)):
        assert apply(multiply(u, v), r) == apply(u, apply(v, r))


@pytest.mark.parametrize("cartan_type", ["A3", "B2"])
def test_length_changes_by_one_under_simple_multiplication(cartan_type):
    rs = build_root_system(cartan_type)
    for w in enumerate_elements(rs):
        for i in range(1, rs.rank + 1):
            ws = multiply(w, simple_reflection(rs, i))
            assert abs(ws.length - w.length) == 1


def test_bruhat_examples():
    rs = build_root_system("A2")
    e = identity(rs)
    s1 = simple_reflection(rs, 1)
    s2 = simple_reflection(rs, 2)
    s1s2 = multiply(s1, s2)
    for w in enumerate_elements(rs):
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w)
    assert bruhat_leq(s1, s1s2)
    assert not bruhat_leq(s2, s1)


@pytest.mark.parametrize("cartan_type", ["A2", "B2"])
def test_bruhat_differential_small(cartan_type):
    rs = build_root_system(cartan_type)
    wg = WeylGroup.for_system(rs)
    for a, u in enumerate(wg.elements):
        for b, v in enumerate(wg.elements):
            fast = bruhat_leq(u, v)
            assert fast == wg.leq_idx(a, b)
            assert fast == bruhat_leq_by_reflection_closure(u, v)


@pytest.mark.parametrize("cartan_type", ["A3", "G2"])
def test_interval_indices_match_a_scan_of_the_whole_group(cartan_type):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    for b in range(wg.size):
        assert list(wg.below(b)) == [z for z in range(wg.size) if wg.leq_idx(z, b)]
        for a in range(wg.size):
            assert wg.interval_indices(a, b) == [
                z for z in range(wg.size) if wg.leq_idx(a, z) and wg.leq_idx(z, b)]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_interval_indices_and_lower_covers_match_reflection_closure(data):
    wg = WeylGroup.for_system(build_root_system(data.draw(st.sampled_from(["A4", "B3", "G2", "F4"]))))
    closure = _reflection_closure_downsets(wg)
    b = data.draw(st.integers(0, wg.size - 1))
    below_b = [z for z in range(wg.size) if closure[b] >> z & 1]
    # half the bottoms are drawn below b, so most intervals are not empty
    a = data.draw(st.one_of(st.sampled_from(below_b), st.integers(0, wg.size - 1)))
    assert wg.interval_indices(a, b) == [z for z in below_b if closure[z] >> a & 1]
    for y in (a, b):
        assert sorted(wg.lower_covers[y]) == [
            z for z in range(wg.size) if closure[y] >> z & 1 and wg.lengths[z] == wg.lengths[y] - 1]


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "C3", "D4", "G2", "F4", "A1xA2"])
def test_lower_covers_match_object_level_covers(cartan_type):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    for v, z in enumerate(wg.elements):
        assert sorted(wg.lower_covers[v]) == sorted(wg.idx(u) for u in covers(z))


def _below_masks(wg):
    """wg.below(b) as a bit mask over indices, for every b."""
    return [sum(1 << z for z in wg.below(b)) for b in range(wg.size)]


@pytest.mark.parametrize("cartan_type", ["A4", "B4", "C3", "D4", "D5", "F4", "G2", "A2xB2"])
def test_downsets_match_reflection_closure(cartan_type):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    closure = _reflection_closure_downsets(wg)
    assert cover_downsets(wg) == closure
    assert _below_masks(wg) == closure


@pytest.mark.parametrize("cartan_type", ["A5", "B4", "D4"])
def test_downsets_match_lifting_recurrence(cartan_type):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    lifting = lifting_downsets(wg)
    assert cover_downsets(wg) == lifting
    assert _below_masks(wg) == lifting


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4"])
def test_leq_idx_matches_reflection_closure_on_every_pair(cartan_type):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    closure = _reflection_closure_downsets(wg)
    leq, masks = wg.leq_idx, wg.masks
    for b, m in enumerate(closure):
        assert [leq(a, b) for a in range(wg.size)] == [bool(m >> a & 1) for a in range(wg.size)]
        # the weak-order accept of the scans: I(a) inside I(b) gives a <= b
        assert all(m >> a & 1 for a in range(wg.size) if masks[a] & ~masks[b] == 0)


def test_leq_idx_matches_reflection_moves_on_sampled_e6_pairs():
    # the down-closure of b under the reflection moves of covers(), for short b,
    # against the lifting test on all of it and on random bottoms from all of W(E6)
    rs = build_root_system("E6")
    wg = WeylGroup.for_system(rs, 60_000)
    rnd = random.Random(6)
    tops = [b for b in range(wg.size) if 3 <= wg.lengths[b] <= 6]
    for b in rnd.sample(tops, 20):
        seen, stack = {wg.masks[b]}, [from_word(rs, wg.word(b))]
        while stack:
            for c in covers(stack.pop()):
                if c.inversions not in seen:
                    seen.add(c.inversions)
                    stack.append(c)
        down = sorted(map(mask_index(wg).__getitem__, seen))
        assert wg.below(b) == down
        assert all(wg.leq_idx(a, b) for a in down)
        for a in rnd.sample(range(wg.size), 400):
            assert wg.leq_idx(a, b) == (wg.masks[a] in seen)


def test_covers():
    rs = build_root_system("A2")
    w0 = from_word(rs, [1, 2, 1])
    names = sorted(format_word(u) for u in covers(w0))
    assert names == ["1 2", "2 1"]
    assert covers(identity(rs)) == []


def test_interval_shapes():
    rs = build_root_system("A2")
    e = identity(rs)
    s1 = simple_reflection(rs, 1)
    two_chain = interval(e, s1)
    assert two_chain.size == 2 and two_chain.rank_span == 1
    full = interval(e, from_word(rs, [1, 2, 1]))
    assert full.size == 6
    assert [z.length - full.bottom.length for z in full.elements] == [0, 1, 1, 2, 2, 3]
    assert full.rank_span == 3
    with pytest.raises(NotComparableError, match="not comparable"):
        interval(s1, simple_reflection(rs, 2))


@pytest.mark.parametrize("cartan_type", ["A3", "B2"])
def test_small_rank_intervals(cartan_type):
    rs = build_root_system(cartan_type)
    wg = WeylGroup.for_system(rs)
    for a in range(wg.size):
        for b in range(wg.size):
            gap = wg.lengths[b] - wg.lengths[a]
            if not wg.leq_idx(a, b) or gap not in (1, 2):
                continue
            iv = interval(wg.elements[a], wg.elements[b])
            if gap == 1:
                assert iv.size == 2
            else:
                assert iv.size == 4  # every rank 2 interval is a diamond


def test_intervals_are_graded():
    # every non-extreme element has both an up-cover and a down-cover
    # inside the interval, so all maximal chains step through every rank
    rs = build_root_system("A3")
    wg = WeylGroup.for_system(rs)
    checked = 0
    for a in range(wg.size):
        for b in range(wg.size):
            if not wg.leq_idx(a, b) or wg.lengths[b] - wg.lengths[a] != 3:
                continue
            iv = interval(wg.elements[a], wg.elements[b])
            ups = {x for x, _ in iv.cover_pairs}
            downs = {y for _, y in iv.cover_pairs}
            for k, z in enumerate(iv.elements):
                if z != iv.top:
                    assert k in ups
                if z != iv.bottom:
                    assert k in downs
            checked += 1
    assert checked > 0


def test_interval_cover_relation_matches_global_covers():
    # on every interval, the cover pairs read off the lower-cover lists equal
    # the quadratic definition (z <= z2, one length apart), in its order,
    # and the object-level covers() restricted to the interval
    for cartan_type in ("A3", "B3", "G2"):
        wg = WeylGroup.for_system(build_root_system(cartan_type))
        covered = [{wg.idx(u) for u in covers(z)} for z in wg.elements]
        for a in range(wg.size):
            for b in range(wg.size):
                if not wg.leq_idx(a, b):
                    continue
                iv = interval(wg.elements[a], wg.elements[b])
                idxs = [wg.idx(z) for z in iv.elements]
                quadratic = [
                    (k, k2) for k, z in enumerate(idxs) for k2, z2 in enumerate(idxs)
                    if wg.leq_idx(z, z2) and wg.lengths[z2] == wg.lengths[z] + 1]
                by_covers = {(k, k2) for k, z in enumerate(idxs)
                             for k2, z2 in enumerate(idxs) if z in covered[z2]}
                assert list(iv.cover_pairs) == quadratic
                assert set(iv.cover_pairs) == by_covers


def test_interval_isomorphism():
    rs = build_root_system("A2")
    e = identity(rs)
    s1 = simple_reflection(rs, 1)
    chain = interval(e, s1)
    diamond = interval(e, from_word(rs, [1, 2]))
    assert interval_isomorphic(chain, chain)
    assert not interval_isomorphic(chain, diamond)

    a3 = build_root_system("A3")
    i1 = interval(identity(a3), parse_element(a3, "3412"))
    i2 = interval(identity(a3), parse_element(a3, "4231"))
    assert not interval_isomorphic(i1, i2)
    assert interval_isomorphic(i1, i1) and interval_isomorphic(i2, i2)


def test_interval_isomorphism_is_label_independent():
    rs = build_root_system("B2")
    w0 = enumerate_elements(rs)[-1]
    iv = interval(identity(rs), w0)
    # rebuild the same poset with elements listed in a scrambled order
    order = list(range(iv.size))[::-1]
    relabel = {old: new for new, old in enumerate(order)}
    scrambled = BruhatInterval(
        iv.bottom, iv.top,
        [iv.elements[k] for k in order],
        [(relabel[a], relabel[b]) for a, b in iv.cover_pairs],
    )
    assert interval_isomorphic(iv, scrambled)
    assert interval_isomorphic(scrambled, iv)


def test_isomorphic_intervals_across_groups():
    # [e, s1 s2] in A2 and a rank-2 interval in B2 are both diamonds
    a2 = build_root_system("A2")
    b2 = build_root_system("B2")
    d1 = interval(identity(a2), from_word(a2, [1, 2]))
    d2 = interval(identity(b2), from_word(b2, [2, 1]))
    assert interval_isomorphic(d1, d2)


def _small_intervals(max_size: int = 8) -> list[BruhatInterval]:
    out = []
    for cartan_type in ("A3", "B2", "G2"):
        wg = WeylGroup.for_system(build_root_system(cartan_type))
        for a in range(wg.size):
            for b in range(wg.size):
                if wg.leq_idx(a, b) and len(wg.interval_indices(a, b)) <= max_size:
                    out.append(interval(wg.elements[a], wg.elements[b]))
    return out


def _scrambled(iv: BruhatInterval, seed: int) -> BruhatInterval:
    """The same poset with its elements listed in a shuffled order."""
    order = list(range(iv.size))
    random.Random(seed).shuffle(order)
    relabel = {old: new for new, old in enumerate(order)}
    return BruhatInterval(
        iv.bottom, iv.top, [iv.elements[k] for k in order],
        [(relabel[a], relabel[b]) for a, b in iv.cover_pairs])


def test_interval_isomorphism_matches_brute_force():
    # every pair of intervals of at most 8 elements in A3, B2 and G2,
    # within and across groups, against a search over bijections
    intervals = _small_intervals()
    isomorphic = 0
    for k, i1 in enumerate(intervals):
        for i2 in intervals[k:]:
            got = interval_isomorphic(i1, i2)
            assert got == brute_force_isomorphic(i1, i2), (i1, i2)
            isomorphic += got
    assert isomorphic > len(intervals)  # more than the reflexive pairs

    # a hand-built interval listed in a scrambled order, with its colours
    # refined in that order, meets every interval again
    b2 = build_root_system("B2")
    scrambled = _scrambled(interval(identity(b2), enumerate_elements(b2)[-1]), seed=7)
    matches = 0
    for iv in intervals:
        got = interval_isomorphic(scrambled, iv)
        assert got == brute_force_isomorphic(scrambled, iv)
        assert got == interval_isomorphic(iv, scrambled)
        matches += got
    assert matches > 1  # B2's [e, w0] and G2's intervals of rank 4


def test_interval_isomorphism_separates_what_refinement_cannot():
    # in [1324, 3412] ranks 1 and 2 form an 8-cycle; rewired into two
    # 4-cycles every element keeps its rank and degrees, so the colours
    # agree and only the matcher can tell the two posets apart
    a3 = build_root_system("A3")
    iv = interval(parse_element(a3, "1324"), parse_element(a3, "3412"))
    assert [z.length for z in iv.elements] == [1, 2, 2, 2, 2, 3, 3, 3, 3, 4]
    outer = [(a, b) for a, b in iv.cover_pairs if a == 0 or b == 9]
    rewired = BruhatInterval(
        iv.bottom, iv.top, iv.elements,
        outer + [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8)])
    assert not interval_isomorphic(iv, rewired)
    assert not brute_force_isomorphic(iv, rewired)
    assert interval_isomorphic(_scrambled(rewired, seed=3), rewired)
    assert brute_force_isomorphic(_scrambled(rewired, seed=3), rewired)


def test_enumeration_cap():
    clear_caches()
    rs = build_root_system("B3")
    with pytest.raises(CapExceededError, match="cap exceeded"):
        enumerate_elements(rs, cap=10)
    # one short of |W(B3)| = 48, cold and then warm
    with pytest.raises(CapExceededError, match="cap exceeded"):
        enumerate_elements(rs, cap=47)
    assert len(enumerate_elements(rs, cap=48)) == 48
    with pytest.raises(CapExceededError, match="cap exceeded"):
        enumerate_elements(rs, cap=47)


def test_element_objects_are_built_only_at_the_edges():
    clear_caches()
    a2, b3 = build_root_system("A2"), build_root_system("B3")
    wg = WeylGroup.for_system(b3)
    assert [wg.lower_covers[v] for v in range(wg.size)] == lower_covers_table(wg)
    assert wg.below(wg.size - 1) == list(range(wg.size))
    assert str(_table_for(wg).polynomial(0, wg.size - 1)) == "1"
    for emb in enumerate_embeddings(a2, b3):
        for _ in interval_pattern_instances(emb):
            pass
    iv = interval(from_word(b3, [2]), from_word(b3, [1, 2, 3]))
    assert [format_word(z) for z in iv.elements] == ["2", "1 2", "2 3", "1 2 3"]
    # w0 = -1 pulls back to the longest element through every embedding
    w0, a2_w0 = from_inversion_set(b3, (1 << b3.num_positive) - 1), from_word(a2, [1, 2, 1])
    assert all(flatten(emb, w0) == a2_w0 for emb in enumerate_embeddings(a2, b3))
    assert not pattern_avoids(a2_w0, w0)
    assert pattern_avoids(a2_w0, from_word(b3, [1, 2, 3, 2, 1]))
    assert wg._elements is None and WeylGroup.for_system(a2)._elements is None
    assert wg.elements == [from_word(b3, wg.word(k)) for k in range(wg.size)]

    report, = verify_upper_ideal(["kl-nontrivial"], ["A3"])
    assert report.cases and not report.failures
    assert WeylGroup.for_system(build_root_system("A3"))._elements is None


def test_a_cold_d6_interval_keeps_no_down_sets():
    # interval(e, s1 s2) in D6 (23,040 elements) builds the group and its cover
    # lists, and nothing of size |W|^2; with one down-set mask per element the
    # query peaked at 41 MB traced
    clear_caches()
    d6 = build_root_system("D6")
    tracemalloc.start()
    try:
        iv = interval(identity(d6), from_word(d6, [1, 2]), cap=30_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_caches()
    assert [format_word(z) for z in iv.elements] == ["e", "1", "2", "1 2"]
    assert peak < 16 * 2**20


def test_one_line_round_trip():
    for cartan_type in ["A1", "A2", "A3", "A4"]:
        rs = build_root_system(cartan_type)
        for w in enumerate_elements(rs):
            assert parse_element(rs, one_line(w)) == w
            assert parse_element(rs, format_word(w)) == w
    assert one_line(identity(build_root_system("B2"))) is None


def _permutation_of_word(word, n):
    # w = s_i1 ... s_ik as functions, and w s_i swaps the letters at i, i+1
    perm = list(range(1, n + 1))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


def test_one_line_is_the_product_of_adjacent_transpositions():
    # and equals the notation read off the images of the simple roots
    for n in range(1, 6):
        rs = build_root_system(f"A{n}")
        for w in enumerate_elements(rs):
            perm = _permutation_of_word(to_reduced_word(w), n + 1)
            assert one_line(w) == "".join(map(str, perm))
            assert one_line(w) == one_line_by_coordinates(w)
    rnd = random.Random(3)
    for n in (9, 12):
        rs = build_root_system(f"A{n}")
        for _ in range(50):
            w = from_word(rs, [rnd.randint(1, n) for _ in range(rnd.randint(0, 60))])
            perm = _permutation_of_word(to_reduced_word(w), n + 1)
            assert one_line(w) == ",".join(map(str, perm))
            assert one_line(w) == one_line_by_coordinates(w)
            assert parse_element(rs, one_line(w)) == w


def test_parse_element_errors():
    rs = build_root_system("A3")
    with pytest.raises(ValueError):
        parse_element(rs, "3312")  # not a permutation
    with pytest.raises(ValueError):
        parse_element(rs, "5 1")  # bad simple index
    with pytest.raises(ValueError):
        parse_element(rs, "what")


@pytest.mark.parametrize("bits", [6, 36, 64, 65, 130])
def test_byte_planes_hold_each_byte_of_every_mask(bits):
    # past 64 bits the masks are packed eight bytes at a time; an iterator
    # of masks is read as a list would be
    rnd = random.Random(bits)
    masks = [rnd.getrandbits(bits) for _ in range(300)] + [(1 << bits) - 1, 0]
    width = (bits + 7) // 8
    expected = [bytes(m >> 8 * k & 255 for m in masks) for k in range(width)]
    assert _byte_planes(masks, bits) == expected
    assert _byte_planes(iter(masks), bits) == expected
    if bits <= 64:
        # a group's array('Q') of masks is read as a list would be, and is
        # left free to grow
        words = array("Q", masks)
        assert _byte_planes(words, bits) == expected
        words.append(0)


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 16, 20, 36])
def test_plane_sum_sums_the_weights_of_each_masks_set_bits(bits):
    # weights summing to at most 255 keep every sum in its own byte
    rnd = random.Random(bits)
    weights = [rnd.randrange(256 // bits) for _ in range(bits)]
    masks = [rnd.getrandbits(bits) for _ in range(300)] + [(1 << bits) - 1, 0]
    assert list(_plane_sum(_byte_planes(masks, bits), _plane_tables(weights))) == [
        sum(w for j, w in enumerate(weights) if m >> j & 1) for m in masks]
    assert _plane_sum(_byte_planes(masks, bits), _plane_tables([0] * bits)) == bytes(len(masks))


def test_plane_sum_refuses_weights_past_one_byte():
    planes = _byte_planes(range(512), 9)
    assert list(_plane_sum(planes, _plane_tables([1] * 8 + [247]))) == [
        bin(m & 255).count("1") + 247 * (m >> 8) for m in range(512)]
    with pytest.raises(InternalInvariantError, match="past one byte"):
        _plane_tables([1] * 8 + [248])


def test_group_planes_are_the_byte_planes_of_its_masks():
    wg = WeylGroup.for_system(build_root_system("E6"), 60000)
    assert wg.planes == [bytes(m >> 8 * k & 255 for m in wg.masks) for k in range(5)]
