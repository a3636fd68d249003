import gc
import random
import sys
import threading

import pytest

from helpers import (
    _reflection_closure_downsets,
    bruhat_leq_by_reflection_closure,
    column_by_point_reads,
    coset_lengths,
    cover_downsets,
    covers,
    interval,
    kl_defining_identity_holds,
    kl_identity_holds_on_columns,
    left_descents,
    lmult_left_descents,
    mask_index,
    mul,
    negatives,
    plain_kl_columns,
    raise_by_rmult,
    rmult_rows,
    stored_columns,
    uncut_candidates,
    word_image,
)
from weylpat.errors import (
    CapExceededError,
    GroupMismatchError,
    InternalInvariantError,
    NotComparableError,
)
from weylpat.harness.cli import main
from weylpat.kl import (
    KLPolynomial,
    _KLTable,
    _bits,
    _index_sets,
    _w0_conjugation,
    is_rationally_smooth,
    kl_polynomial,
    mu,
)
from weylpat.patterns import enumerate_embeddings
from weylpat.roots import build_root_system, clear_caches
from weylpat.weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylGroup,
    bruhat_leq,
    enumerate_elements,
    from_word,
    identity,
    inverse,
    parse_element,
)


def test_polynomial_type():
    one = KLPolynomial([1])
    assert str(one) == "1"
    assert one == 1
    assert one.degree == 0
    p = KLPolynomial([1, 1])
    assert str(p) == "1 + q"
    assert p.coefficient(1) == 1 and p.coefficient(5) == 0
    assert str(KLPolynomial([1, 0, 2])) == "1 + 2q^2"
    assert str(KLPolynomial([1, 2, 1])) == "1 + 2q + q^2"
    assert str(KLPolynomial([])) == "0"
    assert KLPolynomial([1, 1, 0]) == KLPolynomial([1, 1])
    assert p(1) == 2 and p(2) == 3


def test_trivial_values():
    a3 = build_root_system("A3")
    for w in enumerate_elements(a3):
        assert kl_polynomial(w, w) == 1


@pytest.mark.parametrize("cartan_type", ["A3", "B2", "G2", "B3"])
def test_small_gap_forces_one(cartan_type):
    rs = build_root_system(cartan_type)
    wg = WeylGroup.for_system(rs)
    for b in range(wg.size):
        for a in range(wg.size):
            if wg.leq_idx(a, b) and wg.lengths[b] - wg.lengths[a] <= 2:
                assert kl_polynomial(wg.elements[a], wg.elements[b]) == 1


def test_spot_values():
    a3 = build_root_system("A3")
    e = identity(a3)
    v = parse_element(a3, "3412")
    assert kl_polynomial(e, v) == KLPolynomial([1, 1])
    assert str(kl_polynomial(e, v)) == "1 + q"
    b2 = build_root_system("B2")
    w0 = enumerate_elements(b2)[-1]
    assert w0.length == 4
    assert kl_polynomial(identity(b2), w0) == 1


def test_not_comparable():
    a3 = build_root_system("A3")
    with pytest.raises(NotComparableError, match="not comparable"):
        kl_polynomial(parse_element(a3, "3412"), identity(a3))


def test_index_reads_decode_each_distinct_value_once(monkeypatch):
    from weylpat import kl

    wg = WeylGroup.for_system(build_root_system("B3"))
    table = _KLTable(wg)
    decoded = []
    real = kl._unpack
    monkeypatch.setattr(kl, "_unpack", lambda val, gap: decoded.append((val, gap)) or real(val, gap))
    polys = {(u, v): table.polynomial(u, v) for v in range(wg.size) for u in wg.below(v)}
    assert len(decoded) == len(set(decoded)) == len(table.decoded) < len(polys)
    assert all(p == kl_polynomial(wg.elements[u], wg.elements[v]) for (u, v), p in polys.items())
    with pytest.raises(NotComparableError, match="not comparable"):
        table.polynomial(wg.size - 1, 0)


@pytest.mark.parametrize("cartan_type", ["A4", "B3"])
def test_column_reads_match_point_reads(monkeypatch, cartan_type):
    # A4 relabels most columns through an orbit map; B3 through inversion alone
    from weylpat import kl

    wg = WeylGroup.for_system(build_root_system(cartan_type))
    table = _KLTable(wg)
    decoded = []
    real = kl._unpack
    monkeypatch.setattr(kl, "_unpack", lambda val, gap: decoded.append((val, gap)) or real(val, gap))
    lengths = wg.lengths
    for v in range(wg.size):
        column = {u: table._decode(p, lengths[v] - lengths[u]) for u, p in table._entries(v)}
        assert column == {u: table.polynomial(u, v) for u in wg.below(v)}
    assert len(decoded) == len(set(decoded)) == len(table.decoded)


@pytest.mark.parametrize("cartan_type", ["A3", "B2", "G2", "B3"])
def test_defining_identity_via_r_polynomials(cartan_type):
    # q^(l(v)-l(u)) P(u,v)(1/q) = sum R(u,z) P(z,v): together with the
    # degree bound this determines the KL table, so agreement with the
    # independent R recursion certifies the whole table
    rs = build_root_system(cartan_type)
    assert kl_defining_identity_holds(
        rs, lambda u, v: kl_polynomial(u, v).coefficients
    )


@pytest.mark.parametrize("cartan_type", ["A3", "B2", "G2", "B3"])
def test_degree_bound_and_constant_term(cartan_type):
    rs = build_root_system(cartan_type)
    wg = WeylGroup.for_system(rs)
    for b in range(wg.size):
        for a in range(wg.size):
            if not wg.leq_idx(a, b):
                continue
            p = kl_polynomial(wg.elements[a], wg.elements[b])
            assert p.coefficient(0) == 1
            assert all(c >= 0 for c in p.coefficients)
            gap = wg.lengths[b] - wg.lengths[a]
            if gap > 0:
                assert 2 * p.degree < gap


@pytest.mark.parametrize("cartan_type", ["A3", "B2", "G2"])
def test_inverse_symmetry(cartan_type):
    rs = build_root_system(cartan_type)
    elements = enumerate_elements(rs)
    for v in elements:
        for u in elements:
            if bruhat_leq(u, v):
                assert kl_polynomial(u, v) == kl_polynomial(inverse(u), inverse(v))


def test_descent_choice_independence_b2():
    rs = build_root_system("B2")
    wg = WeylGroup.for_system(rs)

    def max_descent(v_idx):
        return left_descents(wg.elements[v_idx])[-1] - 1

    alt = _KLTable(wg, descent=max_descent)
    ref = _KLTable(wg)
    for b in range(wg.size):
        alt.ensure_column(b)
        ref.ensure_column(b)
    # the same down-sets; ids follow the order values are first seen, so
    # compare the values themselves
    assert ({r: keys for r, (keys, _) in stored_columns(alt).items()}
            == {r: keys for r, (keys, _) in stored_columns(ref).items()})
    assert all(alt._entries(v) == ref._entries(v) for v in range(wg.size))


def _expected_descent(wg, table, v, extremal):
    """The left descent of v whose filled column sv has the fewest keys, by object-level data.

    Column sv holds the extremal set of rep(sv), as large as that of sv,
    since each orbit map carries one extremal set onto the other; with
    no such column filled, the smallest descent.
    """
    lmult = wg.lmult
    descents = [i - 1 for i in left_descents(wg.elements[v])]
    filled = [s for s in descents if table.start[table._orbit(lmult[s][v])[1]] >= 0]
    if not filled:
        return descents[0]
    return min(filled, key=lambda s: (len(extremal[lmult[s][v]]), s))


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4"])
def test_cheapest_descent_reads_only_filled_columns(cartan_type):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    extremal = _extremal_sets(wg)
    table = _KLTable(wg)
    # cold: the smallest descent, and the choice fills nothing
    for v in range(1, wg.size):
        assert table._cheapest_descent(v) == wg.first[v] - 1
    assert not stored_columns(table) and not table.keys
    # half filled, then full: the filled column sv with the fewest keys
    for stop in (wg.size // 2, wg.size):
        for v in range(stop):
            table.ensure_column(v)
        filled = len(table.keys)
        for v in range(1, wg.size):
            assert table._cheapest_descent(v) == _expected_descent(wg, table, v, extremal)
        assert len(table.keys) == filled
    # the full table takes another descent than the smallest somewhere
    assert any(table._cheapest_descent(v) != wg.first[v] - 1
               for v in range(1, wg.size))


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4"])
def test_default_descent_matches_the_smallest_descent(cartan_type, order):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    ref = _KLTable(wg, descent=lambda v: wg.first[v] - 1)
    for v in range(wg.size):
        ref.ensure_column(v)
    fill = list(range(wg.size))
    if order == "shuffled":
        random.Random(cartan_type).shuffle(fill)
    table = _KLTable(wg)
    for v in fill:
        table.ensure_column(v)
    # ids follow the order values are first seen, so compare the values
    assert all(table._entries(v) == ref._entries(v) for v in range(wg.size))


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "G2", "D4"])
def test_on_demand_columns_match_an_ascending_fill(cartan_type):
    rs = build_root_system(cartan_type)
    wg = WeylGroup.for_system(rs)
    ref = _KLTable(wg)
    for v in range(wg.size):
        ref.ensure_column(v)
    order = list(range(wg.size))
    random.Random(cartan_type).shuffle(order)
    scrambled = _KLTable(wg)
    for v in order[:10]:  # point queries first, each on a cold column
        scrambled.ensure_column(v)
    for v in order:
        scrambled.ensure_column(v)
    # ids follow the order values are first seen, so compare the values
    for v in range(wg.size):
        assert scrambled._entries(v) == ref._entries(v)
    # the keys of column v, relabelled from its representative, are
    # exactly the down-set of v
    for vi, v in enumerate(wg.elements):
        column = dict(ref._entries(vi))
        for ui, u in enumerate(wg.elements):
            assert (ui in column) == bruhat_leq_by_reflection_closure(u, v)


@pytest.mark.parametrize("cartan_type",
                         ["A4", "B3", "C3", "D4", "G2", "F4", "A1xA2", "A2xB2"])
def test_every_column_matches_the_plain_recursion(cartan_type):
    # the oracle fills every column by the recursion alone, so it checks
    # both symmetry identities the table stores its orbits by
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    oracle = plain_kl_columns(wg)
    table = _KLTable(wg)
    for vi in range(wg.size):
        assert dict(table._entries(vi)) == oracle[vi]


@pytest.mark.parametrize("cartan_type", ["A5", "B4", "D5", "F4", "G2"])
def test_bulk_reads_fill_the_columns_that_point_reads_fill(cartan_type):
    # every column of the full table against the fill that makes each read
    # through a _reader closure; A5 and D5 also flip reads by w0-conjugation,
    # where B4, F4 and G2 flip by inversion alone
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    table = _KLTable(wg)
    for v in range(wg.size):
        table.ensure_column(v)
    for r, col in stored_columns(table).items():
        assert col == column_by_point_reads(table, r)


def test_bulk_reads_match_point_reads_on_sampled_e6_columns():
    # cold columns of E6, each filled with the columns it reads, then refilled
    # with every candidate read made through _reader
    wg = WeylGroup.for_system(build_root_system("E6"), 60_000)
    table = _KLTable(wg)
    rnd = random.Random(33)
    for v in rnd.sample(range(wg.size), 24):
        assert table.ensure_column(v) == column_by_point_reads(table, table._orbit(v)[1])


def _descent_sets(wg):
    """(D_L(u), D_R(u)) of every element, 1-based, read off WeylElement objects."""
    return [(set(left_descents(el)), set(left_descents(inverse(el)))) for el in wg.elements]


def _extremal_sets(wg):
    """For each r, the ascending u <= r with D_L(u) >= D_L(r) and D_R(u) >= D_R(r).

    Bruhat order comes from the reflection-closure oracle.
    """
    down = _reflection_closure_downsets(wg)
    descents = _descent_sets(wg)
    return [[u for u in range(r + 1) if down[r] >> u & 1
             and descents[u][0] >= descents[r][0] and descents[u][1] >= descents[r][1]]
            for r in range(wg.size)]


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "G2", "F4", "A1xA2"])
def test_stored_keys_are_the_extremal_set(cartan_type):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    table = _KLTable(wg)
    for v in range(wg.size):
        table.ensure_column(v)
    extremal = _extremal_sets(wg)
    stored = stored_columns(table)
    assert stored
    for r, (keys, _) in stored.items():
        assert list(keys) == extremal[r]


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4", "G2"])
def test_parabolic_lengths_never_exceed_those_of_an_upper_element(cartan_type):
    # the cut's fields are the coset lengths found by peeling descents, and
    # on every pair u <= v each of u's is at most v's (Bjorner-Brenti, GTM
    # 231, Prop. 2.5.1), so the threshold masks of v hold all of D(v)
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    table = _KLTable(wg)
    peeled = coset_lengths(wg)
    assert len(table.fields) == 2 * wg.rs.rank
    assert [list(f[::-1]) for f in table.fields] == peeled
    down = cover_downsets(wg)
    for lengths in peeled:
        for v in range(wg.size):
            assert all(lengths[u] <= lengths[v] for u in range(v + 1) if down[v] >> u & 1)
    for v in range(wg.size):
        table._candidates(v)  # builds the threshold masks at v's values
        for field, at_most in zip(table.fields, table.at_most):
            assert down[v] & ~at_most[field[~v]] == 0
    for lengths, at_most in zip(peeled, table.at_most):
        for t, mask in at_most.items():
            assert mask == sum(1 << u for u in range(wg.size) if lengths[u] <= t)


@pytest.mark.parametrize("cartan_type", ["A5", "B4", "D5", "F4"])
def test_the_cut_fills_the_same_table_as_the_uncut_candidates(cartan_type):
    # keys, ids and the order in which values are interned all agree
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    cut, uncut = _KLTable(wg), _KLTable(wg)
    uncut._candidates = lambda v: uncut_candidates(uncut, v)
    for v in range(wg.size):
        cut.ensure_column(v)
        uncut.ensure_column(v)
    assert cut.values == uncut.values
    # the same columns, stored in the same order
    assert (cut.start, cut.count, cut.keys, cut.key_ids) == (
        uncut.start, uncut.count, uncut.keys, uncut.key_ids)
    assert any(uncut_candidates(cut, v) & ~cut._candidates(v) for v in range(wg.size))
    # v is the only candidate of its length
    for v in range(wg.size):
        assert [u for u in _bits(cut._candidates(v)) if wg.lengths[u] >= wg.lengths[v]] == [v]


RANK_17 = "x".join(["A1"] * 15) + "xB2"


@pytest.mark.parametrize("cartan_type, positions", [
    ("E6", [4, 5, 0, 1, 2, 3]), ("D4", [3, 2, 0, 1]), ("F4", [2, 1, 0, 3]),
    ("A3xA2xA2xA1xA1", [8, 7, 6, 5, 4, 3, 2, 1, 0]),
    (RANK_17, list(range(16, -1, -1))),
])
def test_descent_kernels_match_the_lmult_rows(cartan_type, positions):
    # the simple roots sit at permuted positive positions; rank 9 needs
    # descent masks wider than a byte, and rank 17 wider than two
    rs = build_root_system(cartan_type)
    assert [rs._left_steps[i][0].bit_length() - 1 for i in range(rs.rank)] == positions
    wg = WeylGroup.for_system(rs, 300_000)
    table = _KLTable(wg)
    left = lmult_left_descents(wg)
    assert list(table.left) == left
    assert list(table.right) == [left[k] for k in wg.inverses]

    def index_mask(flags):
        # the bit mask over element indices u with flags[u], in linear time
        return int("".join("1" if f else "0" for f in reversed(flags)), 2)

    for s in range(rs.rank):
        assert table.with_left[s] == index_mask([d >> s & 1 for d in left])
        assert table.with_right[s] == index_mask([d >> s & 1 for d in table.right])
    assert table.bits == [tuple(_bits(m)) for m in range(1 << rs.rank)]


def test_rank_seventeen_point_queries_read_the_high_descents():
    # A1^15xB2 (262,144 elements) has rank 17: s16 and s17, the simple
    # reflections of its B2 factor, have descent bits past two bytes, and
    # w0 is central, so s17 and s17 s16 represent their own orbits; every
    # element of the product is rationally smooth, so a read of column v
    # is 1 on u <= v and 0 elsewhere
    rs = build_root_system(RANK_17)
    wg = WeylGroup.for_system(rs, 300_000)
    table = _KLTable(wg)
    rng = random.Random(17)
    words = [[17], [16, 17], [17, 16], [17, 16, 17], [1, 17, 16], [3, 17, 16, 17, 9],
             list(range(1, 16)) + [16, 17, 16, 17]]
    tops = [wg.idx(from_word(rs, w)) for w in words]
    assert tops[-1] == wg.size - 1
    low = [wg.idx(from_word(rs, w))
           for w in ([], [16], [17], [16, 17], [17, 16], [16, 17, 16], [17, 16, 17])]
    sample = low + [wg.lmult[0][u] for u in low] + rng.sample(range(wg.size), 2000)
    for v in tops:
        read = table._reader(v)
        assert [read(u) for u in sample] == [1 if wg.leq_idx(u, v) else 0 for u in sample]
    e, top = from_word(rs, []), from_word(rs, [1, 17, 16, 17])
    assert kl_polynomial(e, top, cap=300_000) == kl_polynomial(e, e, cap=300_000)
    assert is_rationally_smooth(top, cap=300_000)
    with pytest.raises(NotComparableError):
        kl_polynomial(from_word(rs, [17]), from_word(rs, [16]), cap=300_000)


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4", "E6"])
def test_right_raise_through_inverses_matches_the_rmult_rows(cartan_type):
    # the table keeps no right multiplication rows: u s_t = (s_t u^-1)^-1, and
    # a point read raises u through the right descents of its column as a
    # left raise of u^-1; every element is read in the columns of tops with
    # two left and two right descents, against a raise by the rmult rows
    wg = WeylGroup.for_system(build_root_system(cartan_type), 60_000)
    table = _KLTable(wg)
    rmult = rmult_rows(wg)
    assert list(table.right) == [sum(1 << t for t, row in enumerate(rmult) if row[u] < u)
                                 for u in range(wg.size)]
    tops = [v for v in range(wg.size) if len(table.bits[table.left[v]]) == 2
            and len(table.bits[table.right[v]]) == 2 and table.left[v] != table.right[v]]
    for v in tops[:1] + tops[-1:]:
        read = table._reader(v)
        f, r = table._orbit(v)
        keys, ids = stored_columns(table)[r]
        value = dict(zip(keys, map(table.values.__getitem__, ids)))
        assert table.right[r]
        for u in range(wg.size):
            x = raise_by_rmult(table, rmult, u if f is None else f[u],
                               table.left[r], table.right[r])
            assert read(u) == value.get(x, 0)


@pytest.mark.parametrize("rank", range(1, 18))
def test_index_sets_hold_the_indices_of_each_descent(rank):
    rnd = random.Random(rank)
    descents = [rnd.getrandbits(rank) for _ in range(300)] + [(1 << rank) - 1, 0]
    assert _index_sets(descents, rank) == [
        sum(1 << u for u, d in enumerate(descents) if d >> s & 1) for s in range(rank)]


def test_rank_nine_table_counts_its_smooth_elements_and_meets_the_r_oracle():
    # A3xA2xA2xA1xA1 (3,456 elements) has rank 9: its descent masks need
    # more than a byte; v is rationally smooth exactly when its A3 part is
    # (22 of 24), so 22 * 6 * 6 * 2 * 2 = 3,168 are
    wg = WeylGroup.for_system(build_root_system("A3xA2xA2xA1xA1"))
    table = _KLTable(wg)
    smooth = [not any(table.ensure_column(v)[1]) for v in range(wg.size)]
    assert (wg.size, sum(smooth)) == (3456, 3168)
    # the defining identity with the R-polynomials on sampled columns of
    # both kinds, each with a down-set of 30 to 120 elements
    sizes = [len(wg.below(v)) for v in range(wg.size)]
    rng = random.Random(9)
    tops = []
    for kind in (False, True):
        tops += rng.sample([v for v in range(wg.size)
                            if smooth[v] == kind and 30 <= sizes[v] <= 120], 4)
    assert kl_identity_holds_on_columns(
        wg, tops, lambda u, v: table.polynomial(u, v).coefficients)


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4"])
def test_mu_lemma_against_the_plain_recursion(cartan_type):
    # mu(z,y) != 0 with a left descent s of y missing from z forces z = sy,
    # and with a right descent t missing, z = yt; so the odd-gap keys of
    # each representative with mu != 0 and its coatoms sy and yt are every
    # z with mu(z,y) != 0
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    descents = _descent_sets(wg)
    simple = {i: wg.lmult[i - 1][0] for i in range(1, wg.rs.rank + 1)}
    for y, mus in enumerate(_plain_mus(wg)):
        for z, m in mus.items():
            for s in descents[y][0] - descents[z][0]:
                assert z == mul(wg, simple[s], y) and m == 1
            for t in descents[y][1] - descents[z][1]:
                assert z == mul(wg, y, simple[t]) and m == 1


def _plain_mus(wg):
    """mus[y] = {z: mu(z,y)} over the z with mu(z,y) != 0, from the plain recursion."""
    oracle = plain_kl_columns(wg)
    lengths = wg.lengths
    mus = []
    for y in range(wg.size):
        mus.append({})
        for z, p in oracle[y].items():
            gap = lengths[y] - lengths[z]
            if gap % 2 and (m := p >> (16 * (gap // 2)) & 0xFFFF):
                mus[y][z] = m
    return mus


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4", "A1xA2"])
def test_mu_terms_read_off_the_column_match_the_plain_recursion(cartan_type):
    # the terms a fill of v = sy subtracts are read off the stored column of
    # y's representative: for every y and every s they must be the z with
    # mu(z,y) != 0 and sz < z of the recursion that fills every column alone,
    # flips and all (A4 and A1xA2 flip by w0-conjugation too)
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    table = _KLTable(wg)
    for y, mus in enumerate(_plain_mus(wg)):
        table.ensure_column(y)
        for s, row in enumerate(wg.lmult):
            assert dict(table._mu_terms(y, s)) == {z: m for z, m in mus.items() if row[z] < z}


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4"])
def test_mu_list_is_the_odd_gap_keys_then_the_sorted_coatoms(cartan_type):
    # the terms are read off the stored column when a fill needs them and
    # nothing of them is kept; in the frame of the representative r they
    # must be the definition rebuilt from the decoded column, in the same
    # order: the keys z with odd gap and mu(z,r) != 0 ascending, then the
    # coatoms sr and rt ascending with mu 1, each flipped into the frame of y
    # and kept when sz < z, so a fill interns its values in that order
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    table = _KLTable(wg)
    table.ensure_column(0)
    gc.collect()
    tracked = len(gc.get_objects())
    for v in range(wg.size):
        table.ensure_column(v)
    # the full fill leaves no object per column behind: the store, the
    # counts and the value list grow in place
    gc.collect()
    assert len(gc.get_objects()) - tracked < 5 < len(stored_columns(table))
    simple = [wg.lmult[i][0] for i in range(wg.rs.rank)]
    lengths = wg.lengths
    expected = {}
    for r, (keys, _) in stored_columns(table).items():
        keys = set(keys)
        terms = expected[r] = []
        for z in wg.below(r):
            gap = lengths[r] - lengths[z]
            if z in keys and gap % 2 and (m := table.polynomial(z, r).coefficient(gap // 2)):
                terms.append((z, m))
        coatoms = {y for y in (wg.lmult[s][r] for s in range(wg.rs.rank)) if y < r}
        coatoms.update(y for y in (mul(wg, r, t) for t in simple) if y < r)
        terms += [(z, 1) for z in sorted(coatoms)]
    for y in range(wg.size):
        f, r = table._orbit(y)
        flipped = [(z if f is None else f[z], m) for z, m in expected[r]]
        for s, row in enumerate(wg.lmult):
            assert table._mu_terms(y, s) == [(z, m) for z, m in flipped if row[z] < z]


@pytest.mark.parametrize("cartan_type", ["A4", "B3"])
def test_incomparable_pairs_miss_every_key(cartan_type):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    down = _reflection_closure_downsets(wg)
    table = _KLTable(wg)
    for v in range(wg.size):
        read = table._reader(v)
        for u in range(wg.size):
            if down[v] >> u & 1:
                assert read(u)
            else:
                # u raises to no key of v's representative
                assert read(u) == 0
                with pytest.raises(NotComparableError, match="not comparable"):
                    table.polynomial(u, v)


@pytest.mark.parametrize("cartan_type, central",
                         [("B3", True), ("F4", True), ("G2", True),
                          ("A4", False), ("D5", False), ("A1xA2", False)])
def test_orbit_maps_are_commuting_involutions(cartan_type, central):
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    inv, conj = wg.inverses, _w0_conjugation(wg)
    w0 = wg.size - 1
    assert wg.lengths[w0] == max(wg.lengths)
    for k in range(wg.size):
        assert inv[inv[k]] == k and conj[conj[k]] == k
        assert inv[conj[k]] == conj[inv[k]]
        assert wg.lengths[inv[k]] == wg.lengths[conj[k]] == wg.lengths[k]
        # conj is conjugation by w0, checked against the group product
        assert conj[k] == mul(wg, w0, mul(wg, k, w0))
    for fixed in (0, w0):
        assert inv[fixed] == fixed and conj[fixed] == fixed
    # w0 is central exactly when conjugation is the identity, and then the
    # table keeps no conjugation list: every orbit code picks the identity
    # or inversion
    assert (conj == list(range(wg.size))) == central
    table = _KLTable(wg)
    assert not hasattr(table, "conj") and table.maps[:2] == (None, inv)
    assert (len(table.maps) == 2) == (max(table.code) < 2) == central


@pytest.mark.parametrize("cartan_type, central",
                         [("A4", False), ("D5", False), ("E6", False), ("A2xB2", False),
                          ("A1", True), ("B3", True), ("F4", True), ("G2", True)])
def test_w0_conjugation_relabels_simple_roots_as_minus_w0(cartan_type, central):
    # w0 s_i w0 = s_sigma(i) with -w0(a_i) = a_sigma(i), read off the root
    # permutation of w0 built from its word, not off the lmult tables
    rs = build_root_system(cartan_type)
    wg = WeylGroup.for_system(rs, 60_000)
    conj = _w0_conjugation(wg)
    w0 = word_image(rs, wg.word(wg.size - 1))
    neg = negatives(rs)
    sigma = [rs.simple.index(neg[w0[a]]) for a in rs.simple]
    assert sorted(sigma) == list(range(rs.rank))
    assert (sigma == list(range(rs.rank))) == central
    for i in range(rs.rank):
        assert wg.word(conj[wg.lmult[i][0]]) == (sigma[i] + 1,)
    if wg.size <= 2000:
        # every element: w0 s_i1 ... s_ik w0 = s_sigma(i1) ... s_sigma(ik)
        index = mask_index(wg)
        for k in range(wg.size):
            relabelled = from_word(rs, [sigma[i - 1] + 1 for i in wg.word(k)])
            assert conj[k] == index[relabelled.inversions]


def test_full_fill_stores_one_column_per_orbit():
    wg = WeylGroup.for_system(build_root_system("A5"))
    table = _KLTable(wg)
    for v in range(wg.size):
        table.ensure_column(v)
    inv, conj = wg.inverses, _w0_conjugation(wg)
    orbits = {frozenset((k, inv[k], conj[k], inv[conj[k]])) for k in range(wg.size)}
    stored = list(stored_columns(table))
    assert stored == sorted(min(orbit) for orbit in orbits)
    assert len(stored) < wg.size // 2


def test_orbit_representatives_are_the_groups_own_ints():
    # the table keeps one byte per element for its orbit maps and no int of
    # its own: a representative other than v is read out of the inverses or
    # the w0-conjugation list, whose int objects are those every lmult row
    # holds for its index; A6 has indices past the small-int cache
    wg = WeylGroup.for_system(build_root_system("A6"))
    table = _KLTable(wg)
    for v in range(wg.size):
        table.ensure_column(v)
    assert type(table.code) is bytearray and len(table.code) == wg.size
    reps = [table._orbit(v)[1] for v in range(wg.size)]
    assert reps == [min(v, inv, c, inv_c) for v, inv, c, inv_c in zip(
        range(wg.size), wg.inverses, _w0_conjugation(wg),
        map(wg.inverses.__getitem__, _w0_conjugation(wg)))]
    assert any(r > 256 for r in reps)
    moved = [r for v, r in enumerate(reps) if r != v]
    assert moved and all(r is row[row[r]] for row in wg.lmult for r in moved)


@pytest.mark.parametrize("cartan_type", ["A4", "B3", "D4", "F4", "E6"])
def test_orbit_codes_pick_the_least_image(cartan_type):
    # code[v] indexes (identity, inversion, w0-conjugation, both), the first
    # of the four images of v that is least; the representative read through
    # it is that image, and the identity comes back as no flip
    wg = WeylGroup.for_system(build_root_system(cartan_type), 60_000)
    table = _KLTable(wg)
    inv, conj = wg.inverses, _w0_conjugation(wg)
    for v in range(wg.size):
        images = [v, inv[v], conj[v], inv[conj[v]]]
        f, r = table._orbit(v)
        assert r == min(images)
        assert table.code[v] == images.index(r)
        assert (f is None) == (table.code[v] == 0)
        assert f is None or (f[v], f[r]) == (r, v)


def test_kl_fill_never_builds_down_sets():
    # a group object of its own, so no other test has built its cover lists
    wg = WeylGroup(build_root_system("B3"), DEFAULT_ENUMERATION_CAP)
    table = _KLTable(wg)
    for v in reversed(range(wg.size)):
        table.ensure_column(v)
    # the group keeps no down-sets at all, and the fill reads no cover list
    assert not hasattr(wg, "downsets") and not hasattr(wg, "_downsets")
    assert wg.lower_covers == {0: []}


def test_cold_point_query_fills_few_columns(monkeypatch):
    a5 = build_root_system("A5")
    wg = WeylGroup.for_system(a5)
    table = _KLTable(wg)
    monkeypatch.setattr(wg, "_kl_table", table)
    w0 = wg.elements[-1]
    assert kl_polynomial(identity(a5), w0) == 1
    filled = len(stored_columns(table))
    assert table.start[wg.size - 1] >= 0
    assert filled < wg.size // 2


def test_incomparable_query_builds_no_element_list():
    # the error message labels u and v from their words, so a cold query
    # that fails leaves the group's WeylElement list unbuilt
    clear_caches()
    d5 = build_root_system("D5")
    with pytest.raises(NotComparableError, match="not comparable: 1 2 3 !<= e"):
        kl_polynomial(parse_element(d5, "1 2 3"), identity(d5))
    assert WeylGroup.for_system(d5)._elements is None


def test_mu():
    a3 = build_root_system("A3")
    e = identity(a3)
    v3412 = parse_element(a3, "3412")
    # covers have mu = 1
    for u in covers(v3412):
        assert mu(u, v3412) == 1
    # even gaps vanish, including the 1 + q pair with gap 4
    assert mu(e, v3412) == 0
    s2 = parse_element(a3, "2")
    assert mu(s2, parse_element(a3, "2 1 3")) == 0  # gap 2
    # odd gap reaching into the q coefficient
    u1324 = parse_element(a3, "1324")
    assert kl_polynomial(u1324, v3412) == KLPolynomial([1, 1])
    assert mu(u1324, v3412) == 1
    # a gap 3 pair with P = 1 has mu = 0
    assert mu(e, parse_element(a3, "1 2 1")) == 0


def test_rational_smoothness():
    a3 = build_root_system("A3")
    assert is_rationally_smooth(identity(a3))
    assert not is_rationally_smooth(parse_element(a3, "3412"))
    assert not is_rationally_smooth(parse_element(a3, "4231"))
    smooth = [w for w in enumerate_elements(a3) if is_rationally_smooth(w)]
    assert len(smooth) == 22


@pytest.mark.parametrize("cartan_type", ["B3", "G2", "D4", "A4"])
def test_rational_smoothness_matches_carrell_peterson(cartan_type):
    # Carrell-Peterson: v is rationally smooth iff the rank generating
    # function of [e, v] (the down-set counted by length) is palindromic
    wg = WeylGroup.for_system(build_root_system(cartan_type))
    for vi in range(wg.size):
        ranks = [0] * (wg.lengths[vi] + 1)
        for u in wg.below(vi):
            ranks[wg.lengths[u]] += 1
        assert is_rationally_smooth(wg.elements[vi]) == (ranks == ranks[::-1])


@pytest.mark.parametrize("bad, message", [
    (-1, "negative"),
    (2, "constant term"),
    (1 + (1 << 16), "degree bound"),  # 1 + q over a length gap of 2
])
def test_bad_packed_values_are_rejected_on_decode(monkeypatch, capsys, bad, message):
    a3 = build_root_system("A3")
    wg = WeylGroup.for_system(a3)
    u, v = identity(a3), parse_element(a3, "1 2")
    table = _KLTable(wg)
    # plant the value under a new id, past the bounds checked on interning;
    # s1 s2 is the smallest index of its orbit, so its column is its own, and
    # e is not one of its keys: it raises by s1 on the left, then by s2 on the
    # right, to the key s1 s2
    k = wg.idx(v)
    assert table._orbit(k) == (None, k)
    keys, ids = table.ensure_column(k)
    assert wg.idx(u) not in keys
    table.key_ids[table.start[k] + keys.index(k)] = len(table.values)
    table.values.append(bad)
    monkeypatch.setattr(wg, "_kl_table", table)
    with pytest.raises(InternalInvariantError, match=message):
        kl_polynomial(u, v)
    assert main(["kl", "A3", "--u", "e", "--v", "1 2"]) == 3
    assert message in capsys.readouterr().err


def test_full_a5_columns_are_index_arrays_of_value_ids():
    wg = WeylGroup.for_system(build_root_system("A5"))
    table = _KLTable(wg)
    for v in range(wg.size):
        table.ensure_column(v)
    assert table.values[0] == 1 and table.ids[1] == 0
    assert all(table.ids[p] == i for i, p in enumerate(table.values))
    extremal = _extremal_sets(wg)
    # 6 bytes an entry, in one pair of arrays for the whole table
    assert (table.keys.typecode, table.key_ids.typecode) == ("i", "H")
    assert table.keys.itemsize + table.key_ids.itemsize == 6
    assert len(table.keys) == len(table.key_ids) == sum(table.count)
    for r, (keys, ids) in stored_columns(table).items():
        assert list(keys) == extremal[r]  # ascending
    # the columns tile the store, each stored once
    spans = sorted((a, a + n) for a, n in zip(table.start, table.count) if a >= 0)
    assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
    assert spans[-1][1] == len(table.keys)


@pytest.mark.parametrize("val, message", [
    (1 - (1 << 16), "not positive"),  # 1 - q
    (1 - (1 << 16) + (1 << 32), "coefficient of at least"),  # 1 - q + q^2: q borrows
    (2, "constant term 2"),
    (2 << 16, "constant term 0"),
])
def test_values_out_of_bounds_are_rejected_on_interning(val, message):
    table = _KLTable(WeylGroup.for_system(build_root_system("A3")))
    with pytest.raises(InternalInvariantError, match=message):
        table.ids[val]
    assert table.values == [1]
    assert table.ids[1 + (73 << 16)] == 1  # the largest coefficient seen in S8


def test_a_table_holds_at_most_65536_distinct_values():
    table = _KLTable(WeylGroup.for_system(build_root_system("A3")))
    # id k is taken by the well-formed value 1 + b q + a q^2, (a, b) = divmod(k, 256)
    for k in range(1, 1 << 16):
        a, b = divmod(k, 256)
        assert table.ids[1 + (b << 16) + (a << 32)] == k
    assert len(table.values) == 1 << 16
    assert table.ids[1 + (5 << 16)] == 5  # a seen value keeps its id
    # a table past its ids is too large to answer, not a fault
    with pytest.raises(CapExceededError, match="more than 65536 distinct"):
        table.ids[1 + (1 << 48)]
    assert len(table.values) == 1 << 16


def test_the_cli_maps_a_table_past_its_ids_to_exit_2(monkeypatch, capsys):
    # S7's full table holds 98 distinct values, past a limit of 64
    clear_caches()
    monkeypatch.setattr("weylpat.kl._ID_LIMIT", 64)
    try:
        assert main(["verify", "type-a-smoothness", "7"]) == 2
    finally:
        clear_caches()
    assert capsys.readouterr().err == (
        "error: more than 64 distinct packed KL values in one table\n")


def test_threads_filling_one_table_agree_with_a_sequential_fill():
    from concurrent.futures import ThreadPoolExecutor

    wg = WeylGroup.for_system(build_root_system("A5"))
    ref = _KLTable(wg)
    for v in range(wg.size):
        ref.ensure_column(v)
    shared = _KLTable(wg)
    barrier = threading.Barrier(8)

    def fill(k):
        barrier.wait()
        # each thread walks all columns from its own offset, so fills race
        for v in range(wg.size):
            shared.ensure_column((v * 7 + k * wg.size // 8) % wg.size)

    # a short switch interval makes the threads interleave inside fills,
    # where the cut's threshold masks are built on first use
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(fill, range(8), timeout=120))  # re-raises what a thread raised
    finally:
        sys.setswitchinterval(interval)
    assert shared.at_most == ref.at_most
    assert [a < 0 for a in shared.start] == [a < 0 for a in ref.start]
    assert len(shared.keys) == len(shared.key_ids) == sum(shared.count) == len(ref.keys)
    assert sorted(shared.values) == sorted(ref.values)
    assert all(shared.ids[p] == i for i, p in enumerate(shared.values))
    for v in range(wg.size):
        assert shared._entries(v) == ref._entries(v)


def test_threads_racing_to_fill_one_column_store_it_once():
    # eight threads ask for the same cold column at once, so they race
    # through the same recursive fills; each column must be appended once,
    # so the store is as long as the sum of the counts and as long as that
    # of a sequential fill, whose columns it holds; the smallest-descent
    # rule makes the set of columns filled independent of the order
    from concurrent.futures import ThreadPoolExecutor

    wg = WeylGroup.for_system(build_root_system("D5"))
    top = wg.size - 1
    ref = _KLTable(wg, descent=lambda v: wg.first[v] - 1)
    ref.ensure_column(top)
    shared = _KLTable(wg, descent=lambda v: wg.first[v] - 1)
    barrier = threading.Barrier(8)

    def fill(_):
        barrier.wait()
        return shared.ensure_column(top)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            tops = list(pool.map(fill, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(shared.keys) == len(shared.key_ids) == sum(shared.count) == len(ref.keys)
    assert [a < 0 for a in shared.start] == [a < 0 for a in ref.start]
    columns = stored_columns(shared)
    for r, (keys, ids) in stored_columns(ref).items():
        assert columns[r][0] == keys
        assert [shared.values[i] for i in columns[r][1]] == [ref.values[i] for i in ids]
    assert all(t == tops[0] for t in tops)


def test_memoization_is_stable():
    a3 = build_root_system("A3")
    e = identity(a3)
    v = parse_element(a3, "3412")
    assert kl_polynomial(e, v) == kl_polynomial(e, v)
    assert kl_polynomial(e, v).coefficients == (1, 1)


def _memo_queries():
    """Queries that each fill one memo on first use and return plain data.

    Every query fetches its systems from the registry, so after
    clear_caches() the first callers also race to build them.
    """
    def group(t):
        return WeylGroup.for_system(build_root_system(t))

    def embedding(k):
        return enumerate_embeddings(build_root_system("A2"), build_root_system("A4"))[k]

    def kl_column(v):
        wg = group("B3")
        return [kl_polynomial(wg.elements[u], wg.elements[v]).coefficients
                for u in wg.below(v)]

    queries = []
    for t in ("B3", "A2", "A4"):
        queries += [
            lambda t=t: [w.inversions for w in enumerate_elements(build_root_system(t))],
            lambda t=t: [group(t).lower_covers[v] for v in range(group(t).size)],
            lambda t=t: [group(t).below(v) for v in range(group(t).size)],
            lambda t=t: group(t).inverses,
        ]
    queries.append(lambda: [e.simple_images for e in enumerate_embeddings(
        build_root_system("A2"), build_root_system("A4"))])
    queries += [lambda k=k: (embedding(k).flat(), embedding(k).coset_maps()) for k in range(20)]
    queries += [lambda v=v: kl_column(v) for v in reversed(range(48))]
    return queries


def test_concurrent_queries_are_consistent():
    # every memo is filled idempotently, so callers racing from a cleared
    # registry must see exactly what a sequential run produces; each
    # query is issued twice in a row, so two workers start it together
    from concurrent.futures import ThreadPoolExecutor

    queries = _memo_queries()
    clear_caches()
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda q: q(), [q for q in queries for _ in (0, 1)]))
    clear_caches()
    sequential = [q() for q in queries]
    assert concurrent[::2] == sequential
    assert concurrent[1::2] == sequential


def test_elements_of_another_group_are_rejected():
    # s1 s2 s1 of B3 has the inversion mask of an element of A3, so only a
    # group check tells the two apart at the index level
    a3, b3 = build_root_system("A3"), build_root_system("B3")
    u, v = identity(a3), from_word(b3, [1, 2, 1])
    assert WeylGroup.for_system(a3).find(v.inversions) is not None
    for query in (kl_polynomial, mu, interval):
        with pytest.raises(GroupMismatchError):
            query(u, v)
    with pytest.raises(GroupMismatchError):
        WeylGroup.for_system(a3).idx(v)


def test_doctests():
    import doctest

    import weylpat.kl
    import weylpat.weyl

    for module in (weylpat.kl, weylpat.weyl):
        assert doctest.testmod(module).failed == 0
