import random
import sys
from fractions import Fraction as Q

import pytest

from helpers import RationalSpan, digest, dot, negatives, reflect, root_index
from weylpat import roots
from weylpat.errors import InternalInvariantError, InvalidCartanType
from weylpat.roots import (
    RootSystem,
    _integer_roots,
    build_root_system,
    clear_caches,
)

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20,
    "B2": 8, "B3": 18, "B4": 32,
    "C3": 18, "C4": 32,
    "D4": 24, "G2": 12, "F4": 48,
}


@pytest.mark.parametrize("cartan_type,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(cartan_type, count):
    rs = build_root_system(cartan_type)
    assert len(rs.roots) == count
    assert rs.num_positive * 2 == count
    assert len(rs.simple) == rs.rank


def test_products():
    rs = build_root_system("A1xA1")
    assert len(rs.roots) == 4
    assert rs.ambient_dim == 2
    assert rs.rank == 2
    a, b = (rs.roots[i] for i in rs.simple)
    assert dot(a, b) == 0

    ab = build_root_system("A2xB2")
    assert len(ab.roots) == 14
    assert ab.rank == 4
    # factors sit in orthogonal coordinate blocks
    for i in ab.simple[:2]:
        for j in ab.simple[2:]:
            assert dot(ab.roots[i], ab.roots[j]) == 0
    assert ab.cartan_matrix[0][2] == 0 and ab.cartan_matrix[2][0] == 0


def test_aliases_and_interning():
    assert build_root_system("B1") is build_root_system("A1")
    assert build_root_system("C1") is build_root_system("A1")
    assert build_root_system("A2") is build_root_system("A2")
    # C2 keeps its own realization but has the B2 root count
    c2 = build_root_system("C2")
    assert c2.cartan_type == "C2"
    assert len(c2.roots) == 8
    long_count = sum(1 for r in c2.roots if dot(r, r) == 4)
    assert long_count == 4  # the +-2e_i roots


@pytest.mark.parametrize("bad", ["D1", "D2", "E5", "E9", "F3", "F5", "G3", "A0",
                                 "", "Q3", "A", "3A", "A2x", "xA2", "A2xxB2", "a2"])
def test_rejected_types(bad):
    with pytest.raises(InvalidCartanType):
        build_root_system(bad)


def test_exceptional_e_series():
    assert len(build_root_system("E6").roots) == 72
    assert len(build_root_system("E7").roots) == 126
    assert len(build_root_system("E8").roots) == 240


@pytest.mark.parametrize("cartan_type", sorted(ROOT_COUNTS))
def test_reflection_table_is_total_and_involutive(cartan_type):
    rs = build_root_system(cartan_type)
    n = len(rs.roots)
    neg = negatives(rs)
    for a in range(n):
        row = rs.reflection_table[a]
        assert sorted(row) == list(range(n))  # a permutation of the roots
        for b in range(n):
            assert rs.reflection_table[a][row[b]] == b
        assert row[a] == neg[a]


@pytest.mark.parametrize("cartan_type", sorted(ROOT_COUNTS))
def test_positive_roots_decompose_over_simples(cartan_type):
    rs = build_root_system(cartan_type)
    for i in rs.positive:
        assert all(c >= 0 for c in rs.simple_coords[i])
        assert rs.heights[i] >= 1
    # exactly the simple roots have height 1
    height_one = {i for i, h in enumerate(rs.heights) if h == 1}
    assert height_one == set(rs.simple)
    # halves match under negation
    neg = negatives(rs)
    for i in rs.positive:
        assert not rs.is_positive(neg[i])


def test_reflect_matches_table_and_formula():
    rs = build_root_system("A2")
    a1, a2 = rs.simple
    assert reflect(rs, a1, rs.roots[a1]) == rs.roots[negatives(rs)[a1]]
    # fixed hyperplane
    v = (Q(1), Q(1), Q(1))
    assert reflect(rs, a1, v) == v
    # s_1(a2) = a1 + a2
    expected = tuple(x + y for x, y in zip(rs.roots[a1], rs.roots[a2]))
    assert reflect(rs, a1, rs.roots[a2]) == expected
    assert rs.reflection_table[a1][a2] == root_index(rs)[expected]


def test_reflect_agrees_with_table_on_all_root_pairs():
    # the ambient Fraction reflection is an oracle for the integer table
    for cartan_type in sorted(ROOT_COUNTS) + ["E6", "A2xB2"]:
        rs = build_root_system(cartan_type)
        for a in range(len(rs.roots)):
            for b in range(len(rs.roots)):
                assert reflect(rs, a, rs.roots[b]) == rs.roots[rs.reflection_table[a][b]]


CARTAN_MATRICES = {
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "G2": ((2, -3), (-1, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}


@pytest.mark.parametrize("cartan_type,matrix", sorted(CARTAN_MATRICES.items()))
def test_cartan_matrices(cartan_type, matrix):
    rs = build_root_system(cartan_type)
    assert rs.cartan_matrix == matrix


@pytest.mark.parametrize("cartan_type", sorted(ROOT_COUNTS))
def test_cartan_matrix_shape_invariants(cartan_type):
    rs = build_root_system(cartan_type)
    cm = rs.cartan_matrix
    for i in range(rs.rank):
        assert cm[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert -3 <= cm[i][j] <= 0
                assert (cm[i][j] == 0) == (cm[j][i] == 0)
                assert cm[i][j] * cm[j][i] in (0, 1, 2, 3)


def test_deterministic_reconstruction():
    before = build_root_system("B3")
    snapshot = (before.roots, before.simple, before.positive, before.cartan_matrix)
    clear_caches()
    after = build_root_system("B3")
    assert after is not before
    assert (after.roots, after.simple, after.positive, after.cartan_matrix) == snapshot
    assert after == before


def test_no_module_keeps_a_functools_cache():
    # every memo hangs off an interned root system, so clear_caches() empties
    # them all; a module-level functools cache would outlive it
    import weylpat.harness.cli  # noqa: F401
    held = [f"{name}.{attr}" for name, mod in list(sys.modules.items())
            if name == "weylpat" or name.startswith("weylpat.")
            for attr, value in vars(mod).items() if hasattr(value, "cache_clear")]
    assert held == []


def test_byte_tables_sum_the_images_of_a_mask():
    # overlapping images are summed, not ORed: bits 0-2 under [1, 1, 3] give 5
    rnd = random.Random(20)
    for bits in range(1, 21):
        images = ([1, 1, 3] * 7)[:bits]
        tables = roots._byte_tables(images)
        assert [len(t) for t in tables] == [1 << min(8, bits - lo) for lo in range(0, bits, 8)]
        for m in [0, (1 << bits) - 1] + [rnd.getrandbits(bits) for _ in range(200)]:
            assert sum(t[m >> 8 * k & 255] for k, t in enumerate(tables)) == sum(
                image for j, image in enumerate(images) if m >> j & 1)
    assert roots._byte_tables([1, 1, 3])[0][7] == 5


def test_two_root_lengths_in_g2():
    rs = build_root_system("G2")
    norms = sorted({dot(r, r) for r in rs.roots})
    assert len(norms) == 2
    assert norms[1] == 3 * norms[0]


def test_rational_span():
    rs = build_root_system("A3")
    a1, a2, a3 = (rs.roots[i] for i in rs.simple)
    span = RationalSpan([a1, a2])
    assert span.contains(tuple(x + y for x, y in zip(a1, a2)))
    assert not span.contains(a3)
    coeffs = span.coefficients(tuple(2 * x + y for x, y in zip(a1, a2)))
    assert coeffs == (Q(2), Q(1))
    with pytest.raises(ValueError):
        RationalSpan([a1, tuple(-x for x in a1)])


# sha256 prefixes (helpers.digest) of each system's tables, recorded from
# the ambient Fraction construction that the integer one replaced: every
# root index, and so everything keyed on it, must stay where it was
TABLE_DIGESTS = {
    "A1": "c172e200fd035b11", "A2": "2787c91a9e649947", "A3": "bffd74ac8d287084",
    "A4": "f2939b85eafe810e", "A5": "03184b210e3fe249", "A6": "d02f9997767dd1ae",
    "A7": "5a0ee935479d49b7", "B2": "dca73d8c6dc7632d", "B3": "8eae90961b14deca",
    "B4": "35b8e47fa896e8f1", "B5": "800aa15fe93b559f", "C2": "dbe95cfae7807b7a",
    "C3": "f839b87d427b1b0d", "C4": "3c80998b6a9a1122", "C5": "0d19aa92369f50a8",
    "D4": "1a870582ad62cf8c", "D5": "9c9fe6a4a1f7676d", "D6": "e0ebd44f0b08c462",
    "E6": "73f0544119ff3386", "E7": "a65ee20e1d6533a7", "E8": "afbb2666aa284aea",
    "F4": "9cb94a105af5ad3e", "G2": "2b42782dd0c026fc", "A1xA1": "7691d83dcaf7cb5d",
    "A1xA1xA1": "abdacdbd8a81a8c8", "A1xA2": "e9c1b388cf549f31",
    "A1xB2": "b71b8a946b645b31", "A2xB2": "485c48d883e011a6",
}


@pytest.mark.parametrize("cartan_type", sorted(TABLE_DIGESTS))
def test_root_tables_match_pinned_digests(cartan_type):
    rs = build_root_system(cartan_type)
    tables = (
        tuple(tuple(str(x) for x in r) for r in rs.roots), rs.heights, rs.simple_coords,
        rs.positive, rs.simple, rs.reflection_table, rs.cartan_matrix,
        tuple(negatives(rs)),
    )
    assert digest(tables) == TABLE_DIGESTS[cartan_type]


def test_non_integer_cartan_quotient_is_rejected():
    # 2(a2, a1)/(a2, a2) = -4/8
    with pytest.raises(InvalidCartanType):
        RootSystem("X", [(1, 0), (-2, 2)], 2)


@pytest.mark.parametrize("simples", [
    [(1, 0), (-1, 0)],
    [(1, -1, 0), (0, 1, -1), (-1, 0, 1)],  # the A2 roots a1, a2, -(a1 + a2)
])
def test_dependent_simple_roots_are_rejected(simples):
    # their Cartan matrices are affine, so a closure would never end
    with pytest.raises(ValueError) as excinfo:
        RootSystem("X", simples, len(simples[0]))
    assert excinfo.type is ValueError


@pytest.mark.parametrize("cartan", [
    [[2, -2], [-2, 2]],  # affine A1
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2
])
def test_closure_of_an_infinite_type_stops(cartan):
    # the closure never ends on these matrices, so it must stop at the
    # root-count bound and raise
    with pytest.raises(InvalidCartanType, match="no finite type"):
        _integer_roots(cartan)


def test_root_count_bound_admits_a_product_past_e8():
    # E8xA1 has rank 9 and 242 roots, more than E8 and more than 2 * 9^2
    assert len(build_root_system("E8xA1").roots) == 242


def test_ambient_vectors_are_built_on_first_read():
    rs = RootSystem("G2", [(1, -1, 0), (-2, 1, 1)], 3)
    assert rs._roots is None
    first = rs.roots
    assert rs.roots is first
    assert first == build_root_system("G2").roots


@pytest.mark.parametrize("simples,dim,denominator", [
    # F4 from Fraction simples, and A1 from a doubled simple root over 2
    ([(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2))], 4, 1),
    ([(2,)], 1, 2),
])
def test_systems_compare_by_their_ambient_vectors(simples, dim, denominator):
    rs = RootSystem("F4" if dim == 4 else "A1", simples, dim, denominator)
    built = build_root_system(rs.cartan_type)
    assert rs == built and rs.roots == built.roots
    # the same type over other vectors is another system
    doubled = RootSystem(rs.cartan_type, [tuple(2 * x for x in s) for s in simples], dim,
                         denominator)
    assert doubled != built and doubled.roots != built.roots


def test_a_reflection_row_that_is_no_involution_is_rejected(monkeypatch):
    # plant a wrong step: s_1 fixes the first root it should move
    def planted(cartan):
        steps = _integer_roots(cartan)
        beta = next(b for b, images in steps.items() if images[0] != b)
        steps[beta] = (beta,) + steps[beta][1:]
        return steps

    monkeypatch.setattr(roots, "_integer_roots", planted)
    with pytest.raises(InternalInvariantError, match="not an involution"):
        RootSystem("A2", [(1, -1, 0), (0, 1, -1)], 3)
