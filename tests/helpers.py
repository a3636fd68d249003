"""Independent oracles used by the test suite.

Everything here recomputes answers through a different algorithm than
the implementation under test: brute force, exhaustive enumeration, or
a second classical recursion.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from array import array
from collections import deque
from collections.abc import Iterator, Sequence
from fractions import Fraction

from weylpat.errors import CapExceededError, InternalInvariantError, NotComparableError
from weylpat.kl import _bits
from weylpat.patterns import (
    SubsystemEmbedding,
    _cosets,
    embed_element,
    enumerate_embeddings,
    flatten,
)
from weylpat.roots import RootSystem
from weylpat.weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    _check_same_group,
    bruhat_leq,
    enumerate_elements,
    format_word,
    inverse,
    multiply,
    to_reduced_word,
)

Q = Fraction


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def classical_contains(pattern: tuple[int, ...], word: tuple[int, ...]) -> bool:
    """Classical pattern containment: some subsequence of word is
    order-isomorphic to pattern."""
    k = len(pattern)
    for idxs in itertools.combinations(range(len(word)), k):
        sub = [word[i] for i in idxs]
        if all(
            (sub[i] < sub[j]) == (pattern[i] < pattern[j])
            for i in range(k) for j in range(i + 1, k)
        ):
            return True
    return False


def flip_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by the longest element: reverse and complement."""
    n = len(p)
    return tuple(n + 1 - p[n - 1 - i] for i in range(n))


def perm_of(w: WeylElement) -> tuple[int, ...]:
    from weylpat.weyl import one_line

    ol = one_line(w)
    assert ol is not None
    return tuple(int(c) for c in ol) if "," not in ol else tuple(
        int(c) for c in ol.split(",")
    )


# ---------------------------------------------------------------------------
# roots and descents read off vectors and inversion masks
# ---------------------------------------------------------------------------

def dot(u, v) -> Fraction:
    """Exact Euclidean inner product of two vectors of one dimension."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def reflect(rs, alpha: int, v) -> tuple[Fraction, ...]:
    """The image of the ambient vector v under the reflection in root alpha,
    s_a(v) = v - 2(v, a)/(a, a) a, in exact arithmetic: the oracle of the
    integer reflection table."""
    a = rs.roots[alpha]
    c = 2 * dot(v, a) / dot(a, a)
    return tuple(x - c * y for x, y in zip(v, a))


def root_index(rs) -> dict:
    """The root index of each root vector of rs."""
    return {r: i for i, r in enumerate(rs.roots)}


def negatives(rs) -> list[int]:
    """negatives[i] is the root index of -roots[i], found by its vector."""
    index = root_index(rs)
    return [index[tuple(-x for x in r)] for r in rs.roots]


def left_descents(w: WeylElement) -> list[int]:
    """The 1-based i, ascending, with s_i w shorter than w: a_i inverted by w."""
    rs = w.group
    return [i for i in range(1, rs.rank + 1) if w.inversions & rs._left_steps[i - 1][0]]


# ---------------------------------------------------------------------------
# elements as permutations of root indices
# ---------------------------------------------------------------------------

def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation p after q: b -> p[q[b]]."""
    return tuple(p[b] for b in q)


def invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for a, b in enumerate(p):
        out[b] = a
    return tuple(out)


def word_image(rs, word) -> tuple[int, ...]:
    """The permutation of root indices that s_i1 ... s_ik induces, composed
    from the rows of ``rs.reflection_table`` left to right."""
    image = tuple(range(len(rs.roots)))
    for i in word:
        image = compose(image, rs.reflection_table[rs.simple[i - 1]])
    return image


def image_inversions(rs, image: tuple[int, ...]) -> int:
    """I(w) as a bit mask over positive root positions, for w inducing image:
    the positive roots w(b) of the negative roots b."""
    inv = 0
    # negative roots occupy the first half of the sorted root list
    for b in range(len(rs.roots) // 2):
        a = image[b]
        if rs.heights[a] > 0:
            inv |= 1 << rs.positive_position(a)
    return inv


def root_image(w: WeylElement) -> tuple[int, ...]:
    """The permutation of root indices that w induces, from a reduced word of
    w; an element is its inversion set, so the check pins it to w."""
    image = word_image(w.group, to_reduced_word(w))
    assert image_inversions(w.group, image) == w.inversions
    return image


def image_element(rs, image: tuple[int, ...]) -> WeylElement:
    return WeylElement(rs, image_inversions(rs, image))


def one_line_by_coordinates(w: WeylElement) -> str:
    """One-line notation of w in W(An), read off the images of the simple roots.

    w(alpha_k) = e_w(k) - e_w(k+1) = +-(alpha_i + ... + alpha_(j-1)) for
    i < j: its support gives the two letters and its sign their order;
    step k sets w(k), already found by step k-1, and appends w(k+1).
    """
    rs, image = w.group, root_image(w)
    perm: list[int] = []
    for k, s in enumerate(rs.simple):
        c = rs.simple_coords[image[s]]
        support = [i for i, x in enumerate(c) if x]
        i, j = support[0] + 1, support[-1] + 2
        perm[k:] = (i, j) if c[support[0]] > 0 else (j, i)
    return ("" if len(perm) <= 9 else ",").join(str(x) for x in perm)


# ---------------------------------------------------------------------------
# small polynomial arithmetic on coefficient tuples
# ---------------------------------------------------------------------------

def padd(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def pscale(c, a):
    return tuple(c * x for x in a)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def pshift(a, k):
    return tuple([0] * k + list(a))


def ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def preverse(a, n):
    """q^n * a(1/q) for a of degree <= n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        out[n - i] = x
    return ptrim(out)


# ---------------------------------------------------------------------------
# R-polynomials: classical companion recursion to the KL polynomials
# ---------------------------------------------------------------------------

class RTable:
    """R polynomials by the left-descent recursion, on root permutations.

    R(u,u) = 1, R(u,v) = 0 unless u <= v, and for a left descent s of v:
    R(u,v) = R(su,sv) when su < u, else (q-1) R(u,sv) + q R(su,sv).
    """

    def __init__(self, rs):
        self.rs = rs
        self.memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def r(self, u: WeylElement, v: WeylElement) -> tuple[int, ...]:
        got = self.memo.get((u.inversions, v.inversions))
        return got if got is not None else self._r(root_image(u), root_image(v))

    def _r(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        rs = self.rs
        mu, mv = image_inversions(rs, u), image_inversions(rs, v)
        key = (mu, mv)
        got = self.memo.get(key)
        if got is not None:
            return got
        if mu == mv:
            val: tuple[int, ...] = (1,)
        elif mu.bit_count() >= mv.bit_count():
            val = ()
        else:
            i = left_descents(WeylElement(rs, mv))[0]
            s = rs.reflection_table[rs.simple[i - 1]]
            sv, su = compose(s, v), compose(s, u)
            if image_inversions(rs, su).bit_count() < mu.bit_count():
                val = self._r(su, sv)
            else:
                val = padd(pmul((-1, 1), self._r(u, sv)), pshift(self._r(su, sv), 1))
        val = ptrim(val)
        self.memo[key] = val
        return val


def kl_defining_identity_holds(rs, kl_coeffs) -> bool:
    """Check q^(l(v)-l(u)) P(u,v)(1/q) = sum_z R(u,z) P(z,v) on all pairs.

    ``kl_coeffs(u, v)`` must return the coefficient tuple of P(u,v).
    Together with the degree bound and constant term 1 this identity
    pins the whole KL table, so it is a complete independent check.
    """
    from weylpat.weyl import bruhat_leq

    rt = RTable(rs)
    elements = enumerate_elements(rs)
    for v in elements:
        for u in elements:
            if not bruhat_leq(u, v):
                continue
            lhs = preverse(kl_coeffs(u, v), v.length - u.length)
            rhs: tuple[int, ...] = ()
            for z in elements:
                if bruhat_leq(u, z) and bruhat_leq(z, v):
                    rhs = padd(rhs, pmul(rt.r(u, z), kl_coeffs(z, v)))
            if ptrim(lhs) != ptrim(rhs):
                return False
    return True


def plain_kl_columns(wg) -> list[dict[int, int]]:
    """Every KL column of wg by the plain left-descent recursion.

    Column v maps each u <= v to P(u,v), packed 16 bits per coefficient as
    in ``weylpat.kl``.  Columns are filled in ascending index order, which
    is ascending length, so each column reads only finished ones; no
    column is shared through inversion or w0-conjugation.
    """
    shift, mask = 16, (1 << 16) - 1
    lengths = wg.lengths
    cols: list[dict[int, int]] = [{0: 1}]
    for v in range(1, wg.size):
        row = wg.lmult[wg.first[v] - 1]
        sv = row[v]
        col_sv = cols[sv]
        mu_terms = []
        for z, p in col_sv.items():
            gap = lengths[sv] - lengths[z]
            if gap % 2 and lengths[row[z]] < lengths[z]:
                mu_val = (p >> (shift * ((gap - 1) // 2))) & mask
                if mu_val:
                    mu_terms.append((cols[z], mu_val, shift * ((lengths[v] - lengths[z]) // 2)))
        col: dict[int, int] = {}
        for u in sorted(set(col_sv) | {row[z] for z in col_sv}, reverse=True):
            su = row[u]
            if u == v:
                col[u] = 1
            elif lengths[su] > lengths[u]:
                col[u] = col[su]
            else:
                val = col_sv.get(su, 0) + (col_sv.get(u, 0) << shift)
                for col_z, mu_val, sh in mu_terms:
                    val -= mu_val * (col_z.get(u, 0) << sh)
                col[u] = val
        cols.append(col)
    return cols


def kl_identity_holds_on_columns(wg, tops, kl_coeffs) -> bool:
    """The identity of :func:`kl_defining_identity_holds` on the columns of
    the element indices ``tops`` only, for groups too large for every pair.

    D(v) is read off ``wg.below``; R(u,z) is 0 unless u <= z, so the sum
    runs over all of D(v).  ``kl_coeffs(u, v)`` takes indices.
    """
    rt = RTable(wg.rs)
    elements, lengths = wg.elements, wg.lengths
    for v in tops:
        down = wg.below(v)
        for u in down:
            lhs = preverse(kl_coeffs(u, v), lengths[v] - lengths[u])
            rhs: tuple[int, ...] = ()
            for z in down:
                if lengths[z] >= lengths[u]:
                    rhs = padd(rhs, pmul(rt.r(elements[u], elements[z]), kl_coeffs(z, v)))
            if ptrim(lhs) != ptrim(rhs):
                return False
    return True


def inverses_by_walk(wg) -> list[int]:
    """inverses[k] is the index of elements[k]^-1: the first-letter chain of
    k, s_i1 ... s_ik, walked down the lmult rows while the same letters are
    applied to the identity, which gives s_ik ... s_i1."""
    first, lmult = wg.first, wg.lmult
    out = []
    for k in range(wg.size):
        j, a = 0, k
        while a:
            row = lmult[first[a] - 1]
            j, a = row[j], row[a]
        out.append(j)
    return out


def mask_index(wg) -> dict[int, int]:
    """The whole-group mask -> index dict, as the group kept it before it
    looked masks up within their length level: one entry per element."""
    return {m: k for k, m in enumerate(wg.masks)}


def lower_covers_table(wg) -> list[list[int]]:
    """Every lower-cover list of wg, built whole in index order, as the
    group built it before it filled covers per element: the covers of v
    are sv, s its first letter, and sc for each cover c of sv with
    sc > c (Bjorner-Brenti, GTM 231, section 2.2)."""
    lengths, lmult, first = wg.lengths, wg.lmult, wg.first
    table: list[list[int]] = [[]]
    for v in range(1, wg.size):
        row = lmult[first[v] - 1]
        sv = row[v]
        table.append([sv] + [row[c] for c in table[sv] if lengths[row[c]] > lengths[c]])
    return table


def rmult_rows(wg) -> list[list[int]]:
    """rmult[t][u] is the index of u s_t, as the KL table kept it before it
    raised through inverses: u s = (s u^-1)^-1, one list per simple index."""
    inv = wg.inverses
    return [list(map(inv.__getitem__, map(row.__getitem__, inv))) for row in wg.lmult]


def raise_by_rmult(table, rmult, u: int, need_left: int, need_right: int) -> int:
    """u raised through the descents in need_left it lacks, by the lmult
    rows, then through those in need_right, by the rmult rows, each step
    by the lowest missing descent, with descents read off those rows."""
    lmult = table.wg.lmult

    def missing(rows, u, need):
        return [s for s in range(len(rows)) if need >> s & 1 and rows[s][u] > u]

    for rows, need in ((lmult, need_left), (rmult, need_right)):
        while gaps := missing(rows, u, need):
            u = rows[gaps[0]][u]
    return u


def lmult_left_descents(wg) -> list[int]:
    """The left descent mask of every element, over 0-based simple indices,
    from the lmult rows: s is a left descent of u when s.u < u, since
    indices ascend with length."""
    left = [0] * wg.size
    for s, row in enumerate(wg.lmult):
        for u, su in enumerate(row):
            if su < u:
                left[u] |= 1 << s
    return left


def coset_lengths(wg) -> list[list[int]]:
    """For each maximal parabolic J = S - {s_i}, the length of the minimal
    element of W_J u for every u, then of u W_J, by peeling the descents in
    J off u one simple reflection at a time; 2 * rank lists."""
    inv, lmult = wg.inverses, wg.lmult
    rank = len(lmult)

    def peel(u: int, i: int, step) -> int:
        lowered = True
        while lowered:
            lowered = False
            for j in range(rank):
                if j != i and step(j, u) < u:
                    u, lowered = step(j, u), True
        return wg.lengths[u]

    left = [[peel(u, i, lambda j, x: lmult[j][x]) for u in range(wg.size)] for i in range(rank)]
    right = [[peel(u, i, lambda j, x: inv[lmult[j][inv[x]]]) for u in range(wg.size)]
             for i in range(rank)]
    return left + right


def uncut_candidates(table, v: int) -> int:
    """The candidate keys of column v before the length and parabolic cut:
    every index up to v whose descents contain those of v."""
    below = (2 << v) - 1
    for d in range(len(table.wg.lmult)):
        if table.left[v] >> d & 1:
            below &= table.with_left[d]
        if table.right[v] >> d & 1:
            below &= table.with_right[d]
    return below


def stored_columns(table) -> dict[int, tuple[array, array]]:
    """{r: (keys, ids)} for every filled representative r of a KL table,
    sliced off its flat store at ``start[r]`` for ``count[r]`` entries."""
    return {r: (table.keys[a:a + n], table.key_ids[a:a + n])
            for r, (a, n) in enumerate(zip(table.start, table.count)) if a >= 0}


def put_column(table, r: int, keys, ids) -> None:
    """Point column r of a KL table at keys and ids appended to its store,
    to plant a wrong column; the entries it had stay where they were, so
    saving and restoring ``start[r]`` and ``count[r]`` puts it back."""
    table.count[r] = len(keys)
    table.start[r] = len(table.keys)
    table.keys.extend(keys)
    table.key_ids.extend(ids)


def column_by_point_reads(table, v: int) -> tuple[array, array]:
    """The column of v as ``_KLTable._compute_column`` fills it, with every
    read a call of a ``_reader`` closure: the point-read fill.

    Reads go through ``table``, so the columns it reads are filled there
    first, and the values are interned in the table's own ids.
    """
    shift = 16
    wg = table.wg
    lengths = wg.lengths
    if lengths[v] == 0:
        return array("i", [v]), array("H", [0])
    s = table.descent(v)
    row = wg.lmult[s]
    sv = row[v]
    lv = lengths[v]
    read_sv = table._reader(sv)
    terms = [(z, m << (shift * ((lv - lengths[z]) // 2)), table._reader(z))
             for z, m in table._mu_terms(sv, s)]
    keys, vals = [], []
    for u in _bits(table._candidates(v)):
        p = read_sv(row[u])
        if p:
            keys.append(u)
            vals.append(p + (read_sv(u) << shift))
    for z, m, read_z in terms:
        for i, u in enumerate(keys):
            if u > z:
                break
            p = read_z(u)
            if p:
                vals[i] -= m * p
    return array("i", keys), array("H", [table.ids[val] for val in vals])


# ---------------------------------------------------------------------------
# Bruhat down-sets as bit masks, by the lifting recurrence and by covers
# ---------------------------------------------------------------------------

def lifting_downsets(wg) -> list[int]:
    """Every down-set of wg as a bit mask, by D(v) = D(sv) | s.D(sv).

    s is the smallest left descent of v; the image s.D(sv) is taken bit by
    bit through the lmult row of s, so no cover list is used.
    """
    down = [1]
    for v in range(1, wg.size):
        row = wg.lmult[wg.first[v] - 1]
        m = out = down[row[v]]
        while m:
            low = m & -m
            out |= 1 << row[low.bit_length() - 1]
            m ^= low
        down.append(out)
    return down


def cover_downsets(wg) -> list[int]:
    """Every down-set of wg as a bit mask, by D(v) = {v} | the D(c) over the
    lower covers c of v, read off ``wg.lower_covers``."""
    down: list[int] = []
    lower = wg.lower_covers
    for v in range(wg.size):
        m = 1 << v
        for c in lower[v]:
            m |= down[c]
        down.append(m)
    return down


# ---------------------------------------------------------------------------
# products and covers, one pair or one element at a time
# ---------------------------------------------------------------------------

def mul(wg: WeylGroup, a: int, b: int) -> int:
    """Index of the product elements[a] * elements[b], one index at a time.

    Folds the reduced word of a through the lmult rows, where the library
    applies them to whole columns.
    """
    for i in reversed(wg.word(a)):
        b = wg.lmult[i - 1][b]
    return b


def covers(v: WeylElement) -> list[WeylElement]:
    """All u covered by v: u = s_alpha v with l(u) = l(v) - 1, from every reflection."""
    rs, image = v.group, root_image(v)
    seen: dict[int, WeylElement] = {}
    for a in rs.positive:
        u = image_element(rs, compose(rs.reflection_table[a], image))
        if u.length == v.length - 1:
            seen.setdefault(u.inversions, u)
    return sorted(seen.values(), key=to_reduced_word)


# ---------------------------------------------------------------------------
# Bruhat order as the closure of reflection moves
# ---------------------------------------------------------------------------

def bruhat_leq_by_reflection_closure(u: WeylElement, v: WeylElement) -> bool:
    """Bruhat order from its definition as a closure of reflection moves.

    Takes the reflexive transitive closure of x' < x whenever x' = s_alpha x
    for some root alpha with l(x') < l(x), over the whole group of u.
    """
    wg = WeylGroup.for_system(u.group)
    return bool(_reflection_closure_downsets(wg)[wg.idx(v)] >> wg.idx(u) & 1)


@functools.cache
def _reflection_closure_downsets(wg: WeylGroup) -> list[int]:
    """Down-sets from reflection moves, as bit masks over wg's indices."""
    rs = wg.rs
    down = [0] * wg.size
    refls = [rs.reflection_table[a] for a in rs.positive]
    index = mask_index(wg)
    for v_idx, v in enumerate(wg.elements):
        image = root_image(v)
        mask = 1 << v_idx
        for t in refls:
            u = image_inversions(rs, compose(t, image))
            if u.bit_count() < v.length:
                mask |= down[index[u]]
        down[v_idx] = mask
    return down


# ---------------------------------------------------------------------------
# word and inversion-set oracles
# ---------------------------------------------------------------------------

def cayley_distances(rs, roots=None) -> dict[int, int]:
    """BFS word lengths over the Cayley graph of the root permutations that the
    reflections in roots (the simple roots by default) generate: inversions
    mask -> distance."""
    frontier = [tuple(range(len(rs.roots)))]
    dist = {0: 0}
    gens = [rs.reflection_table[a] for a in (rs.simple if roots is None else roots)]
    while frontier:
        new = []
        for w in frontier:
            d = dist[image_inversions(rs, w)] + 1
            for s in gens:
                nxt = compose(s, w)
                m = image_inversions(rs, nxt)
                if m not in dist:
                    dist[m] = d
                    new.append(nxt)
        frontier = new
    return dist


def all_reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    """Every reduced word of w, via recursion on left descents of root permutations."""
    rs = w.group

    def words(image: tuple[int, ...]) -> list[tuple[int, ...]]:
        v = image_element(rs, image)
        if v.length == 0:
            return [()]
        return [(i,) + tail for i in left_descents(v)
                for tail in words(compose(rs.reflection_table[rs.simple[i - 1]], image))]

    return words(root_image(w))


def is_biconvex(rs, mask: int) -> bool:
    """Naive biconvexity: the set and its complement inside the positive
    roots are each closed under root addition."""
    pos = rs.positive
    members = [pos[p] for p in range(rs.num_positive) if mask >> p & 1]
    others = [pos[p] for p in range(rs.num_positive) if not mask >> p & 1]
    index = root_index(rs)

    def closed(subset):
        inside = set(subset)
        for a in subset:
            for b in subset:
                vec = tuple(x + y for x, y in zip(rs.roots[a], rs.roots[b]))
                idx = index.get(vec)
                if idx is not None and rs.is_positive(idx) and idx not in inside:
                    return False
        return True

    return closed(members) and closed(others)


# ---------------------------------------------------------------------------
# brute-force embedding enumeration
# ---------------------------------------------------------------------------

class RationalSpan:
    """The rational span of a linearly independent set of ambient vectors.

    Solves membership and coordinate questions in `Fraction` arithmetic
    via the inverse Gram matrix of the basis, independently of the
    integer echelon form the package uses.
    """

    def __init__(self, basis):
        self.basis = [tuple(Q(x) for x in b) for b in basis]
        n = len(self.basis)
        gram = [[dot(a, b) for b in self.basis] for a in self.basis]
        # invert the Gram matrix by Gauss-Jordan elimination
        aug = [row[:] + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(gram)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise ValueError("basis is linearly dependent")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = Q(1) / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        self._gram_inv = [row[n:] for row in aug]

    def coefficients(self, v):
        """Coordinates of v in the basis, or None when v is outside the span."""
        rhs = [dot(b, v) for b in self.basis]
        coeffs = tuple(
            sum((self._gram_inv[i][j] * rhs[j] for j in range(len(rhs))), Q(0))
            for i in range(len(self.basis))
        )
        recon = [Q(0)] * len(v)
        for c, b in zip(coeffs, self.basis):
            if c:
                recon = [x + c * y for x, y in zip(recon, b)]
        if tuple(recon) != tuple(v):
            return None
        return coeffs

    def contains(self, v) -> bool:
        return self.coefficients(v) is not None


def naive_embeddings(source, target) -> set[tuple[int, ...]]:
    """All valid simple-image tuples, found without any of the pruning the
    implementation uses: try every injective assignment of source simple
    roots to arbitrary target roots and check the definition directly."""
    r = source.rank
    result: set[tuple[int, ...]] = set()
    all_roots = range(len(target.roots))
    target_index = root_index(target)

    def cartan(rs, a, b):
        ra, rb = rs.roots[a], rs.roots[b]
        return 2 * dot(ra, rb) / dot(ra, ra)

    src_simple = source.simple
    for images in itertools.permutations(all_roots, r):
        if any(
            cartan(target, images[i], images[j]) != cartan(source, src_simple[i], src_simple[j])
            for i in range(r)
            for j in range(r)
        ):
            continue
        # extend linearly over all source roots
        image_set = set()
        ok = True
        for ridx in range(len(source.roots)):
            coeffs = source.simple_coords[ridx]
            vec = tuple(
                sum((Q(c) * target.roots[images[k]][d] for k, c in enumerate(coeffs)), Q(0))
                for d in range(target.ambient_dim)
            )
            tidx = target_index.get(vec)
            if tidx is None:
                ok = False
                break
            if source.is_positive(ridx) and not target.is_positive(tidx):
                ok = False
                break
            image_set.add(tidx)
        if not ok or len(image_set) != len(source.roots):
            continue
        # intersection condition: span of the images meets the target roots
        # in exactly the image set
        try:
            span = RationalSpan([target.roots[i] for i in images])
        except ValueError:  # dependent images cannot give an embedding
            continue
        members = {i for i in all_roots if span.contains(target.roots[i])}
        if members == image_set:
            result.add(tuple(images))
    return result


def full_map_by_vector_sums(source, target, images: tuple[int, ...]) -> tuple[int, ...]:
    """The target root index of each source root, each image summed from
    the images of the simple roots in simple-root coordinates and looked
    up: the linear extension, built the way the embedding search once
    built it."""
    index = {c: i for i, c in enumerate(target.simple_coords)}
    image_coords = [target.simple_coords[i] for i in images]
    full = []
    for coeffs in source.simple_coords:
        vec = [0] * target.rank
        for c, img in zip(coeffs, image_coords):
            vec = [x + c * y for x, y in zip(vec, img)]
        full.append(index[tuple(vec)])
    return tuple(full)


# ---------------------------------------------------------------------------
# intervals as element objects with their cover pairs
# ---------------------------------------------------------------------------

class BruhatInterval:
    """The graded poset of all z with u <= z <= v."""

    __slots__ = ("bottom", "top", "elements", "cover_pairs")

    def __init__(self, bottom: WeylElement, top: WeylElement,
                 elements: Sequence[WeylElement], cover_pairs: Sequence[tuple[int, int]]):
        self.bottom = bottom
        self.top = top
        self.elements = tuple(elements)
        self.cover_pairs = tuple(cover_pairs)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def rank_span(self) -> int:
        return self.top.length - self.bottom.length

    def __repr__(self) -> str:
        return (f"<BruhatInterval {self.bottom.group.cartan_type} "
                f"[{format_word(self.bottom)} .. {format_word(self.top)}] "
                f"{self.size} elements>")


def interval(u: WeylElement, v: WeylElement,
             cap: int = DEFAULT_ENUMERATION_CAP) -> BruhatInterval:
    """The Bruhat interval [u, v], its elements built from their masks; raises
    NotComparableError when u is not <= v."""
    _check_same_group(u, v)
    wg = WeylGroup.for_system(u.group, cap)
    a, b = wg.idx(u), wg.idx(v)
    if not wg.leq_idx(a, b):
        raise NotComparableError(
            f"not comparable: {format_word(u)} !<= {format_word(v)}"
        )
    idxs = wg.interval_indices(a, b)
    elements = [WeylElement(u.group, wg.masks[z]) for z in idxs]
    pos = {z: k for k, z in enumerate(idxs)}
    lower = wg.lower_covers
    pairs = sorted((pos[c], k) for k, z in enumerate(idxs) for c in lower[z] if c in pos)
    return BruhatInterval(elements[0], elements[-1], elements, pairs)


# ---------------------------------------------------------------------------
# poset isomorphism: a colour-refined search and a search over bijections
# ---------------------------------------------------------------------------

def _shape(iv: BruhatInterval) -> tuple[list[list[int]], list[int], list[int]]:
    """Down-cover lists, refined colours and sorted colours of iv.

    The colours depend only on the poset, not on how its elements are
    listed, since each round's palette is the sorted set of signatures;
    so one interval's colours are comparable with any other's.
    """
    n = iv.size
    up: list[list[int]] = [[] for _ in range(n)]
    down: list[list[int]] = [[] for _ in range(n)]
    for a, b in iv.cover_pairs:
        up[a].append(b)
        down[b].append(a)
    colors = _refine_colors(up, down, [z.length - iv.bottom.length for z in iv.elements])
    return down, colors, sorted(colors)


def _refine_colors(up: list[list[int]], down: list[list[int]], ranks: list[int]) -> list[int]:
    n = len(ranks)
    colors = [(ranks[k], len(up[k]), len(down[k])) for k in range(n)]
    for _ in range(n):
        sig = [
            (colors[k], tuple(sorted(colors[j] for j in up[k])),
             tuple(sorted(colors[j] for j in down[k])))
            for k in range(n)
        ]
        palette = {s: c for c, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            break
        colors = new
    return colors


def _levels(iv: BruhatInterval) -> list[list[int]]:
    """Element positions of iv grouped by rank, bottom first."""
    out: list[list[int]] = [[] for _ in range(iv.rank_span + 1)]
    for k, z in enumerate(iv.elements):
        out[z.length - iv.bottom.length].append(k)
    return out


def interval_isomorphic(i1: BruhatInterval, i2: BruhatInterval) -> bool:
    """Decide whether two Bruhat intervals are isomorphic as posets.

    Both posets are graded with unique minimum and maximum, so any
    isomorphism preserves rank; the search assigns elements level by
    level after an iterated degree refinement prunes the candidates.
    """
    if i1.size != i2.size or i1.rank_span != i2.rank_span:
        return False
    lv1, lv2 = _levels(i1), _levels(i2)
    if [len(l) for l in lv1] != [len(l) for l in lv2]:
        return False
    down1, c1, sorted1 = _shape(i1)
    down2, c2, sorted2 = _shape(i2)
    if sorted1 != sorted2:
        return False

    mapping = [-1] * i1.size

    def match_level(level: int) -> bool:
        if level > i1.rank_span:
            return True
        nodes = sorted(lv1[level], key=lambda k: (-len(down1[k]), c1[k]))
        pool = list(lv2[level])

        def place(pos: int, used: set[int]) -> bool:
            if pos == len(nodes):
                return match_level(level + 1)
            a = nodes[pos]
            want = frozenset(mapping[d] for d in down1[a])
            for b in pool:
                if b in used or c2[b] != c1[a]:
                    continue
                if frozenset(down2[b]) != want:
                    continue
                mapping[a] = b
                used.add(b)
                if place(pos + 1, used):
                    return True
                used.discard(b)
                mapping[a] = -1
            return False

        return place(0, set())

    return match_level(0)


def brute_force_isomorphic(i1, i2) -> bool:
    """Whether two intervals are isomorphic, found by trying bijections.

    A finite poset is determined by its cover relation, so the intervals
    are isomorphic exactly when some bijection of their positions carries
    one set of cover pairs onto the other.  Positions of i1 are mapped in
    list order, and a partial map is dropped as soon as it breaks a pair
    between mapped positions; ranks and colours are never used.
    """
    n = i1.size
    if n != i2.size or len(i1.cover_pairs) != len(i2.cover_pairs):
        return False
    covers1, covers2 = set(i1.cover_pairs), set(i2.cover_pairs)
    image: list[int] = []

    def extend(k: int) -> bool:
        if k == n:
            return True
        for b in range(n):
            if b in image:
                continue
            if all(((j, k) in covers1) == ((image[j], b) in covers2)
                   and ((k, j) in covers1) == ((b, image[j]) in covers2)
                   for j in range(k)):
                image.append(b)
                if extend(k + 1):
                    return True
                image.pop()
        return False

    return extend(0)


def pattern_map_isomorphic_on_target_interval(src: WeylGroup, tgt: WeylGroup, phi,
                                              u: int, v: int, x: int, w: int) -> bool:
    """Whether z -> phi[z] is a poset isomorphism of [u, v] onto [x, w], both built.

    True when phi is a bijection of ``src.interval_indices(u, v)`` onto
    ``tgt.interval_indices(x, w)`` that carries the in-interval lower
    covers of each z exactly onto those of its image.  It builds both
    intervals and compares them whole, where the library's proof never
    builds [x, w].
    """
    bottom = src.interval_indices(u, v)
    top = tgt.interval_indices(x, w)
    if len(bottom) != len(top):
        return False
    image = set(top)
    if {phi[z] for z in bottom} != image:
        return False
    inside = set(bottom)
    src_lower, tgt_lower = src.lower_covers, tgt.lower_covers
    return all({phi[c] for c in src_lower[z] if c in inside}
               == {c for c in tgt_lower[phi[z]] if c in image}
               for z in bottom)


# ---------------------------------------------------------------------------
# the upper-ideal sweep, one property and one KL read at a time
# ---------------------------------------------------------------------------

def upper_ideal_by_reads(prop, types, pairs) -> tuple[int, list[str]]:
    """(cases, sorted failures) of the upper-ideal sweep for the predicate prop,
    each polynomial read on its own through the public kl_polynomial.

    Move 2 lowers the bottom of each [u, v] where prop holds to every
    u' < u; move 1 carries [u, v] along each equal-gap yield of the scan.
    """
    from weylpat.kl import kl_polynomial
    from weylpat.patterns import format_interval_spec
    from weylpat.roots import build_root_system
    from weylpat.weyl import format_word

    cases, failures = 0, []
    for t in types:
        wg = WeylGroup.for_system(build_root_system(t))
        el = wg.elements
        for v in range(wg.size):
            holds = {u: prop(kl_polynomial(el[u], el[v])) for u in wg.below(v)}
            for u in holds:
                if holds[u]:
                    for u2 in wg.below(u):
                        if u2 != u:
                            cases += 1
                            if not holds[u2]:
                                failures.append(
                                    f"{t}: property holds on [{format_word(el[u])}.."
                                    f"{format_word(el[v])}] but not on "
                                    f"[{format_word(el[u2])}..{format_word(el[v])}]")
    for s, t in pairs:
        src, tgt = (WeylGroup.for_system(build_root_system(n)) for n in (s, t))
        for emb in enumerate_embeddings(src.rs, tgt.rs):
            for u, v, x, w in interval_pattern_instances(emb):
                u, v, x, w = src.elements[u], src.elements[v], tgt.elements[x], tgt.elements[w]
                if v.length - u.length != w.length - x.length:
                    continue
                cases += 1
                if prop(kl_polynomial(u, v)) and not prop(kl_polynomial(x, w)):
                    failures.append(f"[{format_interval_spec(u, v)}] -> "
                                    f"[{format_interval_spec(x, w)}]: property lost along embedding")
    return cases, sorted(failures)


# ---------------------------------------------------------------------------
# the flattening sweep, one element at a time
# ---------------------------------------------------------------------------

def swapped_identity_embedding(rs) -> SubsystemEmbedding:
    """The identity embedding of rs with the images of a2 and the highest root swapped."""
    good = next(e for e in enumerate_embeddings(rs, rs) if e.simple_images == rs.simple)
    a2_root, top = rs.simple[1], rs.positive[-1]
    full = list(good.full_map)
    full[a2_root], full[top] = full[top], full[a2_root]
    return SubsystemEmbedding(rs, rs, good.simple_images, tuple(full))


def flattening_by_element(embeddings, target, cap: int = DEFAULT_ENUMERATION_CAP
                          ) -> tuple[int, list[str]]:
    """(cases, failures) of the flattening sweep through the object-level flatten.

    Every element of the target group is flattened through every
    embedding, one case each; an embedding through which some pullback
    is not biconvex is one failure, in the suite's text.
    """
    cases, failures = 0, []
    for emb in embeddings:
        error = None
        for w in enumerate_elements(target, cap):
            try:
                flatten(emb, w, cap)
            except InternalInvariantError as exc:
                error = error or exc
            cases += 1
        if error is not None:
            failures.append(f"{emb!r}: {error}")
    return cases, failures


# ---------------------------------------------------------------------------
# interval pattern embedding by its definition
# ---------------------------------------------------------------------------

@functools.cache
def _subgroup_inversions(emb) -> frozenset[int]:
    """Inversion masks of the embedded subgroup inside the target group, the
    group generated by the reflections in the image simple roots."""
    return frozenset(cayley_distances(emb.target, emb.simple_images))


def interval_embeds(emb, u: WeylElement, v: WeylElement, x: WeylElement, w: WeylElement,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Interval pattern embedding of [u, v] into [x, w], condition by condition.

    The flattenings of w and x are v and u, x and w lie in the same right
    coset of the embedded subgroup, and the two intervals are isomorphic
    by :func:`interval_isomorphic`; cap bounds both groups.
    """
    if flatten(emb, w, cap) != v or flatten(emb, x, cap) != u:
        return False
    if image_inversions(x.group, compose(root_image(x), invert(root_image(w)))) \
            not in _subgroup_inversions(emb):
        return False
    return interval_isomorphic(interval(u, v, cap), interval(x, w, cap))


def coset_maps_by_target(emb) -> list[tuple[int, ...]]:
    """maps[w] is the coset map of the right coset of w, for each target index w:
    the per-target view of ``emb.coset_maps()``."""
    maps: list[tuple[int, ...]] = [()] * len(emb.flat())
    for phi in emb.coset_maps():
        for y in phi:
            maps[y] = phi
    return maps


def interval_pattern_instances(emb: SubsystemEmbedding, cap: int = DEFAULT_ENUMERATION_CAP
                               ) -> Iterator[tuple[int, int, int, int]]:
    """Each (u, v, x, w) with u <= v = fl(w) that :func:`forced_bottom` accepts.

    Streams source indices u, v and target indices x, w, ordered by w,
    then u, and keeps nothing but the coset maps and the source's
    below-lists.  cap is checked against both groups, the flat table and
    the coset maps are built, and every coset passes the checks of
    ``coset_maps`` and :func:`~weylpat.patterns._cosets`, when the call
    is made.  Then x = phi_w[u] for every u <= fl(w), with no test per
    yield: by those checks fl(x) = u and x <= w.
    """
    flat = emb.flat(cap)
    maps: list[Sequence[int]] = [()] * len(flat)
    for phi, _ in _cosets((emb,), cap):
        for y in phi:
            maps[y] = phi
    source = WeylGroup.for_system(emb.source, cap)
    belows = [source.below(v) for v in range(source.size)]
    return ((u, v, maps[w][u], w) for w, v in enumerate(flat) for u in belows[v])


def forced_bottom(emb: SubsystemEmbedding, u: WeylElement, v: WeylElement,
                  w: WeylElement) -> WeylElement | None:
    """x = i(u v^-1) w when fl(w) = v, x <= w and fl(x) = u, else None.

    By x-determination no other x in the coset of w can be the bottom of
    an interval pattern [u, v] -> [x, w] along emb.  No target group is
    enumerated; ``flatten`` looks the pulled-back masks up in the source
    group.
    """
    if flatten(emb, w) != v:
        return None
    x = multiply(embed_element(emb, multiply(u, inverse(v))), w)
    if not bruhat_leq(x, w) or flatten(emb, x) != u:
        return None
    return x


# ---------------------------------------------------------------------------
# the interval poset
# ---------------------------------------------------------------------------

def interval_poset_reachable(generators: Sequence[BruhatInterval],
                             x: WeylElement, w: WeylElement,
                             groups: Sequence[RootSystem] | None = None,
                             cap: int = 100_000) -> bool:
    """Whether [x, w] sits above some generator in the interval poset.

    The poset on intervals (across all configured groups) is the
    reflexive transitive closure of two generating moves upward:

    * [u, v] -> [x', w'] when some embedding realizes [u, v] as an
      interval pattern in [x', w'];
    * [u, v] -> [u', v] when u' <= u (shrinking the bottom keeps the
      property locus, since cell closures only add smaller elements).

    The search is a breadth-first walk upward from the generators,
    restricted to the supplied window of groups (default: the groups of
    the generators plus the group of the goal), on (type, bottom, top)
    element-index states.  cap bounds the states visited, each group's
    enumeration and each embedding search.
    """
    if not bruhat_leq(x, w):
        raise NotComparableError(f"not comparable: {format_word(x)} !<= {format_word(w)}")
    # the window by type, in first-seen order
    systems: dict[str, RootSystem] = {}
    for sys in [g.bottom.group for g in generators] + list(groups or ()) + [w.group]:
        systems.setdefault(sys.cartan_type, sys)

    def state(bot: WeylElement, top: WeylElement) -> tuple[str, int, int]:
        wg = WeylGroup.for_system(top.group, cap)
        return (top.group.cartan_type, wg.idx(bot), wg.idx(top))

    goal = state(x, w)
    queue: deque[tuple[str, int, int]] = deque()
    visited: set[tuple[str, int, int]] = set()

    def push(st: tuple[str, int, int]) -> bool:
        if st in visited:
            return False
        visited.add(st)
        if len(visited) > cap:
            raise CapExceededError("cap exceeded in interval poset search")
        queue.append(st)
        return st == goal

    for gen in generators:
        if push(state(gen.bottom, gen.top)):
            return True

    # move 1 out of each source type, filled when a state of it is first
    # popped: (u, v) -> the states its sweeps reach with equal length gaps
    moves: dict[str, dict[tuple[int, int], list[tuple[str, int, int]]]] = {}
    while queue:
        sys_type, bot, top = queue.popleft()
        sys = systems[sys_type]
        wg = WeylGroup.for_system(sys, cap)
        # move 2: lower the bottom
        for k in wg.below(bot):
            if k != bot and push((sys_type, k, top)):
                return True
        # move 1: interval pattern embeddings into every window group
        hits = moves.get(sys_type)
        if hits is None:
            hits = moves[sys_type] = {}
            for tgt in systems.values():
                for phi, pairs in _cosets(enumerate_embeddings(sys, tgt, cap), cap):
                    for u, v in pairs:
                        hits.setdefault((u, v), []).append((tgt.cartan_type, phi[u], phi[v]))
        for st in hits.get((bot, top), ()):
            if push(st):
                return True
    return False


# ---------------------------------------------------------------------------
# table digests
# ---------------------------------------------------------------------------

def digest(obj) -> str:
    """First 16 hex digits of the sha256 of repr(obj), for pinned tables."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]
