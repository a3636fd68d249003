"""Kazhdan-Lusztig polynomials over enumerable Weyl groups.

Computation uses the classical recursion on a left descent s of v:

    P(u,v) = q^(1-c) P(su,sv) + q^c P(u,sv)
             - sum over z with u <= z < sv, sz < z of
               mu(z,sv) q^((l(v)-l(z))/2) P(u,z)

with c = 1 when su < u and c = 0 otherwise, where mu(z,y) is the
coefficient of q^((l(y)-l(z)-1)/2) in P(z,y).  The descent is chosen
deterministically: among the left descents s of v whose column sv is
already filled, the one with the fewest keys (the smaller s on a tie),
else the smallest descent.  A column sv with few keys has a short
mu-list, so each key of v subtracts fewer mu-terms.  The rule reads
only columns already filled and fills none itself, so a cold point
query fills no column it would not fill with the smallest descent,
while a sweep in index order, where every sv is filled, always gets
the cheapest choice.  Independence of the choice is
asserted in the test suite by recomputing whole tables with other
descent choices.

Two classical identities (Kazhdan-Lusztig 1979; Bjorner-Brenti, GTM 231,
ch. 5) tie columns together:

    P(u,v) = P(u^-1, v^-1)    and    P(u,v) = P(w0 u w0, w0 v w0),

the second because conjugation by the longest element w0 is a Coxeter
automorphism (it permutes the simple reflections by the diagram
automorphism -w0).  Inversion and w0-conjugation are commuting
involutions of the group, so with their product and the identity they
split it into orbits {v, v^-1, w0 v w0, w0 v^-1 w0}.  The table stores a
column only for the representative r(v) of each orbit, its smallest
element index, and maps any other column onto it: P(u,v) = P(f(u), r(v))
where f is the involution of the four that takes v to r(v).  Where w0 is
central (types B, C, D_even, E7, E8, F4, G2) conjugation is the identity
and inversion alone halves the table.

A column stores only its extremal pairs (Kazhdan-Lusztig 1979, 2.3;
du Cloux, *Coxeter*, Experiment. Math. 11, 2002).  For a left descent s
of v with su > u, P(u,v) = P(su,v), and u <= v exactly when su <= v; on
the right likewise for a right descent t of v with ut > u.  Raising u
through the left descents of v it lacks and then through the right ones
(a right step never drops a left descent) ends at the maximum of the
double coset W_I u W_J, I and J the left and right descents of v, so
every value of column v is a value at an extremal u: a u <= v with
D_L(u) >= D_L(v) and D_R(u) >= D_R(v).  The keys of column v are its
extremal u.  A read of P(u,v) flips u into the frame of the
representative r, raises it through the descents of r, and looks the
result up among the keys of r; a miss means u is not below v, so
comparability comes from the keys alone.  A point read, for a query,
finds the raised u by bisection.

A fill reads only extremal values.  At an extremal u of v, s is a left
descent of u too, so the recursion reads P(su,sv), P(u,sv) and each
P(u,z), raised in the columns of sv and z, with 0 for a miss.  Each of
those columns is read in bulk, in one pass over its list of u: column
sv for the su and the u of every candidate, and column z for the keys
u of v up to index z, since P(u,z) = 0 unless u <= z, and u <= z puts
u at or before z in index order.  A bulk read takes the frame of the
representative once: the flip, the descent masks to raise through,
and a dict from each key to its packed value, built from the stored
arrays and dropped with the fill.  Then one loop flips, raises and
looks up every u, with no Python call per read; each raising step
multiplies by the lowest missing descent, one row lookup.  The
mu-terms are read off the stored column of a filled representative y
when a fill needs them, and nothing of them is kept: the odd-gap keys z
with mu(z,y) != 0, and the coatoms sy and yt for the left descents s
and right descents t of y.  That is every z with mu(z,y) != 0, since a
z < y that lacks a left descent s of y has mu(z,y) != 0 only for
z = sy, and one that lacks a right descent t only for z = yt
(Kazhdan-Lusztig 1979, 2.3; Bjorner-Brenti, GTM 231, ch. 5).  Only the
z that the recursion reads, those with sz < z for the descent s of the
fill, are formed.
The keys of v are found among the indices up to v whose descents
contain those of v, the intersection of one cached bit mask per simple
reflection and side: such a u is below v exactly when su <= sv, that
is when the read of P(su,sv) hits.  Two necessary conditions for u <= v
trim these candidates before any read.  A u as long as v is below v
only if u = v, and levels are contiguous in index order, so only v and
the indices before v's level remain.  And the projection of W onto a
parabolic quotient preserves Bruhat order on either side
(Bjorner-Brenti, GTM 231, Prop. 2.5.1), so for each maximal parabolic
W_J, J = S - {s_i}, the minimal elements of W_J u and of u W_J are no
longer than those of v.  Their lengths count the inversions of u, or of
u^-1, whose support holds a_i: one ``bytes`` per parabolic and side,
built from the byte planes of the masks, and per value t a bit mask of
the u at most t, built on first use by one translate.  Columns are
filled on demand: column v reads only column sv and the columns z of
its mu-terms, and fills their representatives first, recursively, so a
query touches a few columns rather than all of D(v), at a recursion
depth of at most l(v) + 1.

Each ``WeylGroup`` keeps its table, which holds every filled column in
one flat store of two aligned arrays: ``keys``, an ``array('i')`` of
the extremal u of each column in ascending index, and ``key_ids``, an
``array('H')`` of ids into one table-wide list of the distinct packed
values.  An entry takes 6 bytes, and the table keeps no object per
column: per element index, ``start`` and ``count``, two
``array('i')``, place a filled representative's column in the store,
with start -1 until it is filled.  Id 0 is the value 1, so v is
rationally smooth exactly when every id of its column is 0.  The ids
of one table must fit ``array('H')``, at most 65,536 distinct values.
A full column over D(v), for the value oracles, is read by walking the
double coset of each key.
The table has one lock, that of its value list.  A column is built
locally and appended to the store under it, which writes its count and
then its start, so a concurrent caller sees no column or the whole
column, and a column that racing fills both built is stored once.
Entries are never moved once stored, and the store is read by index
and by copied slices only, never through a view that would stop it from
growing.  The value list is the other state that fills share: a value
seen for the first time is checked and appended under the same lock,
checked for again inside it, so racing fills give a value one id and a
column filled twice is filled with the same ids.  A fill interns its
values before it appends its column, so neither step waits on the
other while holding the lock.  The orbit codes, descent sets and parabolic lengths are built in
the table's constructor, before any caller can see it.  The table keeps
no right multiplication rows: x s_t = (s_t x^-1)^-1 and
D_R(x) = D_L(x^-1), so every right raise of a read is a left raise of
x^-1 through ``lmult``, mapped back through ``inverses``.  A threshold
mask of the cut is built on first use and stored in one assignment;
racing fills may both build it, and both store the same int.
Polynomials are packed as Python ints with 16 bits per coefficient.  A
value is checked as it is interned: positive, constant term 1 and
every coefficient below 2^15, so a borrow from a negative coefficient
cannot pass.  Decoding checks the sign, the constant term and the
degree bound; each table decodes a distinct (value, length gap) once
and hands the same immutable ``KLPolynomial`` to every index-level read
of it.
"""

from __future__ import annotations

from _thread import allocate_lock
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from itertools import islice

from .errors import InternalInvariantError, NotComparableError
from .weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    _byte_planes,
    _plane_sum,
    _plane_tables,
    format_word,
)

__all__ = ["KLPolynomial", "kl_polynomial", "mu", "is_rationally_smooth"]

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
_COEFF_LIMIT = 1 << (_SHIFT - 1)  # a borrow leaves a coefficient at or above this
_ID_LIMIT = 1 << 16  # the ids of one table must fit array('H')


class KLPolynomial:
    """A polynomial in q with nonnegative integer coefficients.

    >>> str(KLPolynomial([1, 1]))
    '1 + q'
    >>> str(KLPolynomial([1, 0, 2]))
    '1 + 2q^2'
    >>> KLPolynomial([1, 1, 0]) == KLPolynomial([1, 1])
    True
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        return self.coefficients[k] if 0 <= k < len(self.coefficients) else 0

    def __call__(self, q):
        return sum(c * q ** k for k, c in enumerate(self.coefficients))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, KLPolynomial):
            return self.coefficients == other.coefficients
        if isinstance(other, int):
            return self.coefficients == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("q" if c == 1 else f"{c}q")
            else:
                terms.append(f"q^{k}" if c == 1 else f"{c}q^{k}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"KLPolynomial({self})"


def _unpack(val: int, gap: int) -> KLPolynomial:
    """Decode a packed P(u,v) with l(v) - l(u) = gap, checking its invariants."""
    if val < 0:
        raise InternalInvariantError(f"negative packed KL value {val}")
    coeffs = []
    while val:
        coeffs.append(val & _MASK)
        val >>= _SHIFT
    poly = KLPolynomial(coeffs)
    if poly.coefficient(0) != 1:
        raise InternalInvariantError(f"KL polynomial {poly} has constant term other than 1")
    if 2 * poly.degree > max(gap - 1, 0):
        raise InternalInvariantError(
            f"KL polynomial {poly} exceeds the degree bound for length gap {gap}")
    return poly


def _w0_conjugation(wg: WeylGroup) -> list[int]:
    """conj[k] is the index of w0 * elements[k] * w0, w0 = elements[-1].

    w0 s_i w0 = s_sigma(i) for a permutation sigma of the simple indices.
    Since w0 s_i = (s_i w0)^-1 = s_sigma(i) w0, sigma(i) is the j with
    s_j w0 = (s_i w0)^-1, read off the column of w0 in the lmult rows.
    One pass in index order: for k = s_i a with i its first letter,
    w0 k w0 = s_sigma(i) (w0 a w0), and a < k.
    """
    lmult, inv, first = wg.lmult, wg.inverses, wg.first
    col = [row[wg.size - 1] for row in lmult]  # s_i w0 for each i
    sigma = [col.index(inv[c]) for c in col]
    conj = [0]
    for k in range(1, wg.size):
        i = first[k] - 1
        conj.append(lmult[sigma[i]][conj[lmult[i][k]]])
    return conj


class _ValueIds(dict):
    """Packed value -> id over the distinct values of one table; 1 -> 0.

    ``values[i]`` is the value with id i.  Looking up a value not seen
    before interns it through ``__missing__``: under ``lock``, and only
    if no racing fill interned it first, the value's bounds are checked
    and it takes the next id, of at most 2^16 that ``array('H')`` holds.
    A hit is a plain dict lookup.
    """

    def __init__(self):
        super().__init__({1: 0})
        self.values = [1]
        self.lock = allocate_lock()

    def __missing__(self, val: int) -> int:
        with self.lock:
            i = self.get(val)
            if i is None:
                _check_bounds(val)
                i = len(self.values)
                if i == _ID_LIMIT:
                    raise InternalInvariantError(
                        f"more than {_ID_LIMIT} distinct packed KL values in one table")
                # append first, so any id a reader finds has its value
                self.values.append(val)
                self[val] = i
        return i


def _check_bounds(val: int) -> None:
    """Raise unless val is positive with constant term 1 and coefficients below 2^15."""
    if val <= 0:
        raise InternalInvariantError(f"packed KL value {val} is not positive")
    if val & _MASK != 1:
        raise InternalInvariantError(
            f"packed KL value {val:#x} has constant term {val & _MASK}, not 1")
    rest = val
    while rest:
        if rest & _MASK >= _COEFF_LIMIT:
            raise InternalInvariantError(
                f"packed KL value {val:#x} has a coefficient of at least 2^{_SHIFT - 1}")
        rest >>= _SHIFT


def _index_sets(descents: list[int], rank: int) -> list[int]:
    """sets[s] is the bit mask over element indices of the u whose descent mask has bit s.

    The byte planes (:func:`~weylpat.weyl._byte_planes`) of the descent
    masks in reverse order put index 0 last; one ``bytes.translate`` per
    bit writes its ASCII digits and ``int(..., 2)`` reads them as a mask.
    """
    sets = []
    for lo, plane in zip(range(0, rank, 8), _byte_planes(reversed(descents), rank)):
        for b in range(min(8, rank - lo)):
            # bit b of x is 1 on runs of 2^b bytes, starting at x = 2^b
            sets.append(int(plane.translate((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b)), 2))
    return sets


def _parabolic_lengths(wg: WeylGroup) -> list[bytes]:
    """For each maximal parabolic J = S - {s_i}, on each side, the length of
    every element's minimal coset representative, as ``bytes`` with byte
    size - 1 - u for element u, index 0 last, ready for ``int(..., 2)``.

    The minimal element of W_J u is as long as the inversions of u outside
    the roots of W_J, those whose support holds a_i: the set bits of
    masks[u] within R_i, in the first rank fields; the other rank fields
    hold those of u W_J, read off the masks of the inverses.  Each field
    is one :func:`~weylpat.weyl._plane_sum` of the byte planes of the
    masks, weighting each root of R_i by 1; a count is at most the
    element's length, and R_i has fewer than 2^8 roots.
    """
    rs = wg.rs
    support = [[1 if rs.simple_coords[r][i] else 0 for r in rs.positive]
               for i in range(rs.rank)]
    fields = []
    for masks in (wg.masks, map(wg.masks.__getitem__, wg.inverses)):
        planes = _byte_planes(masks, rs.num_positive)
        fields += [_plane_sum(planes, _plane_tables(weights))[::-1] for weights in support]
    return fields


def _bits(m: int) -> list[int]:
    """The set bits of m >= 0, ascending: one C-level search per bit of bin(m)."""
    digits = bin(m)
    top = len(digits) - 1
    out = []
    i = digits.rfind("1")
    while i > 1:
        out.append(top - i)
        i = digits.rfind("1", 2, i)
    return out


class _KLTable:
    """Per-group memo over orbit representatives and their extremal keys.

    Every filled column sits in one flat store of two aligned arrays,
    ``keys``, an ``array('i')``, and ``key_ids``, an ``array('H')``: the
    column of a filled representative r is ``keys[a:b]``, the u <= r with
    D_L(u) >= D_L(r) and D_R(u) >= D_R(r) in ascending index, beside
    ``key_ids[a:b]``, with P(u,r) = values[id], where a = ``start[r]`` and
    b = a + ``count[r]``; ``start[r]`` is -1 until r is filled.
    :meth:`_span` gives (a, b), filling the column first if need be.
    ``ids`` interns the values and ``values`` lists them by id, with
    ``values[0] == 1``.  ``code[v]``, one byte, picks out of ``maps`` =
    (None, inverses, conj, inv_conj) the involution of v's orbit under
    inversion and w0-conjugation that takes v to its representative, None
    for the identity; where w0 is central no code is 2 or 3, and ``maps``
    ends at the inverses.  :meth:`_orbit` reads both.  ``left[u]`` and
    ``right[u]`` are the left and right descent sets of u as bit masks
    over 0-based simple indices, in arrays of the narrowest typecode that
    holds rank bits, and ``with_left[s]`` and ``with_right[t]`` are bit
    masks over element indices of the u with s in D_L(u), resp. t in
    D_R(u); ``bits[m]`` lists the set bits of a descent mask m, and
    ``lrows[m]`` is the lmult row of its lowest bit, the raising step of
    every read.  The table keeps no right multiplication rows:
    u s_t = (s_t u^-1)^-1 and D_R(u) = D_L(u^-1), so a right raise of u
    through J is a left raise of u^-1 through the same ``lrows`` and
    ``left``, mapped back through ``inverses``.  ``fields`` holds the
    parabolic lengths of :func:`_parabolic_lengths`, and
    ``at_most[f][t]`` the bit mask over element indices of the u with
    value at most t in ``fields[f]``, built on first use by
    :meth:`_candidates`.  ``decoded`` memoizes :meth:`polynomial` by
    (packed value, length gap).

    A query reads one value at a time through :meth:`_reader`, which
    finds the raised u among the keys by bisection.  A fill reads whole
    lists of u from each column it needs: :meth:`_frame` gives the
    column's flip, descent masks and key -> value dict once, and
    :meth:`_compute_column` flips, raises and looks up every u in its
    own loops.
    """

    def __init__(self, wg: WeylGroup, descent: Callable[[int], int] | None = None):
        self.wg = wg
        size = wg.size
        self.keys = array("i")
        self.key_ids = array("H")
        self.start = array("i", [-1]) * size
        self.count = array("i", [0]) * size
        self.ids = _ValueIds()
        self.values = self.ids.values
        self.decoded: dict[tuple[int, int], KLPolynomial] = {}
        # descent maps an element index to a 0-based simple index that is
        # a left descent
        self.descent = descent or self._cheapest_descent
        inv = wg.inverses
        # built first, while its byte planes are the largest thing held
        self.fields = _parabolic_lengths(wg)
        conj = _w0_conjugation(wg)
        inv_conj = list(map(inv.__getitem__, conj))
        # the least image wins, the first of equal ones, by three plain
        # comparisons, which cost less than a call of min on four arguments
        self.code = code = bytearray()
        for v, i, c, ic in zip(range(size), inv, conj, inv_conj):
            r, k = v, 0
            if i < r:
                r, k = i, 1
            if c < r:
                r, k = c, 2
            if ic < r:
                k = 3
            code.append(k)
        # where w0 is central conj is the identity and is not kept
        self.maps = (None, inv, conj, inv_conj) if max(code) > 1 else (None, inv)
        rs = wg.rs
        rank = rs.rank
        # the simple roots take the first rank positive positions (height 1);
        # order[m] is the descent mask, over simple indices, of a mask m over
        # those positions, so left[u] reads the low bits of masks[u]; since
        # |W| >= 2^rank, a group that was built has rank at most 64
        order = [0]
        for p in sorted(range(rank), key=lambda i: rs._left_steps[i][0]):
            order += [m | 1 << p for m in order]
        typecode = next(t for t in "BHILQ" if 8 * array(t).itemsize >= rank)
        self.left = left = array(typecode, map(order.__getitem__,
                                               map(((1 << rank) - 1).__and__, wg.masks)))
        self.right = array(typecode, map(left.__getitem__, inv))
        # bits[m] lists the set bits of a descent mask m < 2^rank, ascending
        self.bits: list[tuple[int, ...]] = [()]
        for b in range(rank):
            self.bits += [t + (b,) for t in self.bits]
        # the raising step of a read: the row of the lowest missing descent
        self.lrows = [wg.lmult[b[0]] if b else None for b in self.bits]
        self.with_left = _index_sets(self.left, rank)
        self.with_right = _index_sets(self.right, rank)
        self.at_most: list[dict[int, int]] = [{} for _ in self.fields]

    def _orbit(self, v: int) -> tuple[list[int] | None, int]:
        """(f, r): r is the representative of v's orbit and f the involution
        taking v to r, an index list, or None for the identity."""
        f = self.maps[self.code[v]]
        return f, v if f is None else f[v]

    def _cheapest_descent(self, v: int) -> int:
        """The left descent s of v whose filled column sv has the fewest keys.

        Only representatives already in the store are candidates, and the
        smaller s wins a tie; with none filled, the smallest descent.
        Fills nothing.
        """
        start, count, lmult = self.start, self.count, self.wg.lmult
        first = best = -1
        fewest = 0
        for s in self.bits[self.left[v]]:
            if first < 0:
                first = s
            x = self._orbit(lmult[s][v])[1]
            if start[x] >= 0 and (best < 0 or count[x] < fewest):
                best, fewest = s, count[x]
        return first if best < 0 else best

    def _span(self, r: int) -> tuple[int, int]:
        """(a, b) with the column of the representative r at keys[a:b] and
        key_ids[a:b], filled first if need be."""
        a = self.start[r]
        if a < 0:
            keys, ids = self._compute_column(r)
            # the value list's lock: no fill interns while it appends
            with self.ids.lock:
                a = self.start[r]
                if a < 0:
                    # the start last, so a reader that sees it sees the column
                    a = len(self.keys)
                    self.keys.fromlist(keys)
                    self.key_ids.fromlist(ids)
                    self.count[r] = len(keys)
                    self.start[r] = a
        return a, a + self.count[r]

    def ensure_column(self, v: int) -> tuple[array, array]:
        """(keys, ids) of the column of v's representative, copied out of the
        store, filled first if need be."""
        a, b = self._span(self._orbit(v)[1])
        return self.keys[a:b], self.key_ids[a:b]

    def _reader(self, v: int) -> Callable[[int], int]:
        """u -> packed P(u,v), 0 when u is not below v; fills column rep(v) first.

        u is flipped into the frame of the representative r, raised through
        the left descents of r it lacks, then the right ones, to the
        extremal element of r in its double coset, and found among the keys
        of r by bisection within r's span of the store; u <= r exactly when
        that element is a key.
        """
        f, r = self._orbit(v)
        a, b = self._span(r)
        keys, key_ids = self.keys, self.key_ids
        left, right, lrows, inv = self.left, self.right, self.lrows, self.wg.inverses
        need_left, need_right = left[r], right[r]
        values = self.values

        def read(u: int) -> int:
            if f is not None:
                u = f[u]
            missing = need_left & ~left[u]
            while missing:
                u = lrows[missing][u]
                missing = need_left & ~left[u]
            missing = need_right & ~right[u]
            if missing:
                # the right raise of u is the left raise of u^-1
                u = inv[u]
                while missing:
                    u = lrows[missing][u]
                    missing = need_right & ~left[u]
                u = inv[u]
            i = bisect_left(keys, u, a, b)
            return values[key_ids[i]] if i < b and keys[i] == u else 0
        return read

    def polynomial(self, u: int, v: int) -> KLPolynomial:
        """P(u,v) for element indices u <= v, decoded once per distinct value.

        ``decoded`` maps (value, l(v) - l(u)) to its polynomial, so each
        distinct value passes the checks of :func:`_unpack` once and is
        shared by every pair that holds it.
        """
        val = self._reader(v)(u)
        wg = self.wg
        if not val:
            raise NotComparableError(
                f"not comparable: {format_word(WeylElement(wg.rs, wg.masks[u]))} "
                f"!<= {format_word(WeylElement(wg.rs, wg.masks[v]))}"
            )
        return self._decode(val, wg.lengths[v] - wg.lengths[u])

    def _decode(self, val: int, gap: int) -> KLPolynomial:
        """The polynomial of packed value val at length gap, decoded once per pair."""
        poly = self.decoded.get((val, gap))
        if poly is None:
            poly = self.decoded[(val, gap)] = _unpack(val, gap)
        return poly

    def _entries(self, v: int) -> list[tuple[int, int]]:
        """(u, packed P(u,v)) for every u in D(v), ascending u.

        D(r), r the representative of v, is the union of the double cosets
        W_I k W_J of its keys k, I and J its left and right descents, each
        a Bruhat interval with top k on which P(-, r) is constant; each is
        walked from k through the lmult rows of I, and of J between
        inverses, as x s_t = (s_t x^-1)^-1.
        """
        f, r = self._orbit(v)
        a, b = self._span(r)
        lmult, inv = self.wg.lmult, self.wg.inverses
        on_left = [lmult[s] for s in self.bits[self.left[r]]]
        on_right = [lmult[t] for t in self.bits[self.right[r]]]
        found: dict[int, int] = {}
        for k, p in zip(self.keys[a:b], map(self.values.__getitem__, self.key_ids[a:b])):
            found[k] = p
            stack = [k]
            while stack:
                x = stack.pop()
                for row in on_left:
                    y = row[x]
                    if y not in found:
                        found[y] = p
                        stack.append(y)
                x = inv[x]
                for row in on_right:
                    y = inv[row[x]]
                    if y not in found:
                        found[y] = p
                        stack.append(y)
        return sorted(found.items() if f is None else ((f[u], p) for u, p in found.items()))

    def _mu_terms(self, y: int, s: int) -> list[tuple[int, int]]:
        """(z, mu(z,y)) for every z with mu(z,y) != 0 and sz < z, read off the
        column of y's representative r, which must be filled.

        A z with mu(z,r) != 0 that lacks a left descent s' of r is s'r, and
        one that lacks a right descent t of r is rt (Kazhdan-Lusztig 1979,
        2.3; Bjorner-Brenti, GTM 231, ch. 5), where mu is 1; every other z
        is a key of r at odd gap.  The keys come first, in key order, then
        the coatoms of r, ascending, each flipped into the frame of y; a
        key's mu is read only once sz < z holds.
        """
        f, r = self._orbit(y)
        a, b = self._span(r)
        wg = self.wg
        lengths, lmult, inv = wg.lengths, wg.lmult, wg.inverses
        row, values, lr = lmult[s], self.values, lengths[r]
        terms = []
        for z, i in zip(self.keys[a:b], self.key_ids[a:b]):
            gap = lr - lengths[z]
            if gap % 2:
                if f is not None:
                    z = f[z]
                if row[z] < z:
                    m = values[i] >> _SHIFT * (gap // 2) & _MASK
                    if m:
                        terms.append((z, m))
        coatoms = {lmult[t][r] for t in self.bits[self.left[r]]}
        coatoms.update(inv[lmult[t][inv[r]]] for t in self.bits[self.right[r]])
        for z in sorted(coatoms):
            if f is not None:
                z = f[z]
            if row[z] < z:
                terms.append((z, 1))
        return terms

    def _candidates(self, v: int) -> int:
        """The bit mask over element indices of the candidate keys of v.

        These are v and the u shorter than v (u <= v with l(u) = l(v)
        means u = v) whose descents contain those of v and whose minimal
        coset representatives, for each maximal parabolic on either side,
        are no longer than those of v: projection onto a parabolic
        quotient preserves Bruhat order (Bjorner-Brenti, GTM 231, Prop.
        2.5.1).
        """
        bits = self.bits
        below = (1 << self.wg.starts[self.wg.lengths[v]]) - 1 | 1 << v
        for d in bits[self.left[v]]:
            below &= self.with_left[d]
        for d in bits[self.right[v]]:
            below &= self.with_right[d]
        for field, at_most in zip(self.fields, self.at_most):
            t = field[~v]
            m = at_most.get(t)
            if m is None:
                # the mask of the u with field value at most t; racing fills
                # may both build it, and they store the same int
                m = at_most[t] = int(field.translate(b"1" * (t + 1) + b"0" * (255 - t)), 2)
            below &= m
        return below

    def _frame(self, v: int) -> tuple[list[int] | None, int, int, dict[int, int]]:
        """What a bulk read of column v needs: for r the representative of
        v, filled first if need be, (the flip of v, D_L(r), D_R(r), the dict
        key -> packed P(key, r))."""
        f, r = self._orbit(v)
        a, b = self._span(r)
        return (f, self.left[r], self.right[r],
                dict(zip(self.keys[a:b], map(self.values.__getitem__, self.key_ids[a:b]))))

    def _compute_column(self, v: int) -> tuple[list[int], list[int]]:
        """(keys, ids) of column v, as lists, for :meth:`_span` to store."""
        wg = self.wg
        lengths = wg.lengths
        if lengths[v] == 0:
            return [v], [0]
        s = self.descent(v)
        row = wg.lmult[s]
        sv = row[v]
        lv = lengths[v]
        # the mu-terms z < sv with sz < z, read off column sv, which is filled
        # first if need be; each column z is filled by its read below
        terms = [(z, m << (_SHIFT * ((lv - lengths[z]) // 2)))
                 for z, m in self._mu_terms(sv, s)]

        # Each read below flips u into the frame of a representative r,
        # raises it through the left descents of r it lacks, then the right
        # ones, as a left raise of its inverse, and looks the result up among
        # the keys of r; a miss is 0.  The raise is written out in each loop:
        # a call per read, or per list of reads, makes the fill slower by
        # about a tenth.
        left, right, lrows, inv = self.left, self.right, self.lrows, wg.inverses

        # the keys of v: each candidate u with D_L(u) >= D_L(v) and
        # D_R(u) >= D_R(v) for which u <= v, that is su <= sv; there
        #   P(u,v) = P(su,sv) + q P(u,sv) - sum of mu(z,sv) q^((l(v)-l(z))/2) P(u,z)
        f, need_left, need_right, index = self._frame(sv)
        keys, vals = [], []
        us = _bits(self._candidates(v))
        sus = map(row.__getitem__, us)
        for u, x in zip(us, sus if f is None else map(f.__getitem__, sus)):
            missing = need_left & ~left[x]
            while missing:
                x = lrows[missing][x]
                missing = need_left & ~left[x]
            missing = need_right & ~right[x]
            if missing:
                x = inv[x]
                while missing:
                    x = lrows[missing][x]
                    missing = need_right & ~left[x]
                x = inv[x]
            p = index.get(x)
            if p:
                x = u if f is None else f[u]
                missing = need_left & ~left[x]
                while missing:
                    x = lrows[missing][x]
                    missing = need_left & ~left[x]
                missing = need_right & ~right[x]
                if missing:
                    x = inv[x]
                    while missing:
                        x = lrows[missing][x]
                        missing = need_right & ~left[x]
                    x = inv[x]
                keys.append(u)
                vals.append(p + (index.get(x, 0) << _SHIFT))
        for z, m in terms:
            f, need_left, need_right, index = self._frame(z)
            # P(u,z) = 0 unless u <= z, so no key past index z
            us = islice(keys, bisect_right(keys, z))
            for i, x in enumerate(us if f is None else map(f.__getitem__, us)):
                missing = need_left & ~left[x]
                while missing:
                    x = lrows[missing][x]
                    missing = need_left & ~left[x]
                missing = need_right & ~right[x]
                if missing:
                    x = inv[x]
                    while missing:
                        x = lrows[missing][x]
                        missing = need_right & ~left[x]
                    x = inv[x]
                p = index.get(x)
                if p:
                    vals[i] -= m * p
        return keys, list(map(self.ids.__getitem__, vals))


def _table_for(wg: WeylGroup) -> _KLTable:
    """The KL table of wg, built on first use and kept on wg."""
    if wg._kl_table is None:
        wg._kl_table = _KLTable(wg)
    return wg._kl_table


def kl_polynomial(u: WeylElement, v: WeylElement,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> KLPolynomial:
    """The Kazhdan-Lusztig polynomial P_(u,v); requires u <= v."""
    wg = WeylGroup.for_system(u.group, cap)
    return _table_for(wg).polynomial(wg.idx(u), wg.idx(v))


def mu(u: WeylElement, v: WeylElement, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """The mu coefficient: top permitted coefficient of P_(u,v).

    Zero when l(v) - l(u) is even (in particular for u = v), otherwise
    the coefficient of q^((l(v)-l(u)-1)/2).
    """
    poly = kl_polynomial(u, v, cap)
    gap = v.length - u.length
    if gap % 2 == 0:
        return 0
    return poly.coefficient((gap - 1) // 2)


def is_rationally_smooth(v: WeylElement, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """True when P_(u,v) = 1 for every u <= v.

    In type A this is also equivalent to smoothness of the corresponding
    Schubert variety.
    """
    wg = WeylGroup.for_system(v.group, cap)
    # every value of column v is a value at a key of the representative's
    # column; id 0 is the value 1
    _, ids = _table_for(wg).ensure_column(wg.idx(v))
    return not any(ids)

