"""Kazhdan-Lusztig polynomials over enumerable Weyl groups.

Computation uses the classical recursion on a left descent s of v:

    P(u,v) = q^(1-c) P(su,sv) + q^c P(u,sv)
             - sum over z with u <= z < sv, sz < z of
               mu(z,sv) q^((l(v)-l(z))/2) P(u,z)

with c = 1 when su < u and c = 0 otherwise, where mu(z,y) is the
coefficient of q^((l(y)-l(z)-1)/2) in P(z,y).  When su > u the recursion
collapses to P(u,v) = P(su,v), which is what the implementation uses for
that case.  The descent is chosen deterministically: among the left
descents s of v whose column sv is already filled, the one with the
fewest keys (the smaller s on a tie), else the smallest descent.  A
short column sv means fewer entries to scatter and fewer mu-terms to
subtract; the rule reads only columns already filled and fills none
itself, so a cold point query fills no column it would not fill with
the smallest descent, while a sweep in index order, where every sv is
filled, always gets the cheapest choice.  Independence of the choice is
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

Each ``WeylGroup`` keeps its table, a list indexed by the element index
v of the enumerated group: entry v is None until v is a filled
representative, then a pair of arrays over the down-set D(v): ``keys``,
an ``array('i')`` of the u <= v in ascending index, and ``ids``, an
aligned ``array('H')`` of ids into one table-wide list of the distinct
packed values, as in du Cloux's *Coxeter* (Experiment. Math. 11, 2002).
An entry takes 6 bytes; the full S7 table has about a million entries
but 98 distinct values.  Id 0 is the value 1, so v is rationally smooth
exactly when every id of its column is 0.  A query finds u among the
keys by bisection.  Columns are filled on demand: column v reads only
column sv and the columns z of its mu-terms, and fills their
representatives first, recursively, so a query touches a few columns
rather than all of D(v), at a recursion depth of at most l(v) + 1.  A
fill scatters into one dense list over the indices up to v, where D(v)
lies as indices ascend with length: each P(x,sv) lands on the descent
of the pair {x, s.x}, as q P(x,sv) at x or as P(x,sv) at s.x, each mu-term column is subtracted entry by
entry, and each ascent u (su > u) then takes the value at su, which is
final.  A column read through another representative is read with its
keys relabelled, and no column is turned into a dict.  The keys of column v
are the lifting step D(v) = D(sv) | s.D(sv) over the keys of column sv,
so the table never needs the group's Bruhat down-sets.  A column is built
locally and stored in one assignment, so a concurrent caller sees no
column or the whole column.  The value list is the one state that fills
share: a value seen for the first time is checked and appended under a
lock, checked for again inside it, so racing fills give a value one id
and a column filled twice is filled with the same ids.  The orbit maps
are built in the table's constructor, before any caller can see it.
Polynomials are packed as Python ints with 16 bits per coefficient,
which keeps the sweeps over six-letter symmetric groups fast; the
largest coefficient seen, in the full S8 table, is 73.  A value is
checked as it is interned: positive, constant term 1 and every
coefficient below 2^15, so a borrow from a negative coefficient cannot
pass.  Decoding checks the sign, the constant term and the degree bound;
each table decodes a distinct (value id, length gap) once and hands the
same immutable ``KLPolynomial`` to every index-level read of it.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from typing import Callable, Iterable, Iterator

from .errors import InternalInvariantError, NotComparableError
from .weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    format_word,
    from_word,
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
    Each reduced word is folded through the lmult rows with its letters
    relabelled by sigma, as ``WeylGroup.inverses`` folds them.
    """
    lmult, inv = wg.lmult, wg.inverses
    col = [row[wg.size - 1] for row in lmult]  # s_i w0 for each i
    sigma = [col.index(inv[c]) for c in col]
    conj = []
    for word in wg.words:
        k = 0
        for i in reversed(word):
            k = lmult[sigma[i - 1]][k]
        conj.append(k)
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
        self.lock = threading.Lock()

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


class _KLTable:
    """Per-group memo over orbit representatives.

    ``packed[r]`` is None or, for a representative r, the pair
    (keys, ids): ``keys`` is an ``array('i')`` of D(r) in ascending index,
    and ``ids`` an aligned ``array('H')`` with P(u,r) = values[id].
    ``ids`` interns the values and ``values`` lists them by id, with
    ``values[0] == 1``.  ``rep[v]`` is the representative of v's orbit
    under inversion and w0-conjugation, and ``flip[v]`` the involution of
    that orbit group taking v to ``rep[v]``, as an index list, or None for
    the identity.  ``decoded`` memoizes :meth:`polynomial` by
    (value id, length gap).
    """

    def __init__(self, wg: WeylGroup, descent: Callable[[int], int] | None = None):
        self.wg = wg
        self.packed: list[tuple[array, array] | None] = [None] * wg.size
        self.ids = _ValueIds()
        self.values = self.ids.values
        self.decoded: dict[tuple[int, int], KLPolynomial] = {}
        # descent maps an element index to a 0-based simple index that is
        # a left descent
        self.descent = descent or self._cheapest_descent
        inv = wg.inverses
        self.conj = conj = _w0_conjugation(wg)
        inv_conj = [inv[k] for k in conj]
        maps = (None, inv, conj, inv_conj)
        self.rep: list[int] = []
        self.flip: list[list[int] | None] = []
        for v in range(wg.size):
            images = (v, inv[v], conj[v], inv_conj[v])
            r = min(images)
            self.rep.append(r)
            self.flip.append(maps[images.index(r)])

    def _cheapest_descent(self, v: int) -> int:
        """The left descent s of v whose filled column sv has the fewest keys.

        Only representatives already in ``packed`` are candidates, and the
        smaller s wins a tie; with none filled, the smallest descent.
        Fills nothing.  A left descent is an s with s.v < v, since
        indices ascend with length.
        """
        packed, rep = self.packed, self.rep
        first = best = -1
        fewest = 0
        for s, row in enumerate(self.wg.lmult):
            sv = row[v]
            if sv < v:
                if first < 0:
                    first = s
                col = packed[rep[sv]]
                if col is not None and (best < 0 or len(col[0]) < fewest):
                    best, fewest = s, len(col[0])
        return first if best < 0 else best

    def ensure_column(self, v: int) -> tuple[array, array]:
        """(keys, ids) of the column of rep[v], filled first if need be."""
        r = self.rep[v]
        col = self.packed[r]
        if col is None:
            col = self.packed[r] = self._compute_column(r)
        return col

    def polynomial(self, u: int, v: int) -> KLPolynomial:
        """P(u,v) for element indices u <= v, decoded once per distinct value.

        ``decoded`` maps (id, l(v) - l(u)) to its polynomial, so each
        distinct value passes the checks of :func:`_unpack` once and is
        shared by every pair that holds it.
        """
        f = self.flip[v]
        keys, ids = self.ensure_column(v)
        # P(u,v) = P(f(u), rep(v)): one search in the representative's keys
        k = u if f is None else f[u]
        i = bisect_left(keys, k)
        wg = self.wg
        if i == len(keys) or keys[i] != k:
            raise NotComparableError(
                f"not comparable: {format_word(from_word(wg.rs, wg.words[u]))} "
                f"!<= {format_word(from_word(wg.rs, wg.words[v]))}"
            )
        return self._decode(ids[i], wg.lengths[v] - wg.lengths[u])

    def polynomials(self, v: int) -> Iterator[tuple[int, KLPolynomial]]:
        """(u, P(u,v)) for every u in D(v), read in one pass over column v.

        The order is that of the representative's keys; each (id, gap)
        is decoded through ``decoded`` as in :meth:`polynomial`.
        """
        keys, ids = self.ensure_column(v)
        f = self.flip[v]
        lengths = self.wg.lengths
        lv = lengths[v]
        for k, i in zip(keys, ids):
            u = k if f is None else f[k]
            yield u, self._decode(i, lv - lengths[u])

    def _decode(self, i: int, gap: int) -> KLPolynomial:
        """The polynomial of value id i at length gap, decoded once per pair."""
        poly = self.decoded.get((i, gap))
        if poly is None:
            poly = self.decoded[(i, gap)] = _unpack(self.values[i], gap)
        return poly

    def column(self, v: int) -> dict[int, int]:
        """Column v as a fresh dict u -> packed P(u,v) over D(v)."""
        return dict(zip(*self._entries(v)))

    def _entries(self, v: int) -> tuple[Iterable[int], Iterable[int]]:
        """Column v as two aligned iterators, u in D(v) and packed P(u,v)."""
        keys, ids = self.ensure_column(v)
        f = self.flip[v]
        return (keys if f is None else map(f.__getitem__, keys),
                map(self.values.__getitem__, ids))

    def _compute_column(self, v: int) -> tuple[array, array]:
        wg = self.wg
        lengths = wg.lengths
        if lengths[v] == 0:
            return array("i", [v]), array("H", [0])
        s = self.descent(v)
        row = wg.lmult[s]
        sv = row[v]
        lv, lsv = lengths[v], lengths[sv]
        keys_sv, vals_sv = map(list, self._entries(sv))

        # at each descent u (su < u; indices ascend with length):
        #   P(u,v) = P(su,sv) + q P(u,sv) - sum of mu(z,sv) q^((l(v)-l(z))/2) P(u,z)
        # over the descents z of D(sv) with l(sv) - l(z) odd; each term is
        # scattered into acc, and what lands on ascents is never read;
        # every index of D(v) is at most v (indices ascend with length)
        acc = [0] * (v + 1)
        mu_terms: list[tuple[int, int]] = []
        for x, p in zip(keys_sv, vals_sv):
            sx = row[x]
            if sx > x:
                acc[sx] += p
                continue
            acc[x] += p << _SHIFT
            gap = lsv - lengths[x]
            if gap % 2:
                mu_val = (p >> (_SHIFT * (gap // 2))) & _MASK
                if mu_val:
                    mu_terms.append((x, mu_val << (_SHIFT * ((lv - lengths[x]) // 2))))
        for z, m in mu_terms:
            # fills column z first if need be, so depth stays within l(v) + 1
            for x, p in zip(*self._entries(z)):
                acc[x] -= m * p

        # lifting: D(v) = D(sv) | s.D(sv); an ascent u takes P(su,v)
        down = set(keys_sv)
        down.update(map(row.__getitem__, keys_sv))
        keys = sorted(down)
        vals = [acc[su] if (su := row[u]) > u else acc[u] for u in keys]
        # arrays from lists are allocated to size; from iterators they over-allocate
        return array("i", keys), array("H", list(map(self.ids.__getitem__, vals)))


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
    # the representative's column holds the same values as v's, relabelled;
    # id 0 is the value 1
    _, ids = _table_for(wg).ensure_column(wg.idx(v))
    return not any(ids)

