"""Kazhdan-Lusztig polynomials over enumerable Weyl groups.

Computation uses the classical recursion on a left descent s of v:

    P(u,v) = q^(1-c) P(su,sv) + q^c P(u,sv)
             - sum over z with u <= z < sv, sz < z of
               mu(z,sv) q^((l(v)-l(z))/2) P(u,z)

with c = 1 when su < u and c = 0 otherwise, where mu(z,y) is the
coefficient of q^((l(y)-l(z)-1)/2) in P(z,y).  When su > u the recursion
collapses to P(u,v) = P(su,v), which is what the implementation uses for
that case.  The descent is chosen deterministically (smallest simple
index); independence of the choice is asserted in the test suite by
recomputing whole tables with other descent choices.

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
representative, then a dict over the down-set D(v) mapping each u <= v to
P(u,v).  Columns are filled on demand: column v reads only column sv and
the columns z of its mu-terms, and fills their representatives first,
recursively, so a query touches a few columns rather than all of D(v),
at a recursion depth of at most l(v) + 1.  A column read through another
representative is relabelled into a short-lived dict for that one fill.
The keys of column v come from the lifting step D(v) = D(sv) | s.D(sv)
over the keys of column sv, so the table never needs the group's Bruhat
down-sets.  A column is built locally and stored in one assignment, so a
concurrent caller sees no column or the whole column; a column filled
twice by racing callers is filled with the same values.  The orbit maps
are built in the table's constructor, before any caller can see it.
Polynomials are packed as Python ints with 16 bits per coefficient,
which keeps the sweeps over six-letter symmetric groups fast;
coefficients at the ranks this package targets stay far below 2^16.
Decoding checks the sign, the constant term and the degree bound; each
table decodes a distinct (packed value, length gap) once and hands the
same immutable ``KLPolynomial`` to every index-level read of it.
"""

from __future__ import annotations

from typing import Callable

from .errors import InternalInvariantError, NotComparableError
from .weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    format_word,
)

__all__ = ["KLPolynomial", "kl_polynomial", "mu", "is_rationally_smooth"]

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1


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

    w0 s_i w0 = s_sigma(i) for a permutation sigma of the simple indices,
    so each reduced word is folded through the lmult rows with its
    letters relabelled by sigma, as ``WeylGroup.inverses`` folds them.
    """
    w0 = wg.size - 1
    lmult = wg.lmult
    sigma = [wg.words[wg.mul(w0, wg.mul(row[0], w0))][0] - 1 for row in lmult]
    conj = []
    for word in wg.words:
        k = 0
        for i in reversed(word):
            k = lmult[sigma[i - 1]][k]
        conj.append(k)
    return conj


class _KLTable:
    """Per-group memo over orbit representatives.

    ``packed[r]`` is None or, for a representative r, the dict
    u -> packed P(u,r) over D(r); other entries stay None.  ``rep[v]`` is
    the representative of v's orbit under inversion and w0-conjugation,
    and ``flip[v]`` the involution of that orbit group taking v to
    ``rep[v]``, as an index list, or None for the identity.  ``decoded``
    memoizes :meth:`polynomial` by (packed value, length gap).
    """

    def __init__(self, wg: WeylGroup, descent: Callable[[int], int] | None = None):
        self.wg = wg
        self.packed: list[dict[int, int] | None] = [None] * wg.size
        self.decoded: dict[tuple[int, int], KLPolynomial] = {}
        # descent maps an element index to a 0-based simple index that is
        # a left descent; default is the smallest one
        self.descent = descent or (lambda v: self.wg.min_left_descent_idx(v))
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

    def ensure_column(self, v: int) -> dict[int, int]:
        """The column of rep[v], keyed by D(rep[v]), filled first if need be."""
        r = self.rep[v]
        col = self.packed[r]
        if col is None:
            col = self.packed[r] = self._compute_column(r)
        return col

    def polynomial(self, u: int, v: int) -> KLPolynomial:
        """P(u,v) for element indices u <= v, decoded once per distinct value.

        ``decoded`` maps (packed, l(v) - l(u)) to its polynomial, so each
        distinct value passes the checks of :func:`_unpack` once and is
        shared by every pair that holds it.
        """
        f = self.flip[v]
        # P(u,v) = P(f(u), rep(v)): one lookup in the representative's column
        packed = self.ensure_column(v).get(u if f is None else f[u])
        wg = self.wg
        if packed is None:
            raise NotComparableError(
                f"not comparable: {format_word(wg.elements[u])} !<= {format_word(wg.elements[v])}"
            )
        key = (packed, wg.lengths[v] - wg.lengths[u])
        poly = self.decoded.get(key)
        if poly is None:
            poly = self.decoded[key] = _unpack(*key)
        return poly

    def column(self, v: int) -> dict[int, int]:
        """Column v keyed by D(v): the representative's column relabelled.

        A representative's stored dict is returned as it is, not copied.
        """
        col = self.ensure_column(v)
        f = self.flip[v]
        return col if f is None else {f[u]: p for u, p in col.items()}

    def _compute_column(self, v: int) -> dict[int, int]:
        wg = self.wg
        lengths = wg.lengths
        if lengths[v] == 0:
            return {v: 1}
        s = self.descent(v)
        row = wg.lmult[s]
        sv = row[v]
        lv = lengths[v]
        col_sv = self.column(sv)

        # mu data of column sv, restricted to z with sz < z; each column z
        # read below is filled here first, so depth stays within l(v) + 1
        mu_terms: list[tuple[dict[int, int], int, int]] = []
        for z, p in col_sv.items():
            gap = lengths[sv] - lengths[z]
            if gap % 2 == 0 or lengths[row[z]] >= lengths[z]:
                continue
            mu_val = (p >> (_SHIFT * ((gap - 1) // 2))) & _MASK
            if mu_val:
                mu_terms.append((self.column(z), mu_val,
                                 _SHIFT * ((lv - lengths[z]) // 2)))

        # lifting: D(v) = D(sv) | s.D(sv); descending index = descending length first
        down = set(col_sv)
        down.update([row[z] for z in col_sv])
        col: dict[int, int] = {}
        for u in sorted(down, reverse=True):
            if u == v:
                col[u] = 1
                continue
            su = row[u]
            if lengths[su] > lengths[u]:
                col[u] = col[su]
                continue
            val = col_sv.get(su, 0) + (col_sv.get(u, 0) << _SHIFT)
            for col_z, mu_val, shift in mu_terms:
                p = col_z.get(u)
                if p is not None:
                    val -= mu_val * (p << shift)
            col[u] = val
        return col


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
    # the representative's column holds the same values as v's, relabelled
    column = _table_for(wg).ensure_column(wg.idx(v))
    return all(p == 1 for p in column.values())

