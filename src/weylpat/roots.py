"""Exact realizations of the finite crystallographic root systems.

All arithmetic is exact; no floating point is used anywhere in the
package.  The root tables are integer.  The roots are the unit vectors
of the coordinates over the simple roots (``simple_coords``) closed
under the simple reflections s_i(b) = b - <b, a_i^v> e_i that the
Cartan matrix gives (Bourbaki, Lie Groups and Lie Algebras, ch. VI, 1).
Those steps are the rows of the simple reflections in the reflection
table, and every other row is a conjugate: s_a = s_i s_p s_i for
a = s_i(p), two ``map`` calls per row.  The roots are ordered by their
ambient vectors in integers, the simple roots scaled over one common
denominator; ``roots``, the ambient vectors with `fractions.Fraction`
coordinates, is built on first read, for display, so nothing else
imports ``fractions``.  The realization of each simple type is fixed
once and for all so that root indices are reproducible bit for bit:

    A1          {+-e1} in R^1
    An (n>=2)   {e_i - e_j : i != j} in R^(n+1),  alpha_i = e_i - e_(i+1)
    Bn (n>=2)   {+-e_i +- e_j, +-e_i} in R^n,   alpha_n = e_n
    Cn (n>=2)   {+-e_i +- e_j, +-2e_i} in R^n,  alpha_n = 2e_n
    Dn (n>=3)   {+-e_i +- e_j} in R^n,          alpha_n = e_(n-1) + e_n
    E6, E7, E8  inside R^8 (E6 and E7 use the first 6 resp. 7 simple
                roots of the E8 realization)
    F4          R^4: e2-e3, e3-e4, e4, (e1-e2-e3-e4)/2
    G2          R^3: e1-e2, -2e1+e2+e3

"B1" and "C1" are accepted as aliases of "A1".  "D1" and "D2" are
rejected so that no system is silently aliased to A1 or A1xA1.
Reducible types such as "A2xB2" are orthogonal direct sums, juxtaposed
in the order written, with simple roots numbered consecutively factor
by factor.

Roots are listed sorted by height (the coefficient sum over simple
roots), then lexicographically by coordinates.  Negative roots therefore
come first, the simple roots are exactly the roots of height 1, and all
indices, and everything downstream keyed on them, are stable across runs.

The Cartan matrix convention is ``cartan_matrix[i][j] = 2(a_i, a_j) /
(a_i, a_i)``, i.e. row i pairs the i-th simple coroot against the j-th
simple root.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from operator import mul

from .errors import InternalInvariantError, InvalidCartanType

TYPE_CHECKING = False  # true for a type checker only, so no run imports typing
if TYPE_CHECKING:
    from fractions import Fraction

Vector = tuple["Fraction", ...]

__all__ = [
    "Vector",
    "RootSystem",
    "build_root_system",
    "clear_caches",
]


def _reduce(basis: list[tuple[int, list[int]]], v: Sequence[int]) -> list[int]:
    """v with every pivot column of an echelon basis cleared, fraction free.

    The result is all zero exactly when v lies in the span of the basis.
    """
    for p, row in basis:
        if v[p]:
            c, q = row[p], v[p]
            v = [c * x - q * y for x, y in zip(v, row)]
    return list(v)


def _echelon(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """An integer echelon basis of independent rows, as (pivot, row) pairs.

    Each row is reduced against the rows before it, so it is zero in
    their pivot columns.  Raises ValueError on linearly dependent rows.
    """
    basis: list[tuple[int, list[int]]] = []
    for v in rows:
        v = _reduce(basis, v)
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            raise ValueError("basis is linearly dependent")
        basis.append((pivot, v))
    return basis


def _byte_tables(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """One table per byte of a mask over len(images) bits, so that the sum of
    images[j] over the set bits j of a mask m is the sum over k of
    tables[k][m >> 8k & 255].

    A table doubles once per bit: the entries with that bit set are the
    entries so far plus its image, so the last table is only as long as
    the bits left, 2^b entries for b < 8 bits.  The sum is the OR where
    the images are disjoint single bits, as those of a left step are.
    """
    tables = []
    for lo in range(0, len(images), 8):
        t = [0]
        for image in images[lo:lo + 8]:
            t += [x + image for x in t]
        tables.append(tuple(t))
    return tuple(tables)


# ---------------------------------------------------------------------------
# simple root tables
# ---------------------------------------------------------------------------

def _chain(n: int, dim: int) -> list[tuple[int, ...]]:
    """e_i - e_(i+1) for i = 1..n, in R^dim."""
    return [tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(dim))
            for i in range(n)]


# the E8 simple roots doubled, so over the denominator 2
_E8_SIMPLES = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)] + [
    tuple(-2 * x for x in r) for r in _chain(6, 8)
]
# the last simple root of Bn, Cn and Dn, padded on the left: e_n, 2e_n, e_(n-1) + e_n
_BCD_LAST = {"B": (0, 1), "C": (0, 2), "D": (1, 1)}


_FACTOR_RE = re.compile(r"([A-G])([0-9]+)")


def _parse_cartan_type(text: str) -> list[tuple[str, int]]:
    """Parse and canonicalize a type string into (letter, rank) factors."""
    if not isinstance(text, str) or not text.strip():
        raise InvalidCartanType(f"malformed type string: {text!r}")
    factors: list[tuple[str, int]] = []
    for part in text.strip().split("x"):
        m = _FACTOR_RE.fullmatch(part)
        if m is None:
            raise InvalidCartanType(f"malformed type string: {text!r} (bad factor {part!r})")
        letter, rank = m.group(1), int(m.group(2))
        if rank < 1:
            raise InvalidCartanType(f"unsupported rank: {part}")
        if letter in ("B", "C") and rank == 1:
            letter = "A"  # B1 and C1 alias A1
        if letter == "D" and rank < 3:
            raise InvalidCartanType(f"unsupported rank: {part} (D needs rank >= 3)")
        if letter == "E" and rank not in (6, 7, 8):
            raise InvalidCartanType(f"unsupported rank: {part} (E needs rank in 6..8)")
        if letter == "F" and rank != 4:
            raise InvalidCartanType(f"unsupported rank: {part} (only F4 exists)")
        if letter == "G" and rank != 2:
            raise InvalidCartanType(f"unsupported rank: {part} (only G2 exists)")
        factors.append((letter, rank))
    return factors


def _factor_simples(letter: str, rank: int) -> tuple[list[tuple[int, ...]], int, int]:
    """The simple roots of one irreducible factor as integers over a
    denominator, its ambient dimension, and that denominator."""
    if letter == "A":
        return (_chain(rank, rank + 1), rank + 1, 1) if rank > 1 else ([(1,)], 1, 1)
    if letter in _BCD_LAST:
        return _chain(rank - 1, rank) + [(0,) * (rank - 2) + _BCD_LAST[letter]], rank, 1
    if letter == "E":
        return _E8_SIMPLES[:rank], 8, 2
    if letter == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)], 4, 2
    return [(1, -1, 0), (-2, 1, 1)], 3, 1


# ---------------------------------------------------------------------------
# the root system object
# ---------------------------------------------------------------------------

class RootSystem:
    """A reduced crystallographic root system in a fixed exact realization.

    The roots and their tables are immutable after construction; all
    operations elsewhere in the package treat instances as values and are
    safe for concurrent reads.  Build instances with
    :func:`build_root_system`, which interns them per canonical type
    string.  ``simples`` are the simple roots' ambient vectors, integers
    or fractions, each divided by ``denominator``.

    The instance is the root of all cached state.  Four slots are filled
    lazily and idempotently: ``_roots`` holds the ambient vectors that
    ``roots`` gives, ``_group`` the enumerated
    :class:`~weylpat.weyl.WeylGroup`, which owns the per-group tables,
    ``_embeddings`` maps another system, as a realization and not only a
    type, to the search-node count and the embeddings of this system into
    it, and ``_pair_masks`` holds the Cartan-pairing masks that the
    embedding search into this system reads.

    Linearly dependent simple roots raise ValueError, and a pairing
    2(b, a)/(a, a) that is not an integer raises InvalidCartanType.
    """

    __slots__ = (
        "cartan_type", "rank", "ambient_dim", "positive", "simple",
        "reflection_table", "cartan_matrix", "heights", "simple_coords",
        "_ambient", "_denominator", "_root_tree",
        "_pos_position", "num_positive", "_left_steps",
        "_roots", "_group", "_embeddings", "_pair_masks",
    )

    def __init__(self, cartan_type: str, simples: Sequence[Sequence[Fraction | int]],
                 ambient_dim: int, denominator: int = 1):
        self.cartan_type = cartan_type
        self.rank = rank = len(simples)
        self.ambient_dim = ambient_dim

        # the simple roots as integers over one denominator, in lowest terms
        # so that equal systems store equal vectors, and their Gram matrix
        scale = math.lcm(*(x.denominator for s in simples for x in s))
        ints = [tuple(int(x * scale) for x in s) for s in simples]
        scale *= denominator
        common = math.gcd(scale, *(x for s in ints for x in s))
        ints = [tuple(x // common for x in s) for s in ints]
        scale //= common
        _echelon(ints)  # dependent simple roots raise ValueError
        gram = [[sum(map(mul, a, b)) for b in ints] for a in ints]
        self.cartan_matrix = cartan = tuple(
            tuple(_cartan_integer(cartan_type, g, row[i]) for g in row)
            for i, row in enumerate(gram)
        )

        # sort by height, then by ambient vector, as integer tuples
        steps = _integer_roots(cartan)
        columns = list(zip(*ints))
        keyed = sorted(
            (sum(c), tuple(sum(map(mul, c, col)) for col in columns), c) for c in steps)
        self._ambient = tuple(v for _, v, _ in keyed)
        self._denominator = scale
        self._roots: tuple[Vector, ...] | None = None
        self.heights = heights = tuple(h for h, _, _ in keyed)
        self.simple_coords = coords = tuple(c for _, _, c in keyed)
        coord_index = {c: i for i, c in enumerate(coords)}
        self.positive = tuple(i for i, h in enumerate(heights) if h > 0)
        self.num_positive = len(self.positive)
        self._pos_position = {r: p for p, r in enumerate(self.positive)}
        self.simple = simple = tuple(
            coord_index[tuple(int(i == j) for j in range(rank))] for i in range(rank)
        )

        # negation reverses the order, so root n - 1 - a is -a, and s_(-a) = s_a.
        # The simple rows are the closure's steps.  Each positive root a past
        # the simple ones, in height order, has <a, a_i^v> > 0 for some i, so
        # p = s_i(a) is a lower positive root, and row a is row i after row p
        # after row i: s_a = s_i s_p s_i.  The tree keeps (a, i, p).
        n = len(coords)
        table: list = [None] * n
        for i, a in enumerate(simple):
            table[a] = table[n - 1 - a] = tuple(coord_index[steps[c][i]] for c in coords)
        tree = []
        for a in self.positive[rank:]:
            i = next(i for i, s in enumerate(simple) if heights[table[s][a]] < heights[a])
            row_i = table[simple[i]]
            p = row_i[a]
            row = tuple(map(row_i.__getitem__, map(table[p].__getitem__, row_i)))
            table[a] = table[n - 1 - a] = row
            tree.append((a, i, p))
        ident = list(range(n))
        for a, row in enumerate(table):
            if row[a] != n - 1 - a or list(map(row.__getitem__, row)) != ident:
                raise InternalInvariantError(
                    f"reflection row {a} of {cartan_type} is not an involution "
                    "that sends its root to its negative")
        self.reflection_table = tuple(table)
        self._root_tree = tuple(tree)
        # per simple root a, for weyl._left_step: the bit of a, and the byte
        # tables of the bits of s_a(b) over the positive roots b, 0 for b = a
        pos = self._pos_position
        self._left_steps = tuple(
            (1 << pos[a], _byte_tables([0 if b == a else 1 << pos[table[a][b]]
                                        for b in self.positive]))
            for a in simple)
        self._group = None
        self._embeddings: dict[RootSystem, tuple] = {}
        self._pair_masks = None

    @property
    def roots(self) -> tuple[Vector, ...]:
        """The ambient vectors by root index, with `fractions.Fraction` coordinates.

        Built from the integer vectors on first read and kept; racing
        readers build equal tuples, and either may be kept.
        """
        if self._roots is None:
            from fractions import Fraction
            d = self._denominator
            self._roots = tuple(tuple(Fraction(x, d) for x in v) for v in self._ambient)
        return self._roots

    # -- basic queries ------------------------------------------------------

    def is_positive(self, i: int) -> bool:
        return self.heights[i] > 0

    def positive_position(self, i: int) -> int:
        """Position of root index i inside the positive root list."""
        return self._pos_position[i]

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type!r}, {len(self.simple_coords)} roots)"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, RootSystem) and self.cartan_type == other.cartan_type \
            and self._ambient == other._ambient and self._denominator == other._denominator

    def __hash__(self) -> int:
        return hash(self.cartan_type)


def _cartan_integer(cartan_type: str, pairing: int, norm: int) -> int:
    """2 pairing / norm, which must be an integer."""
    k, rest = divmod(2 * pairing, norm)
    if rest:
        raise InvalidCartanType(
            f"internal construction failure for {cartan_type}: "
            f"Cartan quotient {2 * pairing}/{norm} is not an integer"
        )
    return k


def _integer_roots(cartan: Sequence[Sequence[int]]) -> dict[tuple[int, ...], tuple]:
    """Simple-root coordinates of every root, each mapped to its images
    under s_1, ..., s_n: the unit vectors closed under
    s_i(b) = b - <b, a_i^v> e_i, where <b, a_i^v> = sum_j b_j cartan[i][j].

    A finite root system of rank n has at most 2n(n + 7) roots: an
    irreducible one of rank k has at most 2k^2 + 14k (E8 meets it, the
    classical types have at most 2k^2), and the bound adds up over the
    factors of a product.  A closure that passes it comes from a matrix
    of no finite type, such as an affine one, and would never end, so it
    raises InvalidCartanType.
    """
    n = len(cartan)
    limit = 2 * n * (n + 7)
    frontier = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    # a root maps to None until its images are taken
    steps: dict[tuple[int, ...], tuple | None] = dict.fromkeys(frontier)
    while frontier:
        new: list[tuple[int, ...]] = []
        for beta in frontier:
            images = []
            for i, row in enumerate(cartan):
                k = sum(map(mul, beta, row))
                img = beta[:i] + (beta[i] - k,) + beta[i + 1:] if k else beta
                if img not in steps:
                    steps[img] = None
                    new.append(img)
                images.append(img)
            steps[beta] = tuple(images)
        if len(steps) > limit:
            raise InvalidCartanType(
                f"internal construction failure: the Cartan matrix {cartan} "
                f"has more than {limit} roots, so it is of no finite type")
        frontier = new
    return steps


# the only module-level memo: every other one hangs off an interned system
_SYSTEMS: dict[str, RootSystem] = {}


def clear_caches() -> None:
    """Forget every interned root system, and with them every memo.

    Groups, KL tables and embeddings are owned by their root system, so
    they are freed once no caller holds that system.
    """
    _SYSTEMS.clear()


def build_root_system(cartan_type: str) -> RootSystem:
    """Construct (or fetch the interned copy of) a root system.

    The type grammar is ``Simple ("x" Simple)*`` with ``Simple`` a letter
    A..G followed by a decimal rank, e.g. "A3", "B2", "A1xA1", "A2xB2".
    Raises InvalidCartanType for malformed strings or unsupported ranks.
    """
    factors = _parse_cartan_type(cartan_type)
    canonical = "x".join(f"{l}{r}" for l, r in factors)
    cached = _SYSTEMS.get(canonical)
    if cached is not None:
        return cached
    parts = [_factor_simples(l, r) for l, r in factors]
    total_dim = sum(fdim for _, fdim, _ in parts)
    denominator = math.lcm(*(d for _, _, d in parts))
    simples: list[tuple[int, ...]] = []
    offset = 0
    for fsimples, fdim, d in parts:
        for s in fsimples:
            simples.append((0,) * offset + tuple(x * (denominator // d) for x in s)
                           + (0,) * (total_dim - offset - fdim))
        offset += fdim
    rs = RootSystem(canonical, simples, total_dim, denominator)
    _SYSTEMS[canonical] = rs
    return rs

