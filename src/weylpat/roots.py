"""Exact realizations of the finite crystallographic root systems.

Every coordinate is a `fractions.Fraction`; no floating point is used
anywhere in the package.  The realization of each simple type is fixed
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

import re
from fractions import Fraction
from typing import Sequence

from .errors import InvalidCartanType

Q = Fraction
Vector = tuple[Fraction, ...]

__all__ = [
    "Vector",
    "RootSystem",
    "RationalSpan",
    "build_root_system",
    "clear_caches",
    "reflect",
    "inner_product",
    "dot",
]


def dot(u: Vector, v: Vector) -> Fraction:
    """Exact Euclidean inner product."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Q(0))


def _reflect_vec(alpha: Vector, v: Vector) -> Vector:
    """s_alpha(v) = v - 2(v,alpha)/(alpha,alpha) alpha, computed exactly."""
    c = 2 * dot(v, alpha) / dot(alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


class RationalSpan:
    """The rational span of a linearly independent set of vectors.

    Solves membership and coordinate questions exactly via the inverse
    Gram matrix of the basis.
    """

    def __init__(self, basis: Sequence[Vector]):
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

    def coefficients(self, v: Vector) -> tuple[Fraction, ...] | None:
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

    def contains(self, v: Vector) -> bool:
        return self.coefficients(v) is not None


# ---------------------------------------------------------------------------
# simple root tables
# ---------------------------------------------------------------------------

def _unit(n: int, i: int, c: Fraction = Q(1)) -> Vector:
    v = [Q(0)] * n
    v[i] = c
    return tuple(v)


def _simples_a(n: int) -> tuple[list[Vector], int]:
    if n == 1:
        return [(Q(1),)], 1
    dim = n + 1
    return [
        tuple(Q(1) if k == i else Q(-1) if k == i + 1 else Q(0) for k in range(dim))
        for i in range(n)
    ], dim


def _simples_b(n: int) -> tuple[list[Vector], int]:
    simples = [
        tuple(Q(1) if k == i else Q(-1) if k == i + 1 else Q(0) for k in range(n))
        for i in range(n - 1)
    ]
    simples.append(_unit(n, n - 1))
    return simples, n


def _simples_c(n: int) -> tuple[list[Vector], int]:
    simples, dim = _simples_b(n)
    simples[-1] = _unit(n, n - 1, Q(2))
    return simples, dim


def _simples_d(n: int) -> tuple[list[Vector], int]:
    simples, dim = _simples_b(n)
    last = [Q(0)] * n
    last[n - 2] = Q(1)
    last[n - 1] = Q(1)
    simples[-1] = tuple(last)
    return simples, dim


_E8_SIMPLES: list[Vector] = [
    (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)),
    (Q(1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)),
    (Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)),
    (Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0)),
    (Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0)),
    (Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0)),
    (Q(0), Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0)),
    (Q(0), Q(0), Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0)),
]


def _simples_e(n: int) -> tuple[list[Vector], int]:
    return list(_E8_SIMPLES[:n]), 8


def _simples_f() -> tuple[list[Vector], int]:
    return [
        (Q(0), Q(1), Q(-1), Q(0)),
        (Q(0), Q(0), Q(1), Q(-1)),
        (Q(0), Q(0), Q(0), Q(1)),
        (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
    ], 4


def _simples_g() -> tuple[list[Vector], int]:
    return [
        (Q(1), Q(-1), Q(0)),
        (Q(-2), Q(1), Q(1)),
    ], 3


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


def _factor_simples(letter: str, rank: int) -> tuple[list[Vector], int]:
    if letter == "A":
        return _simples_a(rank)
    if letter == "B":
        return _simples_b(rank)
    if letter == "C":
        return _simples_c(rank)
    if letter == "D":
        return _simples_d(rank)
    if letter == "E":
        return _simples_e(rank)
    if letter == "F":
        return _simples_f()
    return _simples_g()


# ---------------------------------------------------------------------------
# the root system object
# ---------------------------------------------------------------------------

class RootSystem:
    """A reduced crystallographic root system in a fixed exact realization.

    The roots and their tables are immutable after construction; all
    operations elsewhere in the package treat instances as values and are
    safe for concurrent reads.  Build instances with
    :func:`build_root_system`, which interns them per canonical type
    string.

    The instance is the root of all cached state.  Two slots are filled
    lazily and idempotently: ``_group`` holds the enumerated
    :class:`~weylpat.weyl.WeylGroup`, which owns the per-group tables,
    and ``_embeddings`` maps another system's type to the search-node
    count and the embeddings of this system into it, which own their
    index tables and scans.
    """

    __slots__ = (
        "cartan_type", "rank", "ambient_dim", "roots", "positive", "simple",
        "reflection_table", "cartan_matrix", "heights", "simple_coords",
        "_neg", "_pos_position", "_root_index", "num_positive",
        "_group", "_embeddings",
    )

    def __init__(self, cartan_type: str, simples: list[Vector], ambient_dim: int):
        self.cartan_type = cartan_type
        self.rank = len(simples)
        self.ambient_dim = ambient_dim

        allroots = _close_under_simple_reflections(simples)
        span = RationalSpan(simples)
        keyed = []
        for r in allroots:
            coeffs = span.coefficients(r)
            if coeffs is None or any(c.denominator != 1 for c in coeffs):
                raise InvalidCartanType(
                    f"internal construction failure for {cartan_type}: bad root {r}"
                )
            ints = tuple(int(c) for c in coeffs)
            height = sum(ints)
            keyed.append((height, r, ints))
        keyed.sort(key=lambda t: (t[0], t[1]))

        self.roots = tuple(r for _, r, _ in keyed)
        self.heights = tuple(h for h, _, _ in keyed)
        self.simple_coords = tuple(c for _, _, c in keyed)
        self._root_index = {r: i for i, r in enumerate(self.roots)}
        self.positive = tuple(i for i, h in enumerate(self.heights) if h > 0)
        self.num_positive = len(self.positive)
        self._pos_position = {r: p for p, r in enumerate(self.positive)}
        self.simple = tuple(self._root_index[s] for s in simples)
        self._neg = tuple(
            self._root_index[tuple(-x for x in r)] for r in self.roots
        )
        self.reflection_table = tuple(
            tuple(self._root_index[_reflect_vec(a, b)] for b in self.roots)
            for a in self.roots
        )
        self.cartan_matrix = tuple(
            tuple(
                int(2 * dot(simples[i], simples[j]) / dot(simples[i], simples[i]))
                for j in range(self.rank)
            )
            for i in range(self.rank)
        )
        self._group = None
        self._embeddings: dict[str, tuple] = {}

    # -- basic queries ------------------------------------------------------

    def root(self, i: int) -> Vector:
        return self.roots[i]

    def index_of(self, v: Vector) -> int:
        try:
            return self._root_index[tuple(v)]
        except KeyError:
            raise ValueError(f"{v} is not a root of {self.cartan_type}") from None

    def is_positive(self, i: int) -> bool:
        return self.heights[i] > 0

    def negative_of(self, i: int) -> int:
        return self._neg[i]

    def positive_position(self, i: int) -> int:
        """Position of root index i inside the positive root list."""
        return self._pos_position[i]

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type!r}, {len(self.roots)} roots)"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, RootSystem) and \
            self.cartan_type == other.cartan_type and self.roots == other.roots

    def __hash__(self) -> int:
        return hash(self.cartan_type)


def _close_under_simple_reflections(simples: Sequence[Vector]) -> list[Vector]:
    norms = [dot(a, a) for a in simples]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new: list[Vector] = []
        for beta in frontier:
            for alpha, norm in zip(simples, norms):
                c = 2 * dot(beta, alpha) / norm
                img = tuple(x - c * a for x, a in zip(beta, alpha))
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return sorted(roots)


# the only module-level memo: every other one hangs off an interned system
_SYSTEMS: dict[str, RootSystem] = {}


def clear_caches() -> None:
    """Forget every interned root system, and with them every memo.

    Groups, KL tables, embeddings and scans are owned by their root
    system, so they are freed once no caller holds that system.
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
    simples: list[Vector] = []
    offset = 0
    total_dim = sum(_factor_simples(l, r)[1] for l, r in factors)
    for letter, rank in factors:
        fsimples, fdim = _factor_simples(letter, rank)
        for s in fsimples:
            simples.append(
                tuple([Q(0)] * offset + list(s) + [Q(0)] * (total_dim - offset - fdim))
            )
        offset += fdim
    rs = RootSystem(canonical, simples, total_dim)
    _SYSTEMS[canonical] = rs
    return rs


def reflect(rs: RootSystem, alpha: int, v: Vector) -> Vector:
    """Image of the vector v under the reflection in the root with index alpha.

    Agrees with ``rs.reflection_table[alpha]`` whenever v is itself a root.
    """
    if not 0 <= alpha < len(rs.roots):
        raise ValueError(f"root index {alpha} out of range for {rs.cartan_type}")
    return _reflect_vec(rs.roots[alpha], tuple(Q(x) for x in v))


def inner_product(rs: RootSystem, v1: Vector, v2: Vector) -> Fraction:
    """Exact inner product in the ambient space of rs."""
    if len(v1) != rs.ambient_dim or len(v2) != rs.ambient_dim:
        raise ValueError(
            f"dimension mismatch: expected {rs.ambient_dim}, got {len(v1)} and {len(v2)}"
        )
    return dot(tuple(Q(x) for x in v1), tuple(Q(x) for x in v2))
