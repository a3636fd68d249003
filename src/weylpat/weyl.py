"""Weyl group elements, length, inversion sets and Bruhat order.

An element is determined by its inversion set I(w), a bit mask over the
positive root positions: equality and hashing go through it, and its set
bits count the length.  The only left multiplication by a simple
reflection is one step on masks, I(s_i w) = s_i(I(w) minus {a_i}) plus
a_i when a_i is not in I(w).  :class:`WeylGroup` keeps only integers,
built in index order one length level at a time: the masks, and per
element its length and the first letter of its lex-least reduced word
as bytes, from which the word is read back down the left
multiplication rows.  Bruhat order on indices is the lifting test down
those rows and the lower-cover lists, and an interval is the ascending
index list of :meth:`WeylGroup.interval_indices`; no down-set is kept.  A
:class:`WeylElement` is the same mask tagged with its root system, built
only at the API edges; its products, inverses and action on roots fold
the left step or the reflection rows along a reduced word.

Conventions fixed here and relied on everywhere else:

* products compose left to right as functions, (w1*w2)(v) = w1(w2(v));
* simple indices in the public API are 1-based in Bourbaki numbering
  (components of reducible types numbered consecutively);
* ``from_word([1, 2, 1])`` means s1 s2 s1;
* Bruhat order uses left multiplication, u <= v decided by the lifting
  recursion (equivalent to the subword property); the closure of
  length-decreasing reflection moves, its independent oracle, lives with
  the tests;
* all deterministic tie breaking is by the lexicographically least
  reduced word.

In type An an element can also be written in one-line permutation
notation: "3412" is the w with w(1)=3, w(2)=4, w(3)=1, w(4)=2, acting on
coordinates by w(e_i) = e_(w(i)).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections.abc import Iterable, MutableSequence, Sequence
from itertools import compress, repeat

from .errors import (
    CapExceededError,
    GroupMismatchError,
    InternalInvariantError,
    NotAnInversionSetError,
)
from .roots import RootSystem, _byte_tables

__all__ = [
    "WeylElement",
    "identity",
    "simple_reflection",
    "reflection",
    "multiply",
    "inverse",
    "apply",
    "from_word",
    "to_reduced_word",
    "from_inversion_set",
    "inversion_roots",
    "enumerate_elements",
    "bruhat_leq",
    "parse_element",
    "format_word",
    "one_line",
    "element_label",
    "WeylGroup",
    "DEFAULT_ENUMERATION_CAP",
]

DEFAULT_ENUMERATION_CAP = 10_000


class WeylElement:
    """A Weyl group element of a fixed root system, held as its inversion set.

    ``inversions`` is the bit mask of I(w) over the positive root positions
    and is not checked; :func:`from_inversion_set` is the checked entry point.
    """

    __slots__ = ("group", "inversions", "length")

    def __init__(self, group: RootSystem, inversions: int):
        self.group = group
        self.inversions = inversions
        self.length = inversions.bit_count()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.group == other.group
            and self.inversions == other.inversions
        )

    def __hash__(self) -> int:
        return hash((self.group.cartan_type, self.inversions))

    def __repr__(self) -> str:
        return f"<WeylElement {self.group.cartan_type} {format_word(self)!r}>"


def _check_same_group(a: WeylElement, b: WeylElement) -> None:
    if a.group is not b.group and a.group != b.group:
        raise GroupMismatchError(
            f"elements of {a.group.cartan_type} and {b.group.cartan_type} do not combine"
        )


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, 0)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection in the i-th simple root (1-based Bourbaki index)."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    return WeylElement(rs, rs._left_steps[i - 1][0])


def reflection(rs: RootSystem, alpha: int) -> WeylElement:
    """The reflection in the root with index alpha; s_alpha = s_(-alpha).

    s_alpha is its own inverse, so I(s_alpha) is the set of positive roots
    that its row of ``rs.reflection_table`` sends negative."""
    if not 0 <= alpha < len(rs.simple_coords):
        raise ValueError(f"root index {alpha} out of range for {rs.cartan_type}")
    row, heights = rs.reflection_table[alpha], rs.heights
    return WeylElement(rs, sum(1 << p for p, b in enumerate(rs.positive) if heights[row[b]] < 0))


def _fold(rs: RootSystem, word: Sequence[int], mask: int) -> int:
    """I(s_i1 ... s_ik w) from I(w) = mask, the 1-based word folded by left
    steps from its right end."""
    for i in reversed(word):
        mask = _left_step(rs, mask, i - 1)
    return mask


def multiply(w1: WeylElement, w2: WeylElement) -> WeylElement:
    _check_same_group(w1, w2)
    rs = w1.group
    return WeylElement(rs, _fold(rs, _peel(rs, w1.inversions)[0], w2.inversions))


def inverse(w: WeylElement) -> WeylElement:
    """The reduced word of w read backwards."""
    rs = w.group
    return WeylElement(rs, _fold(rs, _peel(rs, w.inversions)[0][::-1], 0))


def apply(w: WeylElement, alpha: int) -> int:
    """Index of w(alpha) for a root index alpha: the reflection rows of a
    reduced word of w, applied from its right end."""
    rs = w.group
    if not 0 <= alpha < len(rs.simple_coords):
        raise ValueError(f"root index {alpha} out of range for {rs.cartan_type}")
    table, simple = rs.reflection_table, rs.simple
    for i in reversed(_peel(rs, w.inversions)[0]):
        alpha = table[simple[i - 1]][alpha]
    return alpha


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Evaluate a word in 1-based simple indices, left to right."""
    word = list(word)
    for i in word:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    return WeylElement(rs, _fold(rs, word, 0))


def _left_step(rs: RootSystem, mask: int, i: int) -> int:
    """I(s_i w) from I(w) = mask, i 0-based: s_i permutes the positive roots
    other than a_i, one lookup per byte of mask in the byte tables of
    ``rs._left_steps``, and a_i joins or leaves the set."""
    bit, tables = rs._left_steps[i]
    out, rest = 0, mask
    for t in tables:
        out |= t[rest & 255]
        rest >>= 8
    return out if mask & bit else out | bit


def _first_descent(rs: RootSystem, mask: int) -> int | None:
    """The smallest 0-based i with a_i in mask, or None."""
    for i, (bit, _) in enumerate(rs._left_steps):
        if mask & bit:
            return i
    return None


def _peel(rs: RootSystem, mask: int) -> tuple[list[int], int]:
    """The 1-based letters of peeling the smallest simple root off mask while
    one is in it, and the mask left: 0 for an inversion set I(w), whose
    letters are then the lex-least reduced word of w, since the possible
    first letters of reduced words of w are exactly its left descents.
    """
    word: list[int] = []
    while (i := _first_descent(rs, mask)) is not None:
        word.append(i + 1)
        mask = _left_step(rs, mask, i)
    return word, mask


def to_reduced_word(w: WeylElement) -> tuple[int, ...]:
    """The lexicographically least reduced word, as 1-based simple indices."""
    return tuple(_peel(w.group, w.inversions)[0])


def inversion_roots(w: WeylElement) -> tuple[int, ...]:
    """Root indices of the inversion set I(w), ascending."""
    rs = w.group
    return tuple(
        rs.positive[p] for p in range(rs.num_positive) if w.inversions >> p & 1
    )


def from_inversion_set(rs: RootSystem, S: int | Iterable[int]) -> WeylElement:
    """The unique element whose inversion set is S, if S is one.

    S is either a bit mask over positive root positions (as stored in
    ``WeylElement.inversions``) or an iterable of positive root indices.
    Raises NotAnInversionSetError when S is not biconvex.
    """
    if isinstance(S, int):
        mask = S
        if mask >> rs.num_positive:
            raise ValueError("bit mask has bits beyond the positive roots")
    else:
        mask = 0
        for idx in S:
            if not 0 <= idx < len(rs.simple_coords):
                raise ValueError(f"root index {idx} out of range for {rs.cartan_type}")
            if not rs.is_positive(idx):
                raise ValueError(f"root index {idx} is not positive in {rs.cartan_type}")
            mask |= 1 << rs.positive_position(idx)

    # each left step is an involution of all masks, so a peel that ends at 0
    # retraces the steps from I(e) up to mask, which is then I(w)
    if _peel(rs, mask)[1]:
        raise NotAnInversionSetError("not an inversion set")
    return WeylElement(rs, mask)


# ---------------------------------------------------------------------------
# enumeration and cached group data
# ---------------------------------------------------------------------------

class WeylGroup:
    """Fully enumerated Weyl group, held as integers.

    Elements are indexed 0..|W|-1, sorted by (length, lex-least reduced
    word), and the build produces them in that order, one length level
    at a time.  The lex-least word of b is (i+1,) + word(s_i b) for its
    smallest left descent i, so level l+1 is, in order, the s_i a for i
    ascending and a of level l in index order with i an ascent of a,
    skipping each b that has a smaller left descent, which an earlier i
    has already numbered.  The left steps of a whole level come from
    ``bytes.translate`` over the level's byte planes (:func:`_plane_words`),
    and one dict keyed by mask covers only the level being built, so
    nothing of size |W| is keyed by mask.

    The group keeps the inversion masks (``masks``, one ``array('Q')``
    where the positive roots fit 64 bits, a list of ints otherwise),
    ``starts``, the first index of each length level (with |W| last),
    ``lengths`` and ``first``, the first letter of each element's word,
    as ``bytes``, and the left multiplication rows ``lmult``, lists that
    share one int object per index; :meth:`word` reads a word off
    ``first`` and the rows.  :meth:`find` looks a mask up within its own
    length level, by bisection of that level's masks, sorted on first
    use.  ``lower_covers[v]`` lists the elements v covers in Bruhat
    order, a mapping that fills each list on its first read, by the
    lifting property, from the list of s v (:class:`_LowerCovers`).  Built
    on first use, inverses, the byte planes of the masks (:attr:`planes`)
    and ``elements``, the only list of :class:`WeylElement` objects, one
    per mask, are read off them.  Products on indices apply ``lmult`` rows
    to whole columns; Bruhat order is the lifting test :meth:`leq_idx` on
    the rows and walks down the cover lists, nothing of size |W|^2.
    Its root system keeps it (:meth:`for_system`), and it keeps the KL
    table; the tables that flattening and the coset sweeps derive from it
    are built where they are read and kept by no group.
    """

    def __init__(self, rs: RootSystem, cap: int):
        self.rs = rs
        width = rs.num_positive
        steps = _step_tables(rs)
        masks: MutableSequence[int] = array("Q", [0]) if width <= 64 else [0]
        first = bytearray(1)
        lmult: list[list[int]] = [[0] for _ in steps]
        starts = [0]
        # the int objects of the level being read, one per index, shared by
        # the rows and every list read off them (inverses, conj, covers), so
        # each entry costs one 8-byte pointer; array rows would box a fresh
        # int on every read, which those lists would then keep, and an array
        # read costs about twice a list read
        ids = [0]
        # the rows grow a block at a time until |W| is known
        block, room = [0] * 4096, 1
        while ids:
            level = masks[starts[-1]:]
            planes = _byte_planes(level, width)
            found: dict[int, int] = {}  # mask -> index, over the level being built
            for i, (bit, before, tables, ascents) in enumerate(steps):
                row = lmult[i]
                # the a of the level with i an ascent, beside I(s_i a) less a_i
                for a, el in compress(zip(ids, _plane_words(planes, tables)),
                                      planes[ascents[0]].translate(ascents[1])):
                    el |= bit
                    if el & before:
                        # a smaller left descent: numbered by an earlier i
                        b = found[el]
                    else:
                        b = len(masks)
                        if b >= cap:
                            raise CapExceededError(f"cap exceeded: |W({rs.cartan_type})| > {cap}")
                        masks.append(el)
                        found[el] = b
                        first.append(i + 1)
                        if b == room:
                            room += len(block)
                            for r in lmult:
                                r += block
                    # s_i swaps the ends of each ascent, which covers every pair
                    row[a] = b
                    row[b] = a
            starts.append(starts[-1] + len(level))
            ids = list(found.values())
            if 2 * len(starts) - 2 in (width, width + 1):
                # the level just built is the middle one, and w0 maps level l
                # onto level N - l, so the levels still to come are as large
                # as the first ones and |W| is known: each row grows in place
                # to |W| in one step, which allocates it to size, where blocks
                # leave spare capacity that del does not give back, and a copy
                # at the end would cost a row at the build's peak; a |W| past
                # the cap is refused here, before the rows grow to it
                room = len(masks) + starts[width + 1 - len(starts)]
                if room > cap:
                    raise CapExceededError(f"cap exceeded: |W({rs.cartan_type})| > {cap}")
                for r in lmult:
                    r.extend(repeat(0, room - len(r)))
        for r in lmult:
            del r[len(masks):]  # a group smaller than its first block
        self.masks = masks
        self.size = len(masks)
        self.starts = starts
        self.lengths = b"".join(bytes([n]) * (b - a) for n, (a, b)
                                in enumerate(zip(starts, starts[1:])))
        self.first = bytes(first)
        self.lmult: list[list[int]] = lmult
        self._levels: list[tuple[Sequence[int], array] | None] = [None] * (len(starts) - 1)
        self._elements: list[WeylElement] | None = None
        self.lower_covers = _LowerCovers(self)
        self._inverses: list[int] | None = None
        self._planes: list[bytes] | None = None
        self._kl_table = None  # kl._KLTable, built on the first KL query

    @classmethod
    def for_system(cls, rs: RootSystem, cap: int = DEFAULT_ENUMERATION_CAP) -> "WeylGroup":
        """The enumerated group of rs, built once and kept on rs."""
        wg = rs._group
        if wg is None:
            wg = rs._group = cls(rs, cap)
        elif wg.size > cap:
            # keep the cap contract independent of cache warmth
            raise CapExceededError(f"cap exceeded: |W({rs.cartan_type})| > {cap}")
        return wg

    @property
    def elements(self) -> list[WeylElement]:
        """elements[k] as a WeylElement on ``masks[k]``, built on first use."""
        if self._elements is None:
            self._elements = [WeylElement(self.rs, m) for m in self.masks]
        return self._elements

    def idx(self, w: WeylElement) -> int:
        if w.group is not self.rs and w.group != self.rs:
            raise GroupMismatchError(
                f"element of {w.group.cartan_type} does not belong to W({self.rs.cartan_type})"
            )
        k = self.find(w.inversions)
        if k is None:
            raise KeyError(w.inversions)
        return k

    def find(self, mask: int) -> int | None:
        """The index of the element whose inversion mask is mask, or None.

        A mask is looked up within its own length level, the count of its
        set bits: by bisection of that level's masks, sorted once on first
        use beside an ``array('i')`` of their indices, so a lookup sorts no
        level but its own.
        """
        n = mask.bit_count()
        if n >= len(self._levels):
            return None
        level = self._levels[n]
        if level is None:
            lo, hi, masks = self.starts[n], self.starts[n + 1], self.masks
            order = sorted(range(lo, hi), key=masks.__getitem__)
            keys = map(masks.__getitem__, order)
            # stored in one assignment; racing lookups store equal pairs
            level = self._levels[n] = (
                array("Q", keys) if isinstance(masks, array) else list(keys), array("i", order))
        keys, ids = level
        i = bisect_left(keys, mask)
        return ids[i] if i < len(keys) and keys[i] == mask else None

    def word(self, k: int) -> tuple[int, ...]:
        """The lex-least reduced word of element k, 1-based: its first letter
        i, then the word of s_i k, read down ``first`` and the lmult rows."""
        first, lmult = self.first, self.lmult
        out = []
        while k:
            i = first[k]
            out.append(i)
            k = lmult[i - 1][k]
        return tuple(out)

    @property
    def inverses(self) -> list[int]:
        """inverses[k] is the index of elements[k]^-1, built on first use in
        one pass in index order.  For k = s_i a, i its first letter, the last
        letter t of k's word is that of a (i when a = e), and k s_t = s_i (a s_t)
        precedes k, so k^-1 = s_t (k s_t)^-1 reads an index already filled."""
        if self._inverses is None:
            first, lmult = self.first, self.lmult
            # last[k] is the 0-based last letter of k's word, pre[k] the index of
            # k s_last[k]; pre is an array, as it is dropped once inv is filled
            last, pre, inv = bytearray(self.size), array("i", [0]) * self.size, [0] * self.size
            for k in range(1, self.size):
                i = first[k] - 1
                row = lmult[i]
                a = row[k]
                if a:
                    last[k], pre[k] = last[a], row[pre[a]]
                else:
                    last[k] = i
                inv[k] = lmult[last[k]][inv[pre[k]]]
            self._inverses = inv
        return self._inverses

    @property
    def planes(self) -> list[bytes]:
        """planes[k] holds byte k of every mask in index order, one bytes per
        byte of a mask, built on first use for whole-group ``bytes.translate``."""
        if self._planes is None:
            self._planes = _byte_planes(self.masks, self.rs.num_positive)
        return self._planes

    def leq_idx(self, a: int, b: int) -> bool:
        """a <= b by the lifting property, as :func:`bruhat_leq`: while b is
        longer than a, peel the first letter s of b's word off b, and off a
        when sa < a; then a <= b iff a == b, or a is the identity."""
        lengths, lmult, first = self.lengths, self.lmult, self.first
        la = lengths[a]
        while a and lengths[b] > la:
            row = lmult[first[b] - 1]
            b, sa = row[b], row[a]
            if lengths[sa] < la:
                a, la = sa, la - 1
        return not a or a == b

    def below(self, b: int) -> list[int]:
        """Ascending indices z <= b: the interval [e, b]."""
        return self.interval_indices(0, b)

    def interval_indices(self, a: int, b: int) -> list[int]:
        """Ascending indices z with a <= z <= b; empty unless a <= b.

        Every z in [a, b] other than b lies below an upper cover inside
        the interval, so the walk down from b through the cover lists,
        keeping each cover above a, reaches all of it; it fills the
        covers of what it visits and of their first-letter chains only.
        """
        leq, lower = self.leq_idx, self.lower_covers
        if not leq(a, b):
            return []
        seen, stack = {b}, [b]
        while stack:
            for c in lower[stack.pop()]:
                if c not in seen and leq(a, c):
                    seen.add(c)
                    stack.append(c)
        return sorted(seen)


class _LowerCovers(dict):
    """v -> the indices u covered by v (u < v, l(u) = l(v) - 1) in one
    group, each list filled on its first read.  By the lifting property (Bjorner-Brenti, *Combinatorics of Coxeter
    Groups*, GTM 231, section 2.2): for a left descent s of v, the covers
    of v are sv and sc for each cover c of sv with sc > c.  sv precedes
    the rest, which follow the list of sv.  With s the first letter, a
    read of a v not yet filled goes through ``__missing__``, which fills
    the lists down v's first-letter chain, up from the first one known,
    so a walk fills only what it visits; racing fills store equal lists.
    A hit is a plain dict lookup.
    """

    def __init__(self, wg: WeylGroup):
        super().__init__({0: []})
        self.tables = wg.lengths, wg.lmult, wg.first

    def __missing__(self, v: int) -> list[int]:
        lengths, lmult, first = self.tables
        chain, cs, get = [], None, self.get
        while cs is None:
            chain.append(v)
            v = lmult[first[v] - 1][v]
            cs = get(v)
        for v in reversed(chain):
            row = lmult[first[v] - 1]
            cs = self[v] = [row[v]] + [row[c] for c in cs if lengths[row[c]] > lengths[c]]
        return cs


def _step_tables(rs: RootSystem) -> list[tuple[int, int, list[list[tuple[int, bytes]]],
                                                tuple[int, bytes]]]:
    """Per simple reflection s_i of rs, the left step of a whole level:
    (the bit of a_i, the bits of a_j for j < i, per byte of a mask the
    translate tables of :func:`_plane_tables` that give that byte of
    s_i(I(w) minus a_i) from the byte planes of I(w), and the byte plane
    of a_i with the translate table that maps a byte to 1 when it lacks
    a_i's bit, else 0, so that a whole level's ascents of s_i are one
    translate).

    The images of the positive roots are read off the byte tables of
    ``rs._left_steps``, whose entry 2^j of table k is the image of bit
    8k + j; they are single bits, so each byte of the step is a sum.
    """
    steps, before = [], 0
    for bit, tables in rs._left_steps:
        images = [tables[p >> 3][1 << (p & 7)] for p in range(rs.num_positive)]
        p = bit.bit_length() - 1
        steps.append((bit, before, [_plane_tables([x >> lo & 255 for x in images])
                                    for lo in range(0, rs.num_positive, 8)],
                      (p >> 3, bytes(x >> (p & 7) & 1 ^ 1 for x in range(256)))))
        before |= bit
    return steps


def _byte_planes(masks: Iterable[int], bits: int) -> list[bytes]:
    """planes[k] holds byte k of every mask, in order, for masks below 2^bits.

    Eight bytes of every mask at a time are packed into one ``array('Q')``,
    or masks of at most 8 bits into one ``array('B')``, and the planes are
    sliced off a ``memoryview`` of its little-endian bytes, so no object is
    made per mask and the bytes are not copied whole.
    """
    if bits > 64:
        masks = list(masks)  # read once per eight bytes
    planes: list[bytes] = []
    for lo in range(0, bits, 64):
        words = array("B" if bits <= 8 else "Q", masks if bits <= 64 else map(
            ((1 << 64) - 1).__and__, map(int.__rshift__, masks, repeat(lo))))
        if sys.byteorder == "big":
            words.byteswap()
        joined = memoryview(words).cast("B")
        planes += [joined[k::words.itemsize].tobytes()
                   for k in range(min(8, (bits - lo + 7) // 8))]
    return planes


def _plane_tables(weights: Sequence[int]) -> list[tuple[int, bytes]]:
    """(k, table) for each byte plane k that holds a nonzero weight: the
    ``bytes.translate`` table that gives each mask's sum of weights[j]
    over its set bits j within byte k, from the tables of
    :func:`~weylpat.roots._byte_tables`.  Raises InternalInvariantError
    unless the weights sum below 2^8, so that no sum carries into the
    next mask's byte.
    """
    if sum(weights) > 255:
        raise InternalInvariantError(f"plane weights sum to {sum(weights)}, past one byte")
    return [(k, bytes(t).ljust(256, b"\0")) for k, t in enumerate(_byte_tables(weights)) if t[-1]]


def _plane_sum(planes: Sequence[bytes], tables: Sequence[tuple[int, bytes]]) -> bytes:
    """sums[u] = the sum of weights[j] over the set bits j of mask u, one byte
    per mask, from the byte planes of :func:`_byte_planes` and the pairs
    (k, table) of :func:`_plane_tables` of the weights: each plane k goes
    through one ``bytes.translate`` by its table, and the planes are added
    as big ints."""
    acc = 0
    for k, table in tables:
        acc += int.from_bytes(planes[k].translate(table), "little")
    return acc.to_bytes(len(planes[0]), "little")


def _plane_words(planes: Sequence[bytes],
                 by_byte: Sequence[Sequence[tuple[int, bytes]]]) -> Sequence[int]:
    """words[u] = the sum over j of byte j, :func:`_plane_sum` by
    ``by_byte[j]``, shifted 8j bits, for every mask u of the planes.

    The bytes of each word are interleaved into one ``bytearray`` and read
    as an ``array('Q')``, so no object is made per mask.  Past 64 bits the
    words of each run of eight bytes are added as ints, in a list.
    """
    chunks = []
    for lo in range(0, len(by_byte), 8):
        joined = bytearray(8 * len(planes[0]))
        for j, tables in enumerate(by_byte[lo:lo + 8]):
            if tables:
                joined[j::8] = _plane_sum(planes, tables)
        words = array("Q", joined)
        if sys.byteorder == "big":
            words.byteswap()
        chunks.append(words)
    if len(chunks) == 1:
        return chunks[0]
    return [sum(w << 64 * c for c, w in enumerate(ws)) for ws in zip(*chunks)]


def enumerate_elements(rs: RootSystem, cap: int = DEFAULT_ENUMERATION_CAP) -> list[WeylElement]:
    """All group elements, ordered by (length, lexicographic reduced word)."""
    return list(WeylGroup.for_system(rs, cap).elements)


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def bruhat_leq(u: WeylElement, v: WeylElement) -> bool:
    """Decide u <= v in Bruhat order via the lifting recursion.

    Equivalent to the subword property: u <= v iff some reduced word of v
    contains a reduced word of u as a subword.  For a left descent s of v,
    u <= v iff (su <= sv when su < u, else u <= sv), so peeling the
    lex-least word of v off v, and each letter that is a left descent of
    u off u, ends at the identity from u exactly when u <= v.
    """
    _check_same_group(u, v)
    rs, a = u.group, u.inversions
    for i in _peel(rs, v.inversions)[0]:
        if a & rs._left_steps[i - 1][0]:
            a = _left_step(rs, a, i - 1)
    return a == 0


# ---------------------------------------------------------------------------
# element notation
# ---------------------------------------------------------------------------

def _is_single_type_a(rs: RootSystem) -> bool:
    return rs.cartan_type.startswith("A") and "x" not in rs.cartan_type


def one_line(w: WeylElement) -> str | None:
    """One-line permutation notation, for irreducible type A only.

    An element of W(An) permutes n+1 letters; A1 prints as "12" or "21"
    even though its realization lives in one coordinate.
    """
    if not _is_single_type_a(w.group):
        return None
    return _one_line(w.group, to_reduced_word(w))


def _one_line(rs: RootSystem, word: Sequence[int]) -> str:
    # w s_i swaps the letters at positions i and i+1, so swapping them
    # along the word, from the identity, spells w
    perm = list(range(1, rs.rank + 2))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return ("" if len(perm) <= 9 else ",").join(str(x) for x in perm)


def _element_from_one_line(rs: RootSystem, digits: Sequence[int]) -> WeylElement:
    n = rs.rank + 1
    if sorted(digits) != list(range(1, n + 1)):
        raise ValueError(f"{digits} is not a permutation of 1..{n}")
    # swapping the letters at positions i, i+1 multiplies by s_i on the
    # right, so bubble-sorting w to the identity spells a reduced word of w
    # backwards
    perm, word = list(digits), []
    for end in range(n - 1, 0, -1):
        for i in range(end):
            if perm[i] > perm[i + 1]:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                word.append(i + 1)
    return from_word(rs, reversed(word))


def parse_element(rs: RootSystem, text: str) -> WeylElement:
    """Parse an element from word notation, or one-line notation in type A.

    Word notation is space-separated 1-based simple indices ("1 2 1");
    "e" and the empty string give the identity.  A bare digit string of
    length n+1 in type An is read as one-line notation ("3412").

    >>> from weylpat.roots import build_root_system
    >>> a3 = build_root_system("A3")
    >>> format_word(parse_element(a3, "3412"))
    '2 1 3 2'
    >>> one_line(parse_element(a3, "2 1 3 2"))
    '3412'
    """
    s = text.strip()
    if s in ("", "e", "id"):
        return identity(rs)
    if " " not in s and s.isdigit() and _is_single_type_a(rs) and len(s) == rs.rank + 1:
        return _element_from_one_line(rs, [int(c) for c in s])
    if "," in s and _is_single_type_a(rs):
        parts = [p for p in s.split(",") if p]
        if len(parts) == rs.rank + 1:
            return _element_from_one_line(rs, [int(p) for p in parts])
    try:
        word = [int(p) for p in s.split()]
    except ValueError:
        raise ValueError(f"cannot parse element notation {text!r}") from None
    return from_word(rs, word)


def format_word(w: WeylElement) -> str:
    """Reduced word rendering; the identity prints as "e"."""
    return _format(to_reduced_word(w))


def _format(word: Sequence[int]) -> str:
    return "e" if not word else " ".join(str(i) for i in word)


def element_label(w: WeylElement) -> str:
    """Human-facing label: reduced word, plus one-line form in type A."""
    word = to_reduced_word(w)
    if not _is_single_type_a(w.group):
        return _format(word)
    return f"{_format(word)} ({_one_line(w.group, word)})"
