"""Subsystem embeddings, flattening, and (interval) pattern avoidance.

A subsystem embedding of a root system P' into P is a linear embedding
of the span of P' such that P' maps onto exactly the set of roots of P
lying in the embedded span.  Embeddings here are normalized to map
positive roots to positive roots; the induced positive system on the
image then has a unique simple system, so an embedding is determined by
a closed subsystem of P together with a Cartan-matrix-compatible
bijection onto its simple roots, and enumeration is finite and
canonical.  Compatibility is tested through Cartan integers only, which
are scale invariant, so for example an A1 pattern lives on both long and
short roots of B2.

The flattening map sends w in W(P) to the element of W(P') whose
inversion set is the pullback of I(w) through the embedding.  Pattern
embedding, pattern avoidance, interval pattern embedding (flattenings
match at both ends, bottom and top share a right coset of the embedded
subgroup, and the two Bruhat intervals are poset isomorphic) and
interval pattern avoidance are all built on it.

Interval-pattern searches test only the forced bottom x = i(u v^-1) w
(x-determination) and compare length gaps in place of poset isomorphism
(length sufficiency).  All three conditions of the definition are
settled by the coset map phi_m(g) = i(g) m of the Billey-Braden lemma,
m the minimum of a right coset of the embedded subgroup:
:meth:`SubsystemEmbedding.coset_maps` lists one such map per coset.
:func:`interval_embeds` decides the definition through the map whose
coset holds w, flattening that coset alone, and
:func:`_pattern_map_isomorphic` proves that map an isomorphism or
refutes one by one check per element, from
:func:`_cover_check`, which the ``length-sufficiency`` sweep shares;
that check is the library's only poset-isomorphism decision.

Along one embedding the interval patterns are read per coset:
:func:`_cosets` walks the list of coset maps, which ``coset_maps`` has
checked whole by fl(phi_m[g]) = g, checks each map's order by lengths
across the covers of W', and gives its pairs u <= v with equal length
gaps, each the pattern [u, v] -> [phi_m[u], phi_m[v]].  The suites read
that sweep.  The flatten table over the enumerated groups, pulled back
from the byte planes of the target's masks by ``bytes.translate`` and
itself a ``bytes`` when the source's masks fit one byte, is built where
it is read, as are the coset maps and the source's tables of a sweep;
no embedding or group keeps them.
:func:`interval_pattern_avoids` tests, per embedding, the one bottom
x = i(u v^-1) w that x-determination allows, at the object level, and
enumerates no target group; its ``flatten`` calls enumerate the source
group.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .errors import (
    CapExceededError,
    GroupMismatchError,
    InternalInvariantError,
    NotComparableError,
)
from .roots import RootSystem, _echelon, _reduce, build_root_system
from .weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    _plane_sum,
    _plane_tables,
    _plane_words,
    bruhat_leq,
    format_word,
    from_word,
    inverse,
    multiply,
    parse_element,
    reflection,
    to_reduced_word,
)

__all__ = [
    "SubsystemEmbedding",
    "enumerate_embeddings",
    "embed_element",
    "flatten",
    "pattern_avoids",
    "interval_embeds",
    "interval_pattern_avoids",
    "parse_interval_spec",
    "format_interval_spec",
]

DEFAULT_EMBEDDING_CAP = 200_000


class SubsystemEmbedding:
    """An embedding of a source root system into a target root system.

    ``simple_images[k]`` is the target root index of the image of the
    k-th simple root of the source (0-based position in Bourbaki order);
    ``full_map[r]`` extends this linearly to every source root index.
    :meth:`flat` is the index table of :func:`flatten` over the
    enumerated groups; :meth:`coset_maps` lists the coset map of each
    right coset of the embedded subgroup.  Both are built on each call
    and kept by no one, so an embedding holds nothing of size |W|.
    """

    __slots__ = ("source", "target", "simple_images", "full_map", "_pos_pairs")

    def __init__(self, source: RootSystem, target: RootSystem,
                 simple_images: tuple[int, ...], full_map: tuple[int, ...]):
        self.source = source
        self.target = target
        self.simple_images = simple_images
        self.full_map = full_map
        # (source positive position, target positive position) pairs
        self._pos_pairs = tuple(
            (source.positive_position(r), target.positive_position(full_map[r]))
            for r in source.positive
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubsystemEmbedding)
            and self.source == other.source
            and self.target == other.target
            and self.full_map == other.full_map
        )

    def __hash__(self) -> int:
        return hash((self.source.cartan_type, self.target.cartan_type, self.full_map))

    def __repr__(self) -> str:
        # images in simple-root coordinates; those of the positive roots fix full_map
        coords = self.target.simple_coords
        positive = [coords[self.full_map[r]] for r in self.source.positive]
        return (f"<SubsystemEmbedding {self.source.cartan_type} -> {self.target.cartan_type}: "
                f"simple {[coords[i] for i in self.simple_images]}, positive {positive}>")

    def _pull_back(self, mask: int) -> int:
        """Source inversion mask of the roots whose images lie in mask."""
        bits = 0
        for sp, tp in self._pos_pairs:
            if mask >> tp & 1:
                bits |= 1 << sp
        return bits

    def flat(self, cap: int = DEFAULT_ENUMERATION_CAP) -> Sequence[int]:
        """flat[w] is the source index of fl(w), for each target index w.

        Built afresh on each call, after checking cap against both
        groups, and kept by no one.  Byte j of every pulled-back mask
        comes out at once, as the sums of :func:`~weylpat.weyl._plane_sum`
        over the target's byte planes (``target.planes``), each target
        bit weighted by the source bit it pulls back to within byte j;
        the images are disjoint single bits, so the sums are ORs.  When
        the source's masks fit one byte, |W(source)| <= 2^8, so one more
        translate maps the masks to their source indices and the table is
        a ``bytes``; a wider source's masks are assembled from those sums
        by :func:`~weylpat.weyl._plane_words`, the group build's kernel, and
        looked up by one ``map`` over a dict of the source's masks that
        lives for the call.  Raises InternalInvariantError when a
        pulled-back mask is no element's inversion set, that is, not
        biconvex, which means the embedding is invalid.
        """
        target = WeylGroup.for_system(self.target, cap)
        source = WeylGroup.for_system(self.source, cap)
        # image[tp] is the source bit pulled back from target positive position tp
        image = [0] * self.target.num_positive
        for sp, tp in self._pos_pairs:
            image[tp] = 1 << sp
        tables = [_plane_tables([b >> lo & 255 for b in image])
                  for lo in range(0, self.source.num_positive, 8)]
        if len(tables) == 1:
            masks = bytes(iter(source.masks))
            pulled = _plane_sum(target.planes, tables[0])
            if not pulled.translate(None, delete=masks):
                index = bytearray(256)
                for k, m in enumerate(masks):
                    index[m] = k
                return pulled.translate(index)
        else:
            index = dict(zip(source.masks, range(source.size)))
            try:
                return list(map(index.__getitem__, _plane_words(target.planes, tables)))
            except KeyError:
                pass
        raise InternalInvariantError("pulled-back inversion set is not biconvex; embedding is invalid")

    def _fl(self, source: WeylGroup, mask: int) -> int:
        """The source index of fl(w) for I(w) = mask, the pullback found by
        :meth:`WeylGroup.find`.  Raises InternalInvariantError when it is
        not biconvex, which means the embedding is invalid."""
        k = source.find(self._pull_back(mask))
        if k is None:
            raise InternalInvariantError(
                "pulled-back inversion set is not biconvex; embedding is invalid")
        return k

    def coset_maps(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple[int, ...]]:
        """The coset map phi_m[g] = i(g) m of each right coset i(W')m of the embedded subgroup.

        One tuple per coset, in ascending order of its minimum
        m = phi_m[0], the target index with fl(m) = e: the columns of
        :meth:`_columns` over all the minima at once, zipped.  Built
        afresh on each call, with one flat table, after checking cap
        against both groups.

        Raises InternalInvariantError unless fl inverts every map,
        flat[phi_m[g]] = g, and the maps hold |W| entries in all, which
        only an invalid flat table can cause.  The test is exact: it
        holds exactly when the cosets partition W.  Where fl inverts
        every map, the entries of one map are distinct, and two maps
        share none: an index in both, phi_m[g] = phi_m'[h], has g =
        fl of it = h, so i(g) m = i(g) m' and m = m', as each i(g) is a
        permutation of the target indices (every ``lmult`` row is an
        involution).  So the entries are #maps * |W'| distinct indices,
        all of W exactly when they count |W|.  Conversely the cosets of a
        valid table partition W, and fl inverts each map by equivariance.
        """
        flat = self.flat(cap)
        cols = self._columns([m for m in range(len(flat)) if flat[m] == 0], cap)
        if (len(cols[0]) * len(cols) != len(flat)
                or any(set(map(flat.__getitem__, col)) != {g} for g, col in enumerate(cols))):
            raise InternalInvariantError("the flat table does not invert coset maps, "
                                         "or the cosets of the embedded subgroup "
                                         "do not partition the target")
        return list(zip(*cols))

    def _coset_map(self, w: int, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[int, ...]:
        """The entry of :meth:`coset_maps` that holds target index w, alone.

        Its minimum m = i(v^-1) w, v = fl(w), is the column of
        :meth:`_columns` over [w] at v^-1.  Only w and the |W'| entries of
        the map are flattened, each by :meth:`_fl`; no flat table is built.
        Raises InternalInvariantError unless fl inverts the map and it
        carries v to w.
        """
        source = WeylGroup.for_system(self.source, cap)
        masks = WeylGroup.for_system(self.target, cap).masks
        v = self._fl(source, masks[w])
        m = self._columns([w], cap)[source.inverses[v]][0]
        phi = next(zip(*self._columns([m], cap)))
        if phi[v] != w or [self._fl(source, masks[y]) for y in phi] != list(range(len(phi))):
            raise InternalInvariantError(f"no coset map carries fl(w) to w = {w}")
        return phi

    def _columns(self, col: list[int], cap: int) -> list[list[int]]:
        """cols[g] = [i(g) y for y in col], filled in source index order by
        i(g) y = i(s_j) i(s_j g) y for the smallest left descent s_j of g."""
        source = WeylGroup.for_system(self.source, cap)
        target = WeylGroup.for_system(self.target, cap)
        # each i(s_j) as the lmult rows of its reduced word, applied right to left
        refl = []
        for b in self.simple_images:
            word = target.word(target.idx(reflection(self.target, b)))
            refl.append([target.lmult[i - 1] for i in reversed(word)])
        cols = [col]
        for g in range(1, source.size):
            j = source.first[g] - 1
            col = cols[source.lmult[j][g]]
            for row in refl[j]:
                col = [row[y] for y in col]
            cols.append(col)
        return cols


def enumerate_embeddings(source: RootSystem, target: RootSystem,
                         cap: int = DEFAULT_EMBEDDING_CAP) -> tuple[SubsystemEmbedding, ...]:
    """All subsystem embeddings of source into target, in canonical order.

    A depth-first search picks the image of each source simple root in
    turn among the positive roots of the target, and keeps a root only
    when its Cartan integers with the images already chosen equal the
    entries of ``source.cartan_matrix``: the candidates are the AND of
    one mask of :func:`_pair_masks` per image chosen, walked in
    ascending order.  Matching Cartan integers make the images pairwise
    non-positively paired, hence linearly independent, and make them a
    simple system of a subsystem isomorphic to the source, whose positive
    roots all lie in their rational span.  So a full assignment is closed
    exactly when the span holds ``source.num_positive`` positive target
    roots, no more; that count is taken once per distinct image set, by a
    fraction-free echelon form of the images' simple-root coordinates
    that counts the target positive roots reducing to zero.  Each source
    root then maps as :func:`_full_map` gives.  The result is sorted by
    (sorted image tuple, image tuple) and kept on the source system,
    keyed by the target system itself, so two realizations of one type
    keep their own embeddings.

    ``cap`` bounds the search nodes tried, one per partial assignment
    the search extends to; the memo keeps that count, so a warm call
    raises CapExceededError exactly when a cold one would.
    """
    cached = source._embeddings.get(target)
    if cached is not None:
        nodes, result = cached
        if nodes > cap:
            raise CapExceededError("cap exceeded while enumerating embeddings")
        return result
    r, cartan = source.rank, source.cartan_matrix
    pos, position, coords = target.positive, target._pos_position, target.simple_coords
    masks = _pair_masks(target)
    # keys[k][j]: the pair the image of simple root k must make with that of j < k
    keys = [[(cartan[j][k], cartan[k][j]) for j in range(k)] for k in range(r)]
    found: list[SubsystemEmbedding] = []
    closed: dict[frozenset[int], bool] = {}
    nodes = 0

    def extend(images: list[int]) -> None:
        nonlocal nodes
        k = len(images)
        if k == r:
            span_key = frozenset(images)
            if span_key not in closed:
                basis = _echelon([coords[i] for i in images])
                inside = sum(1 for i in pos if not any(_reduce(basis, coords[i])))
                closed[span_key] = inside == source.num_positive
            if closed[span_key]:
                found.append(SubsystemEmbedding(source, target, tuple(images),
                                                _full_map(source, target, images)))
            return
        candidates = (1 << len(pos)) - 1
        for a, key in zip(images, keys[k]):
            candidates &= masks[position[a]].get(key, 0)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            nodes += 1
            if nodes > cap:
                raise CapExceededError("cap exceeded while enumerating embeddings")
            images.append(pos[low.bit_length() - 1])
            extend(images)
            images.pop()

    # more simple roots than the target's rank cannot be independent
    if r <= target.rank:
        extend([])
    found.sort(key=lambda e: (tuple(sorted(e.simple_images)), e.simple_images))
    result = tuple(found)
    source._embeddings[target] = (nodes, result)
    return result


def _pair_masks(target: RootSystem) -> list[dict[tuple[int, int], int]]:
    """masks[p][(<b, a^v>, <a, b^v>)] is the bit mask, over positive
    positions, of the positive roots b with that pair of Cartan integers
    against the positive root a at position p.

    Each <b, a^v> is read off s_a(b) = b - <b, a^v> a through the height,
    which is linear.  Built once per target and kept on it.
    """
    if target._pair_masks is None:
        pos, heights, refl = target.positive, target.heights, target.reflection_table
        pairing = [[(heights[b] - heights[refl[a][b]]) // heights[a] for b in pos] for a in pos]
        masks = []
        for row, col in zip(pairing, zip(*pairing)):
            by_pair: dict[tuple[int, int], int] = {}
            for bit, key in enumerate(zip(row, col)):
                by_pair[key] = by_pair.get(key, 0) | 1 << bit
            masks.append(by_pair)
        target._pair_masks = masks
    return target._pair_masks


def _full_map(source: RootSystem, target: RootSystem, images: Sequence[int]) -> tuple[int, ...]:
    """The target root index of each source root, given the images of the simple roots.

    Along the source's root tree (``source._root_tree``), each positive
    root a = s_i(p) past the simple ones goes to s_(images[i]) of the
    image of p, one row of the target's reflection table, and each
    negative root -a to the negative of the image of a.  This is the
    linear extension, as the images' Cartan integers are those of the
    simple roots.  Raises InternalInvariantError when a positive root
    goes to a negative one.
    """
    refl, heights = target.reflection_table, target.heights
    last_s, last_t = len(source.simple_coords) - 1, len(target.simple_coords) - 1
    full = [0] * (last_s + 1)
    for a, b in zip(source.simple, images):
        full[a] = b
    for a, i, p in source._root_tree:
        full[a] = refl[images[i]][full[p]]
    for a in source.positive:
        if heights[full[a]] < 0:
            raise InternalInvariantError("embedding maps a positive root to a negative root")
        full[last_s - a] = last_t - full[a]
    return tuple(full)


def embed_element(emb: SubsystemEmbedding, w: WeylElement) -> WeylElement:
    """Image of a source group element in the target group.

    Evaluates a reduced word of w through the reflections in the image
    simple roots, each spelled by its own reduced word in the target; well
    defined because the Cartan data agree.
    """
    if w.group != emb.source:
        raise GroupMismatchError("element does not belong to the embedding source")
    tgt = emb.target
    return from_word(tgt, [j for i in to_reduced_word(w)
                           for j in to_reduced_word(reflection(tgt, emb.simple_images[i - 1]))])


def flatten(emb: SubsystemEmbedding, w: WeylElement,
            cap: int = DEFAULT_ENUMERATION_CAP) -> WeylElement:
    """Flattening: the source element whose inversion set pulls back I(w).

    The pulled-back mask is looked up among the inversion sets of the
    enumerated source group (bounded by cap), by
    :meth:`SubsystemEmbedding._fl`; a mask that is no element's inversion
    set is not biconvex, which means the embedding is invalid.
    """
    if w.group != emb.target:
        raise GroupMismatchError("element does not belong to the embedding target")
    source = WeylGroup.for_system(emb.source, cap)
    return WeylElement(emb.source, source.masks[emb._fl(source, w.inversions)])


def pattern_avoids(v: WeylElement, w: WeylElement,
                   cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """True when no embedding of v's system into w's system flattens w to v.

    cap bounds the enumeration of v's group; the embedding search runs
    under its own default.
    """
    for emb in enumerate_embeddings(v.group, w.group):
        if flatten(emb, w, cap) == v:
            return False
    return True


def interval_embeds(emb: SubsystemEmbedding, u: WeylElement, v: WeylElement,
                    x: WeylElement, w: WeylElement, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Interval pattern embedding of [u, v] into [x, w] along emb.

    The definition asks for three conditions: the flattenings of w and x
    are v and u, x and w lie in the same right coset of the embedded
    subgroup, and [u, v] and [x, w] are isomorphic as posets.  Two
    checks decide them: fl(w) = v, and :func:`_pattern_map_isomorphic`
    on element indices.  A proved isomorphism maps the minimum u to the
    minimum x, so x = i(u v^-1) w, which shares the coset of w and
    flattens to u by equivariance.  Conversely the three conditions
    force that x, since fl inverts g -> i(g v^-1) w on the coset, and
    then the proof succeeds by its completeness.  That map is the coset
    map phi of w's coset, the only one built, and as fl inverts it,
    fl(w) = v exactly when phi[v] = w.  Only w and that coset are
    flattened, and nothing of size |W| is built.  cap bounds both groups.
    """
    src = WeylGroup.for_system(emb.source, cap)
    tgt = WeylGroup.for_system(emb.target, cap)
    a, b, c, d = src.idx(u), src.idx(v), tgt.idx(x), tgt.idx(w)
    if not src.leq_idx(a, b):
        raise NotComparableError(f"not comparable: {format_word(u)} !<= {format_word(v)}")
    if not tgt.leq_idx(c, d):
        raise NotComparableError(f"not comparable: {format_word(x)} !<= {format_word(w)}")
    phi = emb._coset_map(d, cap)
    return phi[b] == d and _pattern_map_isomorphic(src, tgt, phi, a, b, c, d)


def _cover_check(src: WeylGroup, tgt: WeylGroup
                 ) -> Callable[[Sequence[int], int, int, int], bool]:
    """The one step of the proof in :func:`_pattern_map_isomorphic`, bound to two groups.

    ``check(phi, u, up, z)`` tells whether phi carries the lower covers c
    of z with u <= c onto exactly the lower covers of phi[z] that lie
    above x = phi[u].  ``up`` is a bit mask over source indices that
    holds, among the lower covers of z, exactly those above u: the mask
    of all c >= u, or of the interval [u, v] when z lies in it.  The
    check depends on (phi, u, z) only, not on the top v, so a caller
    proving many intervals of one coset map and bottom takes it once per
    z; it holds vacuously for z = u.  A cover of phi[z] outside the image
    is above x if it is x, or longer and lifts to x (``tgt.leq_idx``).
    No target interval is built, and the covers of each group are read
    from its ``lower_covers`` mapping, which fills only the lists read.
    """
    src_lower = src.lower_covers
    lower, leq, lengths = tgt.lower_covers, tgt.leq_idx, tgt.lengths

    def check(phi: Sequence[int], u: int, up: int, z: int) -> bool:
        x = phi[u]
        lx = lengths[x]
        image = {phi[c] for c in src_lower[z] if up >> c & 1}
        return image == {c for c in lower[phi[z]]
                         if c in image or c == x or lengths[c] > lx and leq(x, c)}
    return check


def _pattern_map_isomorphic(src: WeylGroup, tgt: WeylGroup, phi: Sequence[int],
                            u: int, v: int, x: int, w: int) -> bool:
    """Whether z -> phi[z] is a poset isomorphism of [u, v] onto [x, w].

    phi is the coset map phi[g] = i(g fl(w)^-1) w of an embedding, the
    one whose coset holds w, with fl(w) = v, so
    phi[v] = w.  True when phi sends the minimum u to the minimum x and
    the check of
    :func:`_cover_check` holds for each z of [u, v]: phi carries the
    lower covers of z inside [u, v] onto exactly the lower covers of
    phi[z] above x.  The target interval is never built.

    The proof is sound.  phi is injective on W', as the bijection
    g -> i(g) m of W' onto the coset of m = i(v^-1) w.  It carries chains
    of covers up from u inside [u, v] to chains up from x, so the lower
    covers of each phi[z] above x are exactly the images of the
    in-interval lower covers of z.  Every element of either interval
    lies on a chain of covers down from its top, so by induction down
    the chains, from phi[v] = w, phi is a bijection of [u, v] onto
    [x, w] that carries in-interval lower covers exactly, and as the
    order of a finite poset is the transitive closure of its covers, it
    is an isomorphism.

    The proof is complete when x = phi[u], as for every quadruple the
    per-coset sweep yields.  Then phi(g) = i(g) m with fl(m) = e, and
    by the Billey-Braden coset lemma phi is injective and order
    preserving on all of W', so it maps [u, v] into [phi(u), phi(v)] =
    [x, w].  If [u, v] and [x, w] are isomorphic they have as many
    elements and as many comparable pairs, so phi is onto [x, w], and
    onto its comparable pairs too: phi and its inverse both preserve
    order, phi carries covers exactly, and the proof succeeds.  So when
    it fails, the two intervals are not isomorphic.
    """
    check = _cover_check(src, tgt)
    span = src.interval_indices(u, v)
    up = sum(1 << z for z in span)
    return phi[u] == x and all(check(phi, u, up, z) for z in span if z != u)


def _coset_tables(source: WeylGroup) -> tuple[list, list]:
    """(pairs, covers) of W', built on each call and kept by the caller:
    every u <= v, by v and then u, and every (lower cover c, g)."""
    lower = source.lower_covers
    return ([(u, v) for v in range(source.size) for u in source.below(v)],
            [(c, g) for g in range(source.size) for c in lower[g]])


def _cosets(embeddings: Sequence[SubsystemEmbedding], cap: int
            ) -> Iterator[tuple[Sequence[int], list[tuple[int, int]]]]:
    """(phi, pairs) for each right coset of each embedded subgroup in turn.

    The embeddings share one source and one target.  The cosets come
    from :meth:`SubsystemEmbedding.coset_maps`, once per embedding, in
    index order of their minima m, fl(m) = e; phi = phi_m,
    phi[g] = i(g) m, and pairs lists the (u, v) with u <= v in W' and
    l(v) - l(u) = l(phi[v]) - l(phi[u]), by v, then u.  By the
    Billey-Braden coset lemma the interval patterns of the coset are
    exactly (u, v, phi[u], phi[v]) over all u <= v: flattening is
    equivariant, so fl(phi[g]) = g, and g -> phi[g] preserves Bruhat
    order.  So no pair is tested.  ``coset_maps`` has checked that fl
    inverts each map; the sweep checks the order, raising
    InternalInvariantError unless l(phi[c]) < l(phi[g]) for every cover
    c of g in W'.  This is exact: g = t c for a reflection t of W', so
    phi[g] = i(t) phi[c] differs from phi[c] by a reflection of W, and of
    two such elements the longer is the larger (Bjorner-Brenti, GTM 231,
    2.1).  Along chains of covers it gives phi[u] <= phi[v] for every
    u <= v.

    The pairs and the cover test depend only on the coset's length
    signature (l(phi[g]) - l(m))_g, so both are taken once per signature
    in a memo that lives as long as the sweep, beside the source's
    tables of :func:`_coset_tables`; a reader may key per-signature work
    by the pairs list's id for as long as it reads the sweep.
    """
    if not embeddings:
        return
    source = WeylGroup.for_system(embeddings[0].source, cap)
    lengths = WeylGroup.for_system(embeddings[0].target, cap).lengths
    below_pairs, covers = _coset_tables(source)
    memo: dict[bytes, list[tuple[int, int]]] = {}
    src_len = source.lengths
    # shift[l] is the translate table y -> (y - l) mod 256, the identity rotated; it is
    # one-to-one on lengths, so a key names one signature, checked on the lengths themselves
    shift = [(bytes(range(256)) * 2)[256 - l:512 - l] for l in range(max(lengths) + 1)]
    for emb in embeddings:
        for phi in emb.coset_maps(cap):
            m = phi[0]
            key = bytes(map(lengths.__getitem__, phi)).translate(shift[lengths[m]])
            pairs = memo.get(key)
            if pairs is None:
                rel = [lengths[y] - lengths[m] for y in phi]
                if any(rel[c] >= rel[g] for c, g in covers):
                    raise InternalInvariantError(f"coset map {m} does not lengthen a cover")
                pairs = memo[key] = [p for p in below_pairs
                                     if rel[p[1]] - rel[p[0]] == src_len[p[1]] - src_len[p[0]]]
            yield phi, pairs


def interval_pattern_avoids(w: WeylElement, u: WeylElement, v: WeylElement,
                            cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """True when no embedding realizes [u, v] as an interval pattern in w.

    By x-determination an embedding with fl(w) = v allows one bottom,
    x = i(u v^-1) w, and realizes the pattern exactly when x <= w,
    fl(x) = u and the length gaps agree (length sufficiency).  So no
    target group is enumerated; the pattern's group is, by ``flatten``,
    and cap bounds it.  The embedding search runs under its own default.
    """
    if not bruhat_leq(u, v):
        raise NotComparableError(f"not comparable: {format_word(u)} !<= {format_word(v)}")
    WeylGroup.for_system(u.group, cap)  # raises CapExceededError past cap
    g = multiply(u, inverse(v))
    for emb in enumerate_embeddings(u.group, w.group):
        if flatten(emb, w, cap) != v:
            continue
        x = multiply(embed_element(emb, g), w)
        if (w.length - x.length == v.length - u.length and bruhat_leq(x, w)
                and flatten(emb, x, cap) == u):
            return False
    return True


# ---------------------------------------------------------------------------
# interval notation
# ---------------------------------------------------------------------------

def parse_interval_spec(text: str) -> tuple[RootSystem, WeylElement, WeylElement]:
    """Parse "TYPE:U..V" into (system, bottom, top).

    U and V use element notation: reduced words like "1 2 1", or one-line
    permutations in irreducible type A, e.g. "A3:1234..3412".
    """
    head, sep, body = text.partition(":")
    if not sep or ".." not in body:
        raise ValueError(f"cannot parse interval notation {text!r}")
    rs = build_root_system(head.strip())
    u_text, _, v_text = body.partition("..")
    return rs, parse_element(rs, u_text), parse_element(rs, v_text)


def format_interval_spec(u: WeylElement, v: WeylElement) -> str:
    return f"{u.group.cartan_type}:{format_word(u)}..{format_word(v)}"
