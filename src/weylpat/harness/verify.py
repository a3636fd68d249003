"""Exhaustive verification sweeps over configurable windows of Weyl groups.

Each suite walks every relevant configuration inside a finite window
(embeddings of a source system into a target system, or a list of
groups) and reports a :class:`VerificationReport` whose failure list is
empty exactly when the property held everywhere.  Windows default to
the shipped ``default_window.json``.

The properties checked:

* ``flattening``        every pullback of an inversion set through every
                        embedding is an inversion set, read off one fresh
                        flat table per embedding;
* ``x-determination``   when the two flattening conditions hold for a
                        coset pair, the bottom is forced to i(u v^-1) w;
* ``length-sufficiency`` given the flattening and coset conditions, the
                        intervals are isomorphic iff the length gaps agree:
                        equal gaps are proved isomorphic by the coset map
                        z -> i(z v^-1) w;
* ``kl-transfer``       interval pattern embeddings preserve
                        Kazhdan-Lusztig polynomials;
* ``upper-ideal``       interval sets cut out by KL properties are closed
                        under the two upward moves of the interval poset;
* ``type-a-smoothness`` rational smoothness by KL sweep coincides with
                        avoidance of the one-line patterns 3412 and 4231.

The interval suites read the per-coset sweep of
:func:`~weylpat.patterns._cosets`: along each embedding, each right
coset of the embedded subgroup, with its coset map phi checked once, and
its pairs u <= v with equal length gaps, each the pair
[u, v] -> [phi[u], phi[v]].  ``kl-transfer`` and ``upper-ideal`` keep
exactly those pairs, as ``length-sufficiency`` checks.  The oracle of
the sweep is the coset walk of ``x-determination``: it builds each
coset from :func:`~weylpat.patterns.embed_element`, not from the coset
maps, checks it once itself, and compares each coset whole with the
map :meth:`~weylpat.patterns.SubsystemEmbedding.coset_maps` lists for it.

``length-sufficiency`` works on element indices.  Unequal gaps need no
check, since the rank span of an interval is its gap; each coset counts
one case per u <= v of W'.  For equal gaps it proves that the coset map
is a bijection of the two intervals' index lists that carries lower
covers exactly onto lower covers.  That proof is complete, so its
verdict is the answer: a failure means the intervals are not
isomorphic.  Its per-element checks depend on the coset map and the
bottom, not on the top, so each is taken once per coset and bottom, and
no interval is built.
``kl-transfer`` reads KL polynomials on indices from the groups' tables.
``upper-ideal`` checks all its properties in one sweep: it decodes each
KL column once into bit masks, and sweeps each window pair once.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections.abc import Callable, Sequence
from itertools import zip_longest

from ..errors import InternalInvariantError, NotComparableError
from ..kl import KLPolynomial, _bits, _table_for, is_rationally_smooth
from ..patterns import (
    _coset_tables,
    _cosets,
    _cover_check,
    embed_element,
    enumerate_embeddings,
    format_interval_spec,
)
from ..roots import RootSystem, build_root_system
from ..weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    element_label,
    format_word,
    parse_element,
)
from .report import VerificationReport

__all__ = [
    "load_window",
    "default_window",
    "matrix_pairs",
    "verify_flattening",
    "verify_x_determination",
    "verify_length_sufficiency",
    "verify_kl_transfer",
    "verify_upper_ideal",
    "verify_type_a_smoothness",
    "run_suite",
    "SUITES",
]


def default_window() -> dict:
    """The shipped window, read through this module's own loader, which also
    reads from a zip install."""
    path = os.path.join(os.path.dirname(__file__), "default_window.json")
    return json.loads(__spec__.loader.get_data(path))


# the items of each window list, as (test, description); the other keys list strings
_WINDOW_ITEMS = {
    "kl_transfer_pairs": (lambda x: isinstance(x, list) and len(x) == 2
                          and all(isinstance(t, str) for t in x), "[source, target] string pairs"),
    "smoothness_sizes": (lambda x: type(x) is int, "integers"),
}


def load_window(path: str | None = None) -> dict:
    """The shipped window, with the keys of the JSON file at path in place of its own;
    ValueError names the key and file of an unknown key or a malformed value.  Every
    list but ``slow_targets`` must be non-empty, as a sweep over none passes on nothing."""
    if path is None:
        return default_window()
    with open(path, "r", encoding="utf-8") as fh:
        window = json.load(fh)
    if not isinstance(window, dict):
        raise ValueError(f"window file {path} must hold a JSON object")
    base = default_window()
    unknown = sorted(set(window) - set(base))
    if unknown:
        raise ValueError(f"unknown window key(s) in {path}: {', '.join(unknown)}")
    for key, value in window.items():
        test, items = _WINDOW_ITEMS.get(key, (lambda x: isinstance(x, str), "strings"))
        if not isinstance(value, list) or not all(map(test, value)):
            raise ValueError(f"window key {key!r} in {path} must be a list of {items}")
        if not value and key != "slow_targets":
            raise ValueError(f"window key {key!r} in {path} must not be empty")
    base.update(window)
    return base


def matrix_pairs(window: dict, slow: bool = False) -> list[tuple[str, str]]:
    """(source, target) type pairs of the window, rank compatible only."""
    targets = list(window["targets"]) + (list(window.get("slow_targets", [])) if slow else [])
    pairs = []
    for s in window["sources"]:
        for t in targets:
            if build_root_system(s).rank <= build_root_system(t).rank:
                pairs.append((s, t))
    return pairs


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _pair_label(src: WeylGroup, tgt: WeylGroup, u: int, v: int, x: int, w: int) -> str:
    """[u, v] -> [x, w] in interval notation, the four elements built from their masks."""
    def spec(wg: WeylGroup, a: int, b: int) -> str:
        return format_interval_spec(WeylElement(wg.rs, wg.masks[a]),
                                    WeylElement(wg.rs, wg.masks[b]))

    return f"[{spec(src, u, v)}] -> [{spec(tgt, x, w)}]"


def _pair_report(suite: str, source_type: str, target_type: str
                 ) -> tuple[RootSystem, RootSystem, VerificationReport]:
    """(source, target, empty report) of a pair suite."""
    source, target = build_root_system(source_type), build_root_system(target_type)
    return source, target, VerificationReport(
        suite, {"source": source.cartan_type, "target": target.cartan_type})


def _timed(fn: Callable[..., None], *reports: VerificationReport) -> VerificationReport:
    """fn(*reports), then each report's failures sorted and its wall_time set
    to the whole call's time; returns the first report."""
    start = time.perf_counter()
    fn(*reports)
    wall_time = time.perf_counter() - start
    for report in reports:
        report.failures.sort()
        report.wall_time = wall_time
    return reports[0]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def verify_flattening(source_type: str, target_type: str,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """Every pullback through every embedding is a valid inversion set.

    Each embedding's flat table pulls back every target inversion set at
    once and raises on the first that is not biconvex, so an invalid
    embedding is one failure, and each counts |W(target)| cases.  The
    object-level :func:`~weylpat.patterns.flatten` is the per-element
    oracle in the tests.
    """
    source, target, report = _pair_report("flattening", source_type, target_type)

    def run(rep: VerificationReport) -> None:
        for emb in enumerate_embeddings(source, target):
            # groups built only once some embedding exists, by flat()
            try:
                emb.flat(cap)
            except InternalInvariantError as exc:
                rep.failures.append(f"{emb!r}: {exc}")
            rep.cases += WeylGroup.for_system(target, cap).size

    return _timed(run, report)


def verify_x_determination(source_type: str, target_type: str,
                           cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """With matching flattenings and a shared coset, the bottom is forced.

    The subgroup i(W') comes from :func:`embed_element`, independent of
    :meth:`~weylpat.patterns.SubsystemEmbedding.coset_maps`: the word of
    each i(g) is folded through the lmult rows over the coset minima m,
    one column per g.  Each coset is checked once, as
    :func:`~weylpat.patterns._cosets` checks a coset map: fl(i(g) m) = g,
    and l(i(c) m) < l(i(g) m) for each cover c of g.  Then every x <= w
    of the coset is i(u) m <= i(v) m for one u <= v of W', which counts
    one case, and the coset must equal the map that ``coset_maps`` lists
    at the same place: both list the cosets by ascending minimum of the
    flat table, each from its own.  A coset that fails its check fails
    every pair, and one that differs from its map fails each pair whose
    u or v it maps elsewhere; a map past the walk's cosets fails all its
    pairs.
    """
    source, target, report = _pair_report("x-determination", source_type, target_type)

    def run(rep: VerificationReport) -> None:
        src, tgt = WeylGroup.for_system(source, cap), WeylGroup.for_system(target, cap)
        pairs, covers = _coset_tables(src)
        ident, lengths = list(range(src.size)), tgt.lengths
        for emb in enumerate_embeddings(source, target):
            flat = emb.flat(cap)
            # cols[g][c] = i(g) m_c over the coset minima m_c
            minima, cols = [m for m, f in enumerate(flat) if not f], []
            for g in src.elements:
                col = minima
                for i in reversed(tgt.word(tgt.idx(embed_element(emb, g)))):
                    row = tgt.lmult[i - 1]
                    col = [row[y] for y in col]
                cols.append(col)
            for phi, psi in zip_longest(zip(*cols), emb.coset_maps(cap), fillvalue=()):
                if not phi:
                    rep.failures += [
                        f"{_pair_label(src, tgt, u, v, psi[u], psi[v])}: "
                        "scanned bottom outside the coset walk" for u, v in pairs]
                    continue
                rep.cases += len(pairs)
                checked = (list(map(flat.__getitem__, phi)) == ident
                           and all(lengths[phi[c]] < lengths[phi[g]] for c, g in covers))
                if checked and phi == psi:
                    continue
                wrong = [not checked or y != z for y, z in zip_longest(phi, psi)]
                rep.failures += [
                    f"{_pair_label(src, tgt, u, v, phi[u], phi[v])}: bottom is not forced"
                    for u, v in pairs if wrong[u] or wrong[v]]

    return _timed(run, report)


def verify_length_sufficiency(source_type: str, target_type: str,
                              cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """Given the first two conditions, equal length gaps give poset isomorphism.

    Unequal gaps rule isomorphism out, since an interval's rank span is
    its gap, so each coset of the sweep counts one case per u <= v of W',
    and only its equal-gap pairs are decided, on element indices, by the
    proof of :func:`~weylpat.patterns._pattern_map_isomorphic`: the
    coset map phi is an isomorphism [u, v] -> [phi[u], phi[v]], or by
    the completeness of that proof no isomorphism exists.  The proof is
    one check per z in [u, v], from
    :func:`~weylpat.patterns._cover_check`, which depends on (phi, u, z)
    alone.  So each coset takes each bottom u once, checking the z of
    all its intervals [u, v], listed once per length signature, and
    visits a pair only to report it.  Each failure is reported once per coset
    and pair, so a quadruple that several embeddings reach is reported
    by each.
    """
    source, target, report = _pair_report("length-sufficiency", source_type, target_type)

    def run(rep: VerificationReport) -> None:
        src, tgt = WeylGroup.for_system(source, cap), WeylGroup.for_system(target, cap)
        # down[v] and above[u] as masks over source indices, so [u, v] is down[v] & above[u]
        below_pairs = _coset_tables(src)[0]
        down, above = [0] * src.size, [0] * src.size
        for u, v in below_pairs:
            down[v] |= 1 << u
            above[u] |= 1 << v
        check = _cover_check(src, tgt)
        # id of a signature's pairs -> (u, the z != u of its [u, v]); z = u needs no check
        spans: dict[int, list[tuple[int, list[int]]]] = {}
        for phi, pairs in _cosets(enumerate_embeddings(source, target), cap):
            # every u <= v of W' is one case in each coset
            rep.cases += len(below_pairs)
            by_u = spans.get(id(pairs))
            if by_u is None:
                union: dict[int, int] = {}
                for u, v in pairs:
                    union[u] = union.get(u, 0) | down[v] & above[u] & ~(1 << u)
                by_u = spans[id(pairs)] = [(u, _bits(span)) for u, span in union.items() if span]
            for u, zs in by_u:
                failed = [z for z in zs if not check(phi, u, above[u], z)]
                if failed:
                    for a, v in pairs:
                        if a == u and any(down[v] >> z & 1 for z in failed):
                            rep.failures.append(f"{_pair_label(src, tgt, u, v, phi[u], phi[v])}: "
                                                "equal gaps without isomorphism")

    return _timed(run, report)


def verify_kl_transfer(source_type: str, target_type: str,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """Interval pattern embeddings preserve Kazhdan-Lusztig polynomials.

    The packed values are compared: one source column dict per v and one
    reader per orbit representative r of the target table, which reads
    P(x, w) as P(f(x), r) for the involution f that takes w to r.  Only a
    pair whose values differ, or where either misses, is decoded, which
    gives the failure text, or raises NotComparableError for the miss.
    """
    source, target, report = _pair_report("kl-transfer", source_type, target_type)

    def run(rep: VerificationReport) -> None:
        src, tgt = WeylGroup.for_system(source, cap), WeylGroup.for_system(target, cap)
        src_kl, tgt_kl = _table_for(src), _table_for(tgt)
        columns: dict[int, dict[int, int]] = {}
        readers: dict[int, Callable[[int], int]] = {}
        for phi, pairs in _cosets(enumerate_embeddings(source, target), cap):
            rep.cases += len(pairs)
            for u, v in pairs:
                x, w = phi[u], phi[v]
                column = columns.get(v)
                if column is None:
                    column = columns[v] = dict(src_kl._entries(v))
                f, r = tgt_kl._orbit(w)
                read = readers.get(r)
                if read is None:
                    read = readers[r] = tgt_kl._reader(r)
                packed = column.get(u, 0)
                if packed != read(x if f is None else f[x]) or not packed:
                    p1 = src_kl.polynomial(u, v)
                    p2 = tgt_kl.polynomial(x, w)
                    if p1 != p2:
                        rep.failures.append(
                            f"{_pair_label(src, tgt, u, v, x, w)}: {p1} != {p2}")

    return _timed(run, report)


# -- upper ideal -------------------------------------------------------------

_PROP_RE = re.compile(r"kl-coeff\((\d+),(\d+)\)")


def _parse_property(name: str) -> Callable[[KLPolynomial], bool]:
    if name == "kl-nontrivial":
        return lambda p: p.coefficients != (1,)
    m = _PROP_RE.fullmatch(name.replace(" ", ""))
    if m:
        k, c = int(m.group(1)), int(m.group(2))
        return lambda p: p.coefficient(k) > c
    raise ValueError(
        f"unknown property {name!r}; use kl-nontrivial or kl-coeff(k,c)")


def _kl_masks(wg: WeylGroup, props: Sequence[Callable[[KLPolynomial], bool]]
              ) -> tuple[list[int], list[list[int]]]:
    """(down, holds) from one pass over each KL column of wg: down[v] is the
    mask of D(v), and holds[i][v] the mask of the u in D(v) where props[i]
    holds on [u, v].  Each distinct (packed value, length gap) is decoded
    once, through :meth:`~weylpat.kl._KLTable._decode`, and each
    property is asked once per decoded polynomial."""
    table, lengths = _table_for(wg), wg.lengths
    down: list[int] = []
    holds: list[list[int]] = [[] for _ in props]
    # (packed value, gap) -> indices of the properties its polynomial has
    verdicts: dict[tuple[int, int], list[int]] = {}
    for v in range(wg.size):
        lv, d, h = lengths[v], 0, [0] * len(props)
        for u, val in table._entries(v):
            bit = 1 << u
            d |= bit
            key = (val, lv - lengths[u])
            held = verdicts.get(key)
            if held is None:
                p = table._decode(*key)
                held = verdicts[key] = [i for i, prop in enumerate(props) if prop(p)]
            for i in held:
                h[i] |= bit
        down.append(d)
        for row, mask in zip(holds, h):
            row.append(mask)
    return down, holds


def verify_upper_ideal(property_names: Sequence[str], types: Sequence[str],
                       pairs: Sequence[tuple[str, str]] | None = None,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> list[VerificationReport]:
    """The interval sets cut out by KL properties are upward closed; one
    report per property, in the order given.

    Upward moves in the interval poset lower the bottom within a group
    (the closure of a cell only adds smaller elements) and transport
    along interval pattern embeddings across groups.  Both closures are
    checked exhaustively inside the window of ``types``, move 1 over
    ``pairs`` (every rank compatible pair of ``types`` by default), in
    one sweep for all the properties.

    Each KL column of each group is decoded once, into the mask of D(v)
    and, per property, the mask of the u in D(v) where it holds on
    [u, v].  Move 2 reads the masks alone.  Move 1 sweeps each window
    pair once; per length signature and property it keeps the pairs
    where the property holds, and tests only those on the target.  A
    swept (u, v) or tested (x, w) outside its D(v) mask raises
    NotComparableError.  Every report's ``wall_time`` is the time of the
    whole shared sweep.
    """
    props = [_parse_property(name) for name in property_names]
    type_list = [build_root_system(t).cartan_type for t in types]
    if pairs is None:
        pair_list = [
            (s, t) for s in type_list for t in type_list
            if build_root_system(s).rank <= build_root_system(t).rank
        ]
    else:
        pair_list = [(build_root_system(s).cartan_type, build_root_system(t).cartan_type)
                     for s, t in pairs]
    parameters = {"types": ",".join(type_list),
                  "pairs": ";".join(f"{s}->{t}" for s, t in pair_list)}
    reports = [VerificationReport("upper-ideal", {"property": name, **parameters})
               for name in property_names]

    # type -> (group, down, holds) of :func:`_kl_masks`, each built once
    tables: dict[str, tuple[WeylGroup, list[int], list[list[int]]]] = {}

    def masks(t: str) -> tuple[WeylGroup, list[int], list[list[int]]]:
        if t not in tables:
            wg = WeylGroup.for_system(build_root_system(t), cap)
            tables[t] = (wg, *_kl_masks(wg, props))
        return tables[t]

    def label(wg: WeylGroup, k: int) -> str:
        return format_word(WeylElement(wg.rs, wg.masks[k]))

    def run(*reps: VerificationReport) -> None:
        # move 2, inside each group: if a property holds on [u, v] it must
        # hold on [u', v] for every u' <= u, and D(u) is in D(v)
        for t in type_list:
            wg, down, holds = masks(t)
            for rep, held in zip(reps, holds):
                for v, h in enumerate(held):
                    for u in _bits(h):
                        rep.cases += down[u].bit_count() - 1
                        for u2 in _bits(down[u] & ~h):
                            rep.failures.append(
                                f"{t}: property holds on [{label(wg, u)}..{label(wg, v)}] "
                                f"but not on [{label(wg, u2)}..{label(wg, v)}]")
        # move 1, across each window pair: every property transports along
        # interval pattern embeddings
        for s, t in pair_list:
            src, src_down, src_holds = masks(s)
            tgt, tgt_down, tgt_holds = masks(t)
            # id of a signature's pairs -> per property, those where it holds
            held: dict[int, list[list[tuple[int, int]]]] = {}
            for phi, equal in _cosets(enumerate_embeddings(src.rs, tgt.rs), cap):
                if id(equal) not in held:
                    for u, v in equal:
                        if not src_down[v] >> u & 1:
                            raise NotComparableError(
                                f"not comparable: {label(src, u)} !<= {label(src, v)}")
                    held[id(equal)] = [[(u, v) for u, v in equal if sh[v] >> u & 1]
                                       for sh in src_holds]
                for rep, th, keep in zip(reps, tgt_holds, held[id(equal)]):
                    rep.cases += len(equal)
                    for u, v in keep:
                        x, w = phi[u], phi[v]
                        if not th[w] >> x & 1:
                            if not tgt_down[w] >> x & 1:
                                raise NotComparableError(
                                    f"not comparable: {label(tgt, x)} !<= {label(tgt, w)}")
                            rep.failures.append(
                                f"{_pair_label(src, tgt, u, v, x, w)}: property lost along embedding")

    _timed(run, *reports)
    return reports


def verify_type_a_smoothness(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """KL rational smoothness equals 3412/4231 avoidance in S_n.

    The two sides are computed through independent pipelines.  The KL
    side asks :func:`~weylpat.kl.is_rationally_smooth` of every element,
    which fills the full Kazhdan-Lusztig table.  It builds each
    :class:`~weylpat.weyl.WeylElement` from ``masks[k]`` in index order
    and drops it after the answer, so no element list is built; the
    answers are kept by index, one byte each.  The pattern side streams
    one fresh flat table per A3 subsystem embedding, keeping none: each
    is a ``bytes``, translated through a 256-byte table that marks 3412
    and 4231, and the marks of all embeddings are ORed as one big int.
    The two sides' verdicts, one ``bytes`` each, are compared whole, and
    the elements are walked only to name where they differ.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rs = build_root_system(f"A{n - 1}")
    a3 = build_root_system("A3")
    singular = (parse_element(a3, "3412"), parse_element(a3, "4231"))
    report = VerificationReport("type-a-smoothness", {"n": n})

    def run(rep: VerificationReport) -> None:
        wg = WeylGroup.for_system(rs, cap)
        # the pattern group under the default cap, as object-level flatten reads it
        src = WeylGroup.for_system(a3)
        mark = bytearray(256)
        for p in singular:
            mark[src.idx(p)] = 1
        # byte w of contains is 1 once some embedding flattens w to 3412 or 4231;
        # A3's masks fit one byte, so each flat table is a bytes
        found = 0
        for emb in enumerate_embeddings(a3, rs):
            found |= int.from_bytes(emb.flat(cap).translate(mark), "little")
        contains = found.to_bytes(wg.size, "little")

        smooth = bytes(is_rationally_smooth(WeylElement(rs, m), cap) for m in wg.masks)
        # byte w of avoids is 1 where contains has 0, the 3412/4231 avoiders
        avoids = contains.translate(b"\1\0".ljust(256, b"\0"))
        rep.cases += wg.size
        if smooth != avoids:
            for m, by_kl, by_pattern in zip(wg.masks, smooth, avoids):
                if by_kl != by_pattern:
                    rep.failures.append(
                        f"{element_label(WeylElement(rs, m))}: "
                        f"kl says {'smooth' if by_kl else 'singular'}, "
                        f"patterns say {'smooth' if by_pattern else 'singular'}")
        rep.parameters["smooth_kl"] = smooth.count(1)
        rep.parameters["smooth_pattern"] = avoids.count(1)

    return _timed(run, report)


# ---------------------------------------------------------------------------
# suite registry for the CLI
# ---------------------------------------------------------------------------

def run_suite(name: str, args: Sequence[str], window: dict,
              slow: bool = False,
              cap: int = DEFAULT_ENUMERATION_CAP) -> list[VerificationReport]:
    """Run one named suite; without args, sweep the window's defaults."""
    fn = {"flattening": verify_flattening, "x-determination": verify_x_determination,
          "length-sufficiency": verify_length_sufficiency, "kl-transfer": verify_kl_transfer}.get(name)
    if fn is not None:
        if args:
            if len(args) != 2:
                raise ValueError(f"suite {name} expects SOURCE TARGET")
            return [fn(args[0], args[1], cap)]
        if name == "kl-transfer":
            return [fn(s, t, cap) for s, t in window["kl_transfer_pairs"]]
        return [fn(s, t, cap) for s, t in matrix_pairs(window, slow)]
    if name == "upper-ideal":
        window_types = sorted(
            {t for t in window["sources"]} | {t for t in window["targets"]},
            key=lambda t: (build_root_system(t).rank, t))
        props = [args[0]] if args else window["upper_ideal_properties"]
        pairs = None if args[1:] else matrix_pairs(window, slow)
        return verify_upper_ideal(props, list(args[1:]) or window_types, pairs, cap)
    if name == "type-a-smoothness":
        sizes = [int(a) for a in args] if args else window["smoothness_sizes"]
        return [verify_type_a_smoothness(n, cap) for n in sizes]
    raise ValueError(f"unknown suite {name!r}")


SUITES = (
    "flattening",
    "x-determination",
    "length-sufficiency",
    "kl-transfer",
    "upper-ideal",
    "type-a-smoothness",
)
