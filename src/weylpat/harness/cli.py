"""Command-line interface.

Exit codes: 0 for success or a true answer, 1 for a false answer (for
example "does not avoid", or a verification sweep with failures), 2 for
usage errors, 3 for internal invariant violations.  A reader that closes
stdout early, such as ``head``, ends the command with exit code 1 and
nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Sequence
from itertools import chain

from ..errors import (
    CapExceededError,
    GroupMismatchError,
    InternalInvariantError,
    InvalidCartanType,
    NotAnInversionSetError,
    NotComparableError,
)
from ..kl import kl_polynomial
from ..patterns import (
    enumerate_embeddings,
    flatten,
    interval_pattern_avoids,
    parse_interval_spec,
    pattern_avoids,
)
from ..roots import build_root_system
from ..weyl import (
    DEFAULT_ENUMERATION_CAP,
    WeylElement,
    WeylGroup,
    bruhat_leq,
    element_label,
    format_word,
    one_line,
    parse_element,
)
from .verify import SUITES, load_window, run_suite

_USAGE_ERRORS = (InvalidCartanType, NotAnInversionSetError, GroupMismatchError, ValueError,
                 CapExceededError)


def _element_json(w) -> dict:
    out = {"word": format_word(w)}
    ol = one_line(w)
    if ol is not None:
        out["one_line"] = ol
    return out


# stands in a payload for the list that _emit writes one item at a time
_LISTING = "\0listing"


def _emit(args, payload: dict, text_lines: Iterable[str], items: Iterable[dict] = ()) -> None:
    """Print the JSON payload under the subcommand's name, or the text lines;
    cases and failures default to none.

    Where the payload holds ``_LISTING``, the items are written in its
    place one at a time, byte for byte the list ``json.dumps`` would
    write, so lines and items given as iterators build only the format
    printed.
    """
    if args.format == "json":
        payload["command"] = args.command
        payload.setdefault("cases", None)
        payload.setdefault("failures", [])
        head, listing, tail = json.dumps(payload, sort_keys=True).partition(json.dumps(_LISTING))
        write = sys.stdout.write
        write(head)
        if listing:
            write("[")
            for k, item in enumerate(items):
                if k:
                    write(", ")
                write(json.dumps(item, sort_keys=True))
            write("]")
        write(tail + "\n")
    else:
        for line in text_lines:
            print(line)


def _root_str(coords: Iterable[str]) -> str:
    return "(" + ", ".join(coords) + ")"


# ---------------------------------------------------------------------------
# command handlers; each returns the process exit code
# ---------------------------------------------------------------------------

def _cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    simple_rank = {idx: k + 1 for k, idx in enumerate(rs.simple)}
    rows = []
    for i, r in enumerate(rs.roots):
        rows.append({
            "index": i,
            "coords": [str(x) for x in r],
            "height": rs.heights[i],
            "positive": rs.is_positive(i),
            "simple": simple_rank.get(i),
        })
    payload = {
        "inputs": {"type": rs.cartan_type},
        "result": {
            "count": len(rs.roots),
            "positive": rs.num_positive,
            "rank": rs.rank,
            "ambient_dim": rs.ambient_dim,
            "roots": rows,
        },
    }
    lines = [f"{rs.cartan_type}: {len(rs.roots)} roots, {rs.num_positive} positive, "
             f"rank {rs.rank}, ambient dimension {rs.ambient_dim}"]
    for row in rows:
        tags = []
        if row["positive"]:
            tags.append("positive")
        if row["simple"]:
            tags.append(f"simple a{row['simple']}")
        tag = ("  " + " ".join(tags)) if tags else ""
        lines.append(f"  [{row['index']:>2}] {_root_str(row['coords'])}"
                     f"  height {row['height']:>2}{tag}")
    _emit(args, payload, lines)
    return 0


def _cmd_enumerate(args) -> int:
    rs = build_root_system(args.type)
    wg = WeylGroup.for_system(rs, args.cap)
    # each element is built from its mask as it is printed; only the
    # lines or the items read this generator, the format printed
    elements = (WeylElement(rs, m) for m in wg.masks)
    _emit(args, {"inputs": {"type": rs.cartan_type},
                 "result": {"order": wg.size, "elements": _LISTING}},
          chain([f"{rs.cartan_type}: {wg.size} elements"],
                (f"  l={w.length:>2}  {element_label(w)}" for w in elements)),
          map(_element_json, elements))
    return 0


def _cmd_bruhat(args) -> int:
    rs = build_root_system(args.type)
    u = parse_element(rs, args.u)
    v = parse_element(rs, args.v)
    comparable = bruhat_leq(u, v)
    payload = {
        "inputs": {"type": rs.cartan_type, "u": _element_json(u), "v": _element_json(v)},
        "result": {"comparable": comparable},
    }
    if not comparable:
        _emit(args, payload, [f"{element_label(u)} is not below {element_label(v)}"])
        return 1
    wg = WeylGroup.for_system(rs, args.cap)
    elements = [WeylElement(rs, wg.masks[z]) for z in wg.interval_indices(wg.idx(u), wg.idx(v))]
    rank = v.length - u.length
    payload["result"]["size"] = len(elements)
    payload["result"]["rank"] = rank
    payload["result"]["elements"] = [_element_json(z) for z in elements]
    lines = [f"interval [{element_label(u)}, {element_label(v)}] in {rs.cartan_type}: "
             f"{len(elements)} elements, rank {rank}"]
    levels: list[list[str]] = [[] for _ in range(rank + 1)]
    for z in elements:
        levels[z.length - u.length].append(element_label(z))
    for level, names in enumerate(levels):
        lines.append(f"  rank {level}: {', '.join(names)}")
    _emit(args, payload, lines)
    return 0


def _cmd_kl(args) -> int:
    rs = build_root_system(args.type)
    u = parse_element(rs, args.u)
    v = parse_element(rs, args.v)
    inputs = {"type": rs.cartan_type, "u": _element_json(u), "v": _element_json(v)}
    try:
        poly = kl_polynomial(u, v, args.cap)
    except NotComparableError as exc:
        _emit(args, {"inputs": inputs, "result": None, "failures": [str(exc)]}, [str(exc)])
        return 1
    _emit(args, {"inputs": inputs,
                 "result": {"text": str(poly), "coefficients": list(poly.coefficients)}},
          [str(poly)])
    return 0


def _cmd_embeddings(args) -> int:
    source = build_root_system(args.source)
    target = build_root_system(args.target)
    embs = enumerate_embeddings(source, target)
    coords = [[str(x) for x in r] for r in target.roots]
    _emit(args, {"inputs": {"source": source.cartan_type, "target": target.cartan_type},
                 "result": {"count": len(embs), "embeddings": _LISTING}},
          chain([f"{len(embs)} embeddings of {source.cartan_type} into {target.cartan_type}"],
                (f"  [{k}] " + ", ".join(f"a{j + 1} -> {_root_str(coords[i])}"
                                         for j, i in enumerate(emb.simple_images))
                 for k, emb in enumerate(embs))),
          ({"index": k,
            "simple_images": [{"root_index": i, "coords": coords[i]} for i in emb.simple_images]}
           for k, emb in enumerate(embs)))
    return 0


def _cmd_flatten(args) -> int:
    source = build_root_system(args.source)
    target = build_root_system(args.target)
    embs = enumerate_embeddings(source, target)
    if not 0 <= args.embedding < len(embs):
        raise ValueError(
            f"embedding index {args.embedding} out of range; "
            f"{len(embs)} embeddings exist (see the embeddings command)")
    w = parse_element(target, args.w)
    result = flatten(embs[args.embedding], w, args.cap)
    payload = {
        "inputs": {"source": source.cartan_type, "target": target.cartan_type,
                   "embedding": args.embedding, "w": _element_json(w)},
        "result": _element_json(result),
    }
    _emit(args, payload, [element_label(result)])
    return 0


def _cmd_avoids(args) -> int:
    rs = build_root_system(args.type)
    w = parse_element(rs, args.w)
    src_type, _, v_text = args.pattern.partition(":")
    if not _:
        raise ValueError('pattern must look like "SRC:V", e.g. "A3:3412"')
    source = build_root_system(src_type)
    v = parse_element(source, v_text)
    avoided = pattern_avoids(v, w, args.cap)
    payload = {
        "inputs": {"type": rs.cartan_type, "w": _element_json(w),
                   "pattern": {"type": source.cartan_type, "v": _element_json(v)}},
        "result": {"avoids": avoided},
    }
    _emit(args, payload, ["avoids" if avoided else "does not avoid"])
    return 0 if avoided else 1


def _cmd_interval_avoids(args) -> int:
    rs = build_root_system(args.type)
    w = parse_element(rs, args.w)
    source, u, v = parse_interval_spec(args.interval)
    avoided = interval_pattern_avoids(w, u, v, args.cap)
    payload = {
        "inputs": {"type": rs.cartan_type, "w": _element_json(w),
                   "interval": {"type": source.cartan_type,
                                "u": _element_json(u), "v": _element_json(v)}},
        "result": {"avoids": avoided},
    }
    _emit(args, payload, ["avoids" if avoided else "does not avoid"])
    return 0 if avoided else 1


def _cmd_verify(args) -> int:
    window = load_window(args.config)
    reports = run_suite(args.suite, args.params, window, slow=args.slow, cap=args.cap)
    all_passed = all(r.passed for r in reports)
    payload = {
        "inputs": {"suite": args.suite, "params": list(args.params)},
        "result": "pass" if all_passed else "fail",
        "cases": sum(r.cases for r in reports),
        "failures": [f for r in reports for f in r.failures],
        "reports": [r.to_dict() for r in reports],
    }
    lines = [text for r in reports for text in (r.render_text(), "")]
    lines.append(f"verify {args.suite}: {'PASS' if all_passed else 'FAIL'} "
                 f"({payload['cases']} cases, {len(payload['failures'])} failures)")
    _emit(args, payload, lines)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                        help="group enumeration cap (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="weylpat",
        description="Weyl group combinatorics: root systems, Bruhat order, "
                    "Kazhdan-Lusztig polynomials, pattern and interval pattern "
                    "avoidance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common], help="list the roots of a system")
    p.add_argument("type")
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("enumerate", parents=[common], help="list all group elements")
    p.add_argument("type")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("bruhat", parents=[common], help="compare two elements and print the interval")
    p.add_argument("type")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(handler=_cmd_bruhat)

    p = sub.add_parser("kl", parents=[common], help="Kazhdan-Lusztig polynomial of a pair")
    p.add_argument("type")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(handler=_cmd_kl)

    p = sub.add_parser("embeddings", parents=[common], help="list subsystem embeddings")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(handler=_cmd_embeddings)

    p = sub.add_parser("flatten", parents=[common], help="flatten an element through an embedding")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--embedding", type=int, default=0,
                   help="index into the embeddings listing (default: 0)")
    p.add_argument("--w", required=True)
    p.set_defaults(handler=_cmd_flatten)

    p = sub.add_parser("avoids", parents=[common], help="ordinary pattern avoidance")
    p.add_argument("type")
    p.add_argument("--w", required=True)
    p.add_argument("--pattern", required=True, help='pattern element, e.g. "A3:3412"')
    p.set_defaults(handler=_cmd_avoids)

    p = sub.add_parser("interval-avoids", parents=[common], help="interval pattern avoidance")
    p.add_argument("type")
    p.add_argument("--w", required=True)
    p.add_argument("--interval", required=True, help='interval, e.g. "A3:1234..3412"')
    p.set_defaults(handler=_cmd_interval_avoids)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("params", nargs="*",
                   help="suite parameters; defaults to the configured window")
    p.add_argument("--config", default=None, help="path to a window configuration file")
    p.add_argument("--slow", action="store_true",
                   help="include the slow window tier (D4, F4 targets)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize all usage exits to 2
        return 0 if exc.code == 0 else 2
    try:
        code = args.handler(args)
        # output that fits the buffer meets a closed pipe only here
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # send the flush at shutdown to devnull, as the Python docs' SIGPIPE note does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NotComparableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything unexpected is an internal failure
        print(f"internal invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
