"""Correctness checks on the program's outputs, independent of its code.

The oracles are classical facts recomputed here on permutations:
3412/4231 containment and the number of smooth permutations (OEIS
A032351).  Case counts of the verification sweeps, which have no
independent source, are compared with the stored copy in
``expected_counts.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path

EXPECTED_COUNTS = Path(__file__).with_name("expected_counts.json")

# smooth permutations of n, i.e. avoiding 3412 and 4231 (OEIS A032351)
SMOOTH_PERMUTATIONS = {4: 22, 5: 88, 6: 366, 7: 1552}


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# permutation oracles
# ---------------------------------------------------------------------------

def contains(w: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """Classical containment: a subsequence of w order-isomorphic to pattern."""
    k = len(pattern)
    for pos in itertools.combinations(range(len(w)), k):
        sub = [w[p] for p in pos]
        if all((sub[a] < sub[b]) == (pattern[a] < pattern[b])
               for a in range(k) for b in range(a + 1, k)):
            return True
    return False


def is_smooth(w: tuple[int, ...]) -> bool:
    return not contains(w, (3, 4, 1, 2)) and not contains(w, (4, 2, 3, 1))


@functools.cache
def smooth_set(n: int) -> set[tuple[int, ...]]:
    return {w for w in itertools.permutations(range(1, n + 1)) if is_smooth(w)}


# ---------------------------------------------------------------------------
# verify sweeps
# ---------------------------------------------------------------------------

def suite_counts(outputs: dict[str, dict]) -> dict[str, list]:
    """Per suite, the (parameters, cases) of every report, for the stored copy."""
    return {suite: [[r["parameters"], r["cases"]] for r in out["reports"]]
            for suite, out in outputs.items()}


def write_counts(results: list[dict]) -> None:
    """Store the case counts of one verify-window pass, one report per line."""
    counts = suite_counts(_suite_outputs(results))
    EXPECTED_COUNTS.write_text("{\n" + ",\n".join(
        f"{json.dumps(suite)}: [\n  "
        + ",\n  ".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]"
        for suite, rows in sorted(counts.items())) + "\n}\n")


def _suite_outputs(results: list[dict]) -> dict[str, dict]:
    outputs = {}
    for res in results:
        require(res["rc"] == 0, f"{' '.join(res['argv'])} exited {res['rc']}: {res['stderr']}")
        out = json.loads(res["stdout"])
        require(out["result"] == "pass" and not out["failures"],
                f"{out['inputs']['suite']} reported failures: {out['failures'][:3]}")
        outputs[out["inputs"]["suite"]] = out
    return outputs


def _check_smooth_reports(out: dict) -> None:
    for rep in out["reports"]:
        n = rep["parameters"]["n"]
        want = SMOOTH_PERMUTATIONS[n]
        require(len(smooth_set(n)) == want, f"own smooth count of S{n} is not {want}")
        require(rep["cases"] == math.factorial(n), f"S{n}: {rep['cases']} cases")
        for side in ("smooth_kl", "smooth_pattern"):
            require(rep["parameters"][side] == want,
                    f"S{n}: {side} = {rep['parameters'][side]}, expected {want}")


def check_verify_window(results: list[dict]) -> None:
    outputs = _suite_outputs(results)
    _check_smooth_reports(outputs["type-a-smoothness"])
    require(outputs["x-determination"]["cases"] == outputs["length-sufficiency"]["cases"],
            "x-determination and length-sufficiency disagree on the case count")
    stored = json.loads(EXPECTED_COUNTS.read_text())
    require(suite_counts(outputs) == stored,
            f"case counts differ from {EXPECTED_COUNTS.name}")


def check_smoothness_s7(results: list[dict]) -> None:
    _check_smooth_reports(_suite_outputs(results)["type-a-smoothness"])


def check(workload: str, results: list[dict]) -> None:
    if workload == "verify-window":
        check_verify_window(results)
    else:
        check_smoothness_s7(results)
