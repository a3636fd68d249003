"""The weylpat command lines of each benchmark workload.

Both workloads sweep fixed windows, so the seed does not change their
inputs; nothing here calls weylpat.
"""

from __future__ import annotations

VERIFY_SUITES = (
    "flattening",
    "x-determination",
    "length-sufficiency",
    "kl-transfer",
    "upper-ideal",
    "type-a-smoothness",
)

WORKLOADS = ("verify-window", "smoothness-s7")


def workload_ops(workload: str, seed: int) -> list[list[str]]:
    """The weylpat command lines of one pass of a workload (the seed is unused)."""
    if workload == "verify-window":
        return [["verify", s, "--format", "json"] for s in VERIFY_SUITES]
    if workload == "smoothness-s7":
        return [["verify", "type-a-smoothness", "7", "--format", "json"]]
    raise ValueError(f"unknown workload {workload!r}")
