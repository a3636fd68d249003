"""Write ``answer_corpus.json``: the tier-1 answers of the verification suites.

Run from the repository root::

    PYTHONPATH=src python tests/write_answer_corpus.py

The corpus holds ``to_dict()`` of every report, without ``wall_time``,
for each suite on the default window and with ``--slow``, plus
``kl-transfer A2 F4`` and ``type-a-smoothness 7``.  A change that
rewrites it changes an answer, and says which one and why.
"""

from __future__ import annotations

import json
from pathlib import Path

from weylpat.harness.verify import SUITES, default_window, run_suite

CORPUS = Path(__file__).with_name("answer_corpus.json")

# (key, suite, params, slow) for every entry of the corpus, in file order
RUNS = ([(f"{suite}{' --slow' if slow else ''}", suite, [], slow)
         for slow in (False, True) for suite in SUITES]
        + [("kl-transfer A2 F4", "kl-transfer", ["A2", "F4"], False),
           ("type-a-smoothness 7", "type-a-smoothness", ["7"], False)])


def answers(suite: str, params: list[str], slow: bool) -> list[dict]:
    """The reports of one run, each without its wall time."""
    out = []
    for report in run_suite(suite, params, default_window(), slow=slow):
        d = report.to_dict()
        del d["wall_time"]
        out.append(d)
    return out


if __name__ == "__main__":
    corpus = {key: answers(suite, params, slow) for key, suite, params, slow in RUNS}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
