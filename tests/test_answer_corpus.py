"""Every tier-1 suite answer equals the committed corpus.

``answer_corpus.json`` pins ``to_dict()`` of each report, without its
wall time.  Its case counts were checked against independent sources
when it was written: ``wpbench/expected_counts.json`` for the default
window, 846,820 cases for the slow tier of ``x-determination`` and
``length-sufficiency``, 1,117,259 for ``upper-ideal --slow``, 137,120
for A2 -> F4, and 1,552 rationally smooth elements of S7 (OEIS A032351).
Rewrite it with ``tests/write_answer_corpus.py`` only for an answer that
changes on purpose.
"""

from __future__ import annotations

import json

from write_answer_corpus import CORPUS, RUNS, answers


def test_suite_answers_equal_the_corpus():
    corpus = json.loads(CORPUS.read_text())
    assert list(corpus) == [key for key, *_ in RUNS]
    for key, suite, params, slow in RUNS:
        assert answers(suite, params, slow) == corpus[key], key
