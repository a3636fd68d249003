import hashlib
import json
import os
import subprocess
import sys

import pytest

import weylpat
from weylpat.harness.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    for key in ("command", "inputs", "result", "cases", "failures"):
        assert key in payload
    return code, payload


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "A2")
    assert code == 0
    assert "6 roots" in out and "simple a1" in out
    code, payload = run_json(capsys, "roots", "A2")
    assert code == 0
    assert payload["result"]["count"] == 6
    assert payload["result"]["positive"] == 3


def test_enumerate_command(capsys):
    code, payload = run_json(capsys, "enumerate", "B2")
    assert code == 0
    assert payload["result"]["order"] == 8
    words = [e["word"] for e in payload["result"]["elements"]]
    assert words[0] == "e" and words[-1] == "1 2 1 2"


def test_bruhat_command(capsys):
    code, out, _ = run(capsys, "bruhat", "A2", "--u", "1", "--v", "1 2 1")
    assert code == 0
    assert "4 elements, rank 2" in out
    code, out, _ = run(capsys, "bruhat", "A2", "--u", "2", "--v", "1")
    assert code == 1


def test_bruhat_text_lists_the_interval_rank_by_rank(capsys):
    # each line names, in interval order, the elements that many steps above the bottom
    code, out, _ = run(capsys, "bruhat", "A3", "--u", "1324", "--v", "3412")
    assert code == 0
    assert out.splitlines() == [
        "interval [2 (1324), 2 1 3 2 (3412)] in A3: 10 elements, rank 3",
        "  rank 0: 2 (1324)",
        "  rank 1: 1 2 (2314), 2 1 (3124), 2 3 (1342), 3 2 (1423)",
        "  rank 2: 1 2 1 (3214), 1 3 2 (2413), 2 1 3 (3142), 2 3 2 (1432)",
        "  rank 3: 2 1 3 2 (3412)",
    ]
    code, out, _ = run(capsys, "bruhat", "A2", "--u", "e", "--v", "1 2 1")
    assert out.splitlines()[1:] == [
        "  rank 0: e (123)",
        "  rank 1: 1 (213), 2 (132)",
        "  rank 2: 1 2 (231), 2 1 (312)",
        "  rank 3: 1 2 1 (321)",
    ]


def test_kl_command(capsys):
    code, out, _ = run(capsys, "kl", "A3", "--u", "1234", "--v", "3412")
    assert code == 0 and out.strip() == "1 + q"
    code, payload = run_json(capsys, "kl", "A3", "--u", "1234", "--v", "3412")
    assert payload["result"]["coefficients"] == [1, 1]
    assert payload["inputs"]["v"]["one_line"] == "3412"
    assert payload["inputs"]["v"]["word"] == "2 1 3 2"
    # incomparable pair is a false answer, not a usage error
    code, out, err = run(capsys, "kl", "A3", "--u", "3412", "--v", "1234")
    assert code == 1


def test_embeddings_and_flatten_commands(capsys):
    code, payload = run_json(capsys, "embeddings", "A1xA1", "A3")
    assert code == 0 and payload["result"]["count"] == 6
    code, out, _ = run(capsys, "flatten", "A1", "A2", "--embedding", "2", "--w", "1 2")
    assert code == 0 and out.strip() == "1 (21)"
    code, out, err = run(capsys, "flatten", "A1", "A2", "--embedding", "9", "--w", "e")
    assert code == 2


def test_avoids_command(capsys):
    code, out, _ = run(capsys, "avoids", "A3", "--w", "4231", "--pattern", "A3:3412")
    assert code == 0 and out.strip() == "avoids"
    code, out, _ = run(capsys, "avoids", "A4", "--w", "45312", "--pattern", "A3:3412")
    assert code == 1 and out.strip() == "does not avoid"
    code, out, err = run(capsys, "avoids", "A3", "--w", "4231", "--pattern", "3412")
    assert code == 2


def test_interval_avoids_command(capsys):
    code, out, _ = run(capsys, "interval-avoids", "A4", "--w", "45312",
                       "--interval", "A3:1324..3412")
    assert code in (0, 1)
    code, out, _ = run(capsys, "interval-avoids", "A3", "--w", "1234",
                       "--interval", "A3:1234..3412")
    assert code == 0


def test_interval_avoids_enumerates_no_group(capsys):
    # only the forced bottom of each embedding is inspected, so a target
    # above the default enumeration cap (|W(D6)| = 23040) still answers
    code, out, err = run(capsys, "interval-avoids", "D6", "--cap", "30000",
                         "--w", "1 2 3 4 5 6", "--interval", "A1:e..1")
    assert (code, out.strip(), err) == (1, "does not avoid", "")


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "kl-transfer", "A1", "A2")
    assert code == 0 and "PASS" in out
    code, payload = run_json(capsys, "verify", "kl-transfer", "A1", "B2")
    assert code == 0 and payload["result"] == "pass"
    assert payload["cases"] == 44
    assert payload["reports"][0]["suite"] == "kl-transfer"


def test_verify_upper_ideal_and_config(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "upper-ideal", "kl-nontrivial", "A3")
    assert code == 0 and "PASS" in out
    window = tmp_path / "window.json"
    window.write_text(json.dumps({
        "sources": ["A1"], "targets": ["A2"],
        "kl_transfer_pairs": [["A1", "A2"]],
    }))
    code, out, _ = run(capsys, "verify", "length-sufficiency",
                       "--config", str(window))
    assert code == 0 and "source=A1 target=A2" in out


def test_usage_errors(capsys):
    code, out, err = run(capsys, "roots", "Z9")
    assert code == 2 and "malformed" in err
    code, out, err = run(capsys, "kl", "A3", "--u", "3312", "--v", "1234")
    assert code == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_cap_flag(capsys):
    code, out, err = run(capsys, "enumerate", "B3", "--cap", "10")
    assert code == 2 and "cap exceeded" in err
    # verify uses --cap as given, 0 included
    code, out, err = run(capsys, "verify", "type-a-smoothness", "4", "--cap", "0")
    assert code == 2 and "cap exceeded" in err


def test_flatten_and_avoids_honour_cap(capsys):
    code, out, err = run(capsys, "flatten", "A2", "A3", "--cap", "2", "--w", "1 2")
    assert code == 2 and "cap exceeded" in err  # |W(A2)| = 6
    code, out, err = run(capsys, "avoids", "A4", "--w", "45312", "--pattern", "A3:3412",
                         "--cap", "23")
    assert code == 2 and "cap exceeded" in err  # |W(A3)| = 24
    # 3 is too few nodes for the search of A2 embeddings into A4
    code, out, err = run(capsys, "interval-avoids", "A4", "--w", "1 2",
                         "--interval", "A2:e..1 2", "--cap", "3")
    assert code == 2 and "cap exceeded" in err


def test_verify_flattening_honours_cap_for_the_source(capsys):
    # |W(A6xA1)| = 10,080 is over the default cap of 10,000
    code, payload = run_json(capsys, "verify", "flattening", "A6xA1", "A6xA1",
                             "--cap", "30000")
    assert code == 0 and payload["result"] == "pass"


def test_config_rejects_unknown_keys(capsys, tmp_path):
    window = tmp_path / "window.json"
    window.write_text(json.dumps({"enumeration_cap": 5}))
    code, out, err = run(capsys, "verify", "type-a-smoothness", "4",
                         "--config", str(window))
    assert code == 2 and "enumeration_cap" in err
    window.write_text(json.dumps(["sources"]))
    code, out, err = run(capsys, "verify", "type-a-smoothness", "4",
                         "--config", str(window))
    assert code == 2 and "JSON object" in err


def test_well_formed_commands_never_hit_exit_3(capsys):
    grid = [
        ["roots", "G2"],
        ["enumerate", "A1xA1"],
        ["bruhat", "B2", "--u", "e", "--v", "1 2"],
        ["kl", "B2", "--u", "e", "--v", "1 2 1 2"],
        ["embeddings", "B2", "B3"],
        ["flatten", "A2", "A3", "--embedding", "0", "--w", "3412"],
        ["avoids", "B3", "--w", "1 2 3", "--pattern", "A1:1"],
        ["interval-avoids", "A3", "--w", "4231", "--interval", "A2:e..1 2 1"],
        ["verify", "flattening", "A1", "G2"],
    ]
    for argv in grid:
        assert main(argv) in (0, 1), argv
        capsys.readouterr()


# sha256 of the text and of the JSON output, recorded while every root
# system built its Fraction ambient vectors up front
OUTPUT_PINS = {
    ("roots", "F4"): ("d84f105a8368292c664ada3ed1fe1f4b657e8eb4f50dbdf41728cb60565be3aa",
                      "e7faa298ba00bb13c4f068c5a47bc351df9d085db35c61a5bf75ee4a7b8ca0f9"),
    ("roots", "E8"): ("ac2ac4c9fa2f49f7affb7bdb5c10e086ca81a2a005c0df8d7272e387a0aa01b4",
                      "962680ca32a768bb9e851f4702db2383c9392a0b2329a7ff67bd77ab54836fe9"),
    ("embeddings", "B2", "F4"):
        ("2d88a8e789c90115c56773903e55f7734823462c31010e285f1eef301ca9dffb",
         "8eedddc0a41476333fa422b4ff78773f40dd20a3d1eb99f34874b350e3b09983"),
}


@pytest.mark.parametrize("argv", list(OUTPUT_PINS))
def test_root_and_embedding_output_is_pinned(capsys, argv):
    got = []
    for fmt in ((), ("--format", "json")):
        code, out, _ = run(capsys, *argv, *fmt)
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == OUTPUT_PINS[argv]


def test_a_verify_run_loads_neither_fractions_nor_decimal():
    # only the ambient vectors read Fraction, and no sweep reads them
    script = ("import sys\n"
              "from weylpat.harness.cli import main\n"
              "assert main(['verify', 'flattening', 'A1', 'A2']) == 0\n"
              "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylpat.__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "[]"
