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


def test_moved_names_are_gone_and_every_export_resolves():
    # the object-level interval layer lives with the test oracles in helpers.py
    from weylpat import patterns, weyl

    for module in (weylpat, weyl, patterns):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
        for name in ("BruhatInterval", "interval", "interval_poset_reachable", "forced_bottom"):
            assert name not in module.__all__ and not hasattr(module, name)


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
    code, out, err = run(capsys, "interval-avoids", "A4", "--w", "1 2",
                         "--interval", "A2:e..1 2", "--cap", "3")
    assert code == 2 and "cap exceeded" in err  # |W(A2)| = 6
    # a cap above the default bounds a larger pattern group as well (|W(D6)| = 23040)
    code, out, err = run(capsys, "interval-avoids", "D6", "--cap", "30000", "--w", "1 2",
                         "--interval", "D6:e..1 2")
    assert (code, out.strip(), err) == (1, "does not avoid", "")


def test_avoids_cap_bounds_the_pattern_group_alone(capsys):
    # |W(A1)| = 2 is within the cap, and the search for the 6 embeddings of A1
    # into A3 runs under its own default, as the embeddings command's does
    code, out, err = run(capsys, "avoids", "A3", "--w", "e", "--pattern", "A1:e", "--cap", "5")
    assert (code, out.strip(), err) == (1, "does not avoid", "")


def test_a_closed_stdout_ends_quietly_with_exit_1():
    # the reader takes the first of 5,041 lines (196 kB, more than a pipe holds)
    # and closes the pipe, as `weylpat enumerate A6 | head -1` does
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylpat.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "weylpat", "enumerate", "A6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"A6: 5040 elements\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


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


# the exit code and the sha256 of the text and of the JSON output of one query
# per command that answers about elements
QUERY_PINS = {
    ("enumerate", "G2"):
        (0, "d17f673c4537a7613c42ea87e5d778c4037b65101f71aac7a76bd4cbe21e6ceb",
         "ba8678e5bd0e0a33bea8617ec979d8f5473d511123a1ad40e56eba6dd059e405"),
    ("bruhat", "A3", "--u", "e", "--v", "3412"):
        (0, "4195470a83b403791be06307f0e94cdab1f7b6f1181e2bd7c6a27fd0387c0699",
         "6e12255a655dca23e9bda1a9dd51aa068aae9e9df913a2b9e58d37f23c2d279e"),
    ("bruhat", "B3", "--u", "1", "--v", "1 2 3"):
        (0, "9e99c12eb0e951ceb14df77c67eef28b9ef996dd03c1f88e57a5955d32739d56",
         "411f6b03625a14658012defba6f80fd0d6a6fc28838ff953566c000c37c75941"),
    ("kl", "A3", "--u", "1324", "--v", "3412"):
        (0, "49814df1bec924098edd0d87055b30e8fd2fa2a16ad5cd88cebaebeab305d039",
         "6e812e17001804385c0820910fe99d4c432658e96d4573b0036d983188e030d3"),
    ("kl", "B3", "--u", "e", "--v", "3 2 3 2"):
        (0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
         "695fc6aa5641cd34132de3d9909d95ee496818e23f07ae531b66f535d48e06ea"),
    ("flatten", "A2", "A3", "--w", "3412", "--embedding", "1"):
        (0, "9eae140351398b4e6058d9f21eb917a80fb74a76900e1c21483355321496db05",
         "699c8a65ffcc4fd02508500b40c8787d053c4afbbd62dc02375804e789b3ccfc"),
    ("avoids", "A3", "--w", "3412", "--pattern", "A3:3412"):
        (1, "a053372c76fc65e588e8e69eeb7b42b5455b4c7d84bf532c2450836bef864bf2",
         "449ce20fc01a680ccf41489d52b45f41dcbc7218840ec60b4a2d9c4d71904a50"),
    ("avoids", "B3", "--w", "1 2 3 2 1", "--pattern", "A2:321"):
        (0, "2f6810386b51904f2098879cb5b4bb1dc078c5402b6fa43d47f52d76143a4085",
         "1edd3648e712290a24562248715caac3d695661a01642ace16021154ca1b8ce0"),
    ("interval-avoids", "A4", "--w", "45312", "--interval", "A3:1324..3412"):
        (0, "2f6810386b51904f2098879cb5b4bb1dc078c5402b6fa43d47f52d76143a4085",
         "eff0c0b9ff51eebb8799ec88347c6849c3875a2ad019c6c0a8dc2a517ed5c506"),
}


@pytest.mark.parametrize("argv", list(QUERY_PINS))
def test_query_output_is_pinned(capsys, argv):
    code, text, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == json_code == QUERY_PINS[argv][0]
    assert (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(out.encode()).hexdigest()) == QUERY_PINS[argv][1:]


def test_a_verify_run_loads_neither_fractions_nor_decimal():
    # only the ambient vectors read Fraction, and no sweep reads them; nor does
    # a run load typing, threading or the modules importlib.resources pulls in.
    # Under -S, site preloads none of them either
    script = ("import sys\n"
              "from weylpat.harness.cli import main\n"
              "assert main(['verify', 'flattening', 'A1', 'A2']) == 0\n"
              "print(sorted({'fractions', 'decimal', 'typing', 'importlib.resources', 'pathlib',\n"
              "              'tempfile', 'zipfile', 'urllib.parse', 'threading'}\n"
              "             & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylpat.__file__)))
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "[]"
