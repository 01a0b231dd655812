"""Command-line behaviour: formats, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fishburn import AscentSequence, Poset, bijections, cli, verify
from fishburn.objects import _trusted

from conftest import random_ascent_sequence


def run(argv, stdin_text="", monkeypatch=None, capsys=None):
    if stdin_text or monkeypatch:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestCount:
    def test_posets_six(self, capsys):
        code, out, _ = run(["count", "--object", "posets", "--n", "6"], capsys=capsys)
        assert code == 0 and out == "217\n"

    def test_empty_size(self, capsys):
        code, out, _ = run(["count", "--object", "ascseq", "--n", "0"], capsys=capsys)
        assert code == 0 and out == "1\n"

    def test_barred_by_rlmin(self, capsys):
        code, out, _ = run(["count", "--object", "barred", "--n", "5", "--by", "rlmin"],
                           capsys=capsys)
        assert code == 0 and out == "1,10,21,10,1\n"

    def test_ascseq_by_ascents(self, capsys):
        code, out, _ = run(["count", "--object", "ascseq", "--n", "4", "--by", "asc"],
                           capsys=capsys)
        assert code == 0 and out == "1,6,7,1\n"

    def test_filtered_families(self, capsys):
        code, out, _ = run(["count", "--object", "perms", "--n", "5"], capsys=capsys)
        assert code == 0 and out == "53\n"
        code, out, _ = run(["count", "--object", "involutions", "--n", "4"], capsys=capsys)
        assert code == 0 and out == "15\n"

    def test_cap_exit_code(self, capsys):
        code, _, err = run(["count", "--object", "perms", "--n", "10"], capsys=capsys)
        assert code == 3 and "cap" in err

    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "4")
        code, _, err = run(["count", "--object", "perms", "--n", "5"], capsys=capsys)
        assert code == 3

    def test_bad_cap_setting_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "abc")
        code, out, err = run(["count", "--object", "perms", "--n", "3"], capsys=capsys)
        assert code == 2 and not out
        assert "FISHBURN_MAX_BRUTE_N" in err and "'abc'" in err

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["count", "--object", "widgets", "--n", "3"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_unsupported_split_is_usage_error(self, capsys):
        code, _, err = run(["count", "--object", "perms", "--n", "3", "--by", "rlmin"],
                           capsys=capsys)
        assert code == 2


class TestNegativeSizes:
    @pytest.mark.parametrize("argv", [
        ["count", "--object", "ascseq", "--n", "-2"],
        ["count", "--object", "ascseq", "--n", "-2", "--by", "asc"],
        ["enumerate", "--object", "ascseq", "--n", "-1"],
        ["series", "--terms", "-3"],
        ["avoiders", "--n", "-1", "--barred", "--count"],
    ])
    def test_negative_size_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert not out and "usage:" in err and "must be >= 0" in err


class TestEnumerate:
    def test_lexicographic_sequences(self, capsys):
        code, out, _ = run(["enumerate", "--object", "ascseq", "--n", "3"], capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["[0,0,0]", "[0,0,1]", "[0,1,0]", "[0,1,1]", "[0,1,2]"]

    def test_posets_are_json_lines(self, capsys):
        code, out, _ = run(["enumerate", "--object", "posets", "--n", "2"], capsys=capsys)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2
        assert json.loads(lines[0]) == {"n": 2, "relations": []}
        assert json.loads(lines[1]) == {"n": 2, "relations": [[1, 2]]}


class TestConvert:
    def test_sequence_to_perm(self, capsys, monkeypatch):
        code, out, _ = run(["convert", "--from", "ascseq", "--to", "perm"],
                           "[0,1,0,1,3,1,1,2]\n", monkeypatch, capsys)
        assert code == 0 and out == "3 1 7 6 4 8 2 5\n"

    def test_perm_to_involution(self, capsys, monkeypatch):
        code, out, _ = run(["convert", "--from", "perm", "--to", "involution"],
                           "1\n", monkeypatch, capsys)
        assert code == 0 and out == "[(1,2)]\n"

    def test_involution_to_sequence(self, capsys, monkeypatch):
        code, out, _ = run(["convert", "--from", "involution", "--to", "ascseq"],
                           "[(1,4),(2,5),(3,7),(6,8),(9,10)]\n", monkeypatch, capsys)
        assert code == 0 and out == "[0,0,1,0,2]\n"

    def test_poset_input(self, capsys, monkeypatch):
        code, out, _ = run(["convert", "--from", "poset", "--to", "modseq"],
                           '{"n":2,"relations":[[1,2]]}\n', monkeypatch, capsys)
        assert code == 0 and out == "[0,1]\n"

    def test_bad_lines_keep_going(self, capsys, monkeypatch):
        code, out, err = run(["convert", "--from", "ascseq", "--to", "perm"],
                             "[0,2]\n[0]\nnot-a-thing\n", monkeypatch, capsys)
        assert code == 1
        assert out == "1\n"
        assert "line 1" in err and "line 3" in err

    def test_bad_poset_lines_keep_going(self, capsys, monkeypatch):
        code, out, err = run(["convert", "--from", "poset", "--to", "ascseq"],
                             '{"n":2,"relations":[[1,5]]}\n{"n":-3,"relations":[]}\n'
                             '{"n":2,"relations":[[1,2]]}\n[0]\n', monkeypatch, capsys)
        assert code == 1 and out == "[0,1]\n"
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["line 1", "line 2", "line 4"]
        assert "out of range" in lines[0] and "Traceback" not in err

    def test_non_integer_poset_members_keep_going(self, capsys, monkeypatch):
        code, out, err = run(["convert", "--from", "poset", "--to", "ascseq"],
                             '{"n":2,"relations":[[1.5,2]]}\n{"n":2.9,"relations":[[true,"2"]]}\n'
                             '{"n":2,"relations":[[1,2,3]]}\n{"n":2,"relations":[[1,2]]}\n',
                             monkeypatch, capsys)
        assert code == 1 and out == "[0,1]\n"
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["line 1", "line 2", "line 3"]
        assert all("integer" in line for line in lines) and "Traceback" not in err

    def test_empty_object_rejected(self, capsys, monkeypatch):
        code, _, err = run(["convert", "--from", "ascseq", "--to", "perm"],
                           "[]\n", monkeypatch, capsys)
        assert code == 1 and "line 1" in err

    @pytest.mark.parametrize("x", [random_ascent_sequence(2000, seed=2001),
                                   AscentSequence((0,) * 2000)], ids=["seeded", "zeros"])
    def test_long_sequences_through_perm(self, x, capsys, monkeypatch):
        line = str(x) + "\n"
        code, perm, err = run(["convert", "--from", "ascseq", "--to", "perm"],
                              line, monkeypatch, capsys)
        assert code == 0 and not err
        code, back, _ = run(["convert", "--from", "perm", "--to", "ascseq"],
                            perm, monkeypatch, capsys)
        assert code == 0 and back == line
        code, modified, _ = run(["convert", "--from", "ascseq", "--to", "modseq"],
                                line, monkeypatch, capsys)
        code, back, _ = run(["convert", "--from", "modseq", "--to", "ascseq"],
                            modified, monkeypatch, capsys)
        assert code == 0 and back == line

    def test_all_pairs_compose(self, capsys, monkeypatch):
        forms = {
            "ascseq": "[0,1,0,1]",
            "modseq": "[0,2,0,1]",
            "perm": "3 1 4 2",
            "poset": '{"n":4,"relations":[[1,2],[1,4],[3,2],[3,4],[1,3]]}',
            "involution": "[(1,4),(2,6),(3,7),(5,8)]",
        }
        # the poset line above is not the canonical object; build real forms first
        code, out, _ = run(["convert", "--from", "ascseq", "--to", "poset"],
                           forms["ascseq"] + "\n", monkeypatch, capsys)
        forms["poset"] = out.strip()
        code, out, _ = run(["convert", "--from", "ascseq", "--to", "involution"],
                           forms["ascseq"] + "\n", monkeypatch, capsys)
        forms["involution"] = out.strip()
        for src, src_text in forms.items():
            for dst, dst_text in forms.items():
                code, out, _ = run(["convert", "--from", src, "--to", dst],
                                   src_text + "\n", monkeypatch, capsys)
                assert code == 0 and out.strip() == dst_text, (src, dst)


class TestStats:
    def test_perm_record(self, capsys, monkeypatch):
        code, out, _ = run(["stats", "--format", "perm"],
                           "3 1 7 6 4 8 2 5\n", monkeypatch, capsys)
        record = json.loads(out)
        assert code == 0
        assert record == {
            "n": 8, "minimals": 2, "srank": 2, "rank": 4, "maximals": 2,
            "components": 1, "level_counts": [2, 3, 1, 1, 1],
            "max_level_counts": [0, 0, 1, 0, 1],
        }

    def test_sequence_and_poset_agree(self, capsys, monkeypatch):
        code, out1, _ = run(["stats", "--format", "ascseq"],
                            "[0,1,0,1,3,1,1,2]\n", monkeypatch, capsys)
        code, out2, _ = run(["stats", "--format", "poset"],
                            '{"n":2,"relations":[]}\n', monkeypatch, capsys)
        assert json.loads(out1)["rank"] == 4
        assert json.loads(out2)["minimals"] == 2

    def test_modseq_and_involution_inputs(self, capsys, monkeypatch):
        code, out1, _ = run(["stats", "--format", "modseq"],
                            "[0,3,0,1,4,1,1,2]\n", monkeypatch, capsys)
        code, out2, _ = run(["stats", "--format", "involution"],
                            "[(1,4),(2,5),(3,7),(6,8),(9,10)]\n", monkeypatch, capsys)
        assert json.loads(out1)["srank"] == 2
        assert json.loads(out2) == {
            "n": 5, "minimals": 3, "srank": 2, "rank": 2, "maximals": 1,
            "components": 2, "level_counts": [3, 1, 1],
            "max_level_counts": [0, 0, 1],
        }

    def test_bad_poset_reported_and_stream_continues(self, capsys, monkeypatch):
        code, out, err = run(["stats", "--format", "poset"],
                             '{"n":-3,"relations":[]}\n{"n":1,"relations":[]}\n',
                             monkeypatch, capsys)
        assert code == 1
        assert err.startswith("line 1: ") and "Traceback" not in err
        assert json.loads(out)["n"] == 1

    def test_non_integer_poset_reported_and_stream_continues(self, capsys, monkeypatch):
        code, out, err = run(["stats", "--format", "poset"],
                             '{"n":2,"relations":[[1.5,2]]}\n{"n":"1","relations":[]}\n'
                             '{"n":1,"relations":[]}\n', monkeypatch, capsys)
        assert code == 1
        assert [line.split(":")[0] for line in err.splitlines()] == ["line 1", "line 2"]
        assert "Traceback" not in err and json.loads(out)["n"] == 1

    def test_empty_object_reported_and_stream_continues(self, capsys, monkeypatch):
        code, out, err = run(["stats", "--format", "ascseq"], "[]\n[0,1]\n",
                             monkeypatch, capsys)
        assert code == 1
        assert err.startswith("line 1: ") and "Traceback" not in err
        assert json.loads(out)["n"] == 2


class TestSeries:
    def test_one_per_line(self, capsys):
        code, out, _ = run(["series", "--terms", "8"], capsys=capsys)
        assert code == 0
        assert [int(v) for v in out.split()] == [1, 1, 2, 5, 15, 53, 217, 1014, 5335]

    def test_json_array(self, capsys):
        code, out, _ = run(["series", "--terms", "3", "--json"], capsys=capsys)
        assert code == 0 and json.loads(out) == [1, 1, 2, 5]

    def test_default_runs_to_twenty_terms(self, capsys):
        code, out, _ = run(["series"], capsys=capsys)
        assert code == 0 and len(out.split()) == 21


class TestPatternsCommands:
    def test_contains_with_witness(self, capsys, monkeypatch):
        code, out, _ = run(["contains", "--pattern", "231|X={1}|Y={1}", "--witness"],
                           "3 2 5 4 1\n3 1 5 2 4\n", monkeypatch, capsys)
        assert code == 0 and out.splitlines() == ["true 2 3 5", "false"]

    def test_avoiders_count_and_listing(self, capsys, monkeypatch):
        code, out, _ = run(["avoiders", "--n", "4", "--barred", "--count"], capsys=capsys,
                           monkeypatch=monkeypatch)
        assert code == 0 and out == "14\n"
        code, out, _ = run(["avoiders", "--n", "3", "--pattern", "231|X={1}|Y={1}"],
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        assert out.splitlines() == ["1 2 3", "1 3 2", "2 1 3", "3 1 2", "3 2 1"]

    @pytest.mark.parametrize("command", [["contains"], ["avoiders", "--n", "3"]])
    @pytest.mark.parametrize("pattern", ["231|X={a}|Y={1}", "231|X={7}|Y={1}",
                                         "22|X={}|Y={}", "231|X={1,}|Y={}", "231"])
    def test_bad_pattern_is_usage_error(self, command, pattern, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 1 2\n"))
        with pytest.raises(SystemExit) as info:
            cli.main(command + ["--pattern", pattern])
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert not out and "usage:" in err and "--pattern" in err

    def test_avoiders_needs_exactly_one_pattern(self, capsys, monkeypatch):
        code, _, err = run(["avoiders", "--n", "3"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2


class TestVerify:
    @pytest.mark.parametrize("suite,max_n", [
        ("roundtrips", 5), ("stats", 4), ("series", 8), ("kernel", 6), ("nestings", 3),
    ])
    def test_suites_pass(self, suite, max_n, capsys):
        code, out, _ = run(["verify", "--suite", suite, "--max-n", str(max_n)],
                           capsys=capsys)
        assert code == 0 and out.startswith("PASS")

    def test_negative_max_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", "roundtrips", "--max-n", "-2"])
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert not out and "usage:" in err and "--max-n" in err
        with pytest.raises(ValueError):
            verify.run_suite("roundtrips", -2)

    def test_a_suite_that_checks_nothing_fails(self, capsys):
        code, out, _ = run(["verify", "--suite", "stats", "--max-n", "0"], capsys=capsys)
        assert code == 1 and out == "FAIL: stats checked no object at max-n 0\n"

    @pytest.mark.parametrize("suite", ["roundtrips", "series", "kernel", "nestings"])
    def test_max_n_zero_still_checks_an_object(self, suite, capsys):
        code, out, _ = run(["verify", "--suite", suite, "--max-n", "0"], capsys=capsys)
        assert code == 0 and out.startswith("PASS")

    def test_roundtrips_rebuild_outputs_through_the_constructors(self, capsys, monkeypatch):
        # a dual that builds an invalid interval form unchecked
        monkeypatch.setattr(bijections, "dual", lambda p: _trusted(Poset, p.n, p.levels, p.levels))
        code, out, _ = run(["verify", "--suite", "roundtrips", "--max-n", "2"], capsys=capsys)
        assert code == 1 and out == "FAIL: dual output rejected by its constructor on [0]\n"

    def test_nestings_rebuild_outputs_through_the_constructors(self, capsys, monkeypatch):
        # a poset map that leaves its levels as a list
        real = bijections.involution_to_poset

        def listed_levels(c):
            p = real(c)
            return _trusted(Poset, p.n, list(p.levels), p.entry)

        monkeypatch.setattr(bijections, "involution_to_poset", listed_levels)
        code, out, _ = run(["verify", "--suite", "nestings", "--max-n", "1"], capsys=capsys)
        assert code == 1
        assert out == "FAIL: involution_to_poset output rejected by its constructor on []\n"


class TestLineLoop:
    @pytest.mark.parametrize("argv,stdin_text,good", [
        (["convert", "--from", "ascseq", "--to", "perm"], "[0,1]\n\n  \n[0]\n", "1 2\n1\n"),
        (["stats", "--format", "perm"], "1 2\n\n  \n1\n", None),
        (["contains", "--pattern", "231|X={1}|Y={1}"], "1 2\n\n  \n1\n", "false\nfalse\n"),
    ], ids=["convert", "stats", "contains"])
    def test_blank_lines_are_reported(self, argv, stdin_text, good, capsys, monkeypatch):
        code, out, err = run(argv, stdin_text, monkeypatch, capsys)
        assert code == 1
        assert err == "line 2: empty input\nline 3: empty input\n"
        assert len(out.splitlines()) == 2 and (good is None or out == good)


SRC = Path(__file__).resolve().parent.parent / "src"


def cli_process(argv, stdin=subprocess.DEVNULL, **env):
    """`python -m fishburn.cli argv` in a child process with pipes for stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])), **env)
    return subprocess.Popen([sys.executable, "-m", "fishburn.cli", *argv], stdin=stdin,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


class TestProcessStreams:
    # enumerate writes about 420 KB, more than a pipe buffer holds
    @pytest.mark.parametrize("argv,stdin_text,first", [
        (["enumerate", "--object", "ascseq", "--n", "9"], "", b"[0,0,0,0,0,0,0,0,0]\n"),
        (["convert", "--from", "ascseq", "--to", "perm"], "[0,1,0,1,3,1,1,2]\n" * 40000,
         b"3 1 7 6 4 8 2 5\n"),
        (["enumerate", "--object", "posets", "--n", "1500"], "", b'{"n":1500,"relations":[]}\n'),
        (["enumerate", "--object", "ascseq", "--n", "3000"], "",
         ("[" + ",".join(["0"] * 3000) + "]\n").encode()),
    ], ids=["enumerate", "convert", "enumerate-posets-1500", "enumerate-ascseq-3000"])
    def test_closed_stdout_pipe_exits_quietly(self, argv, stdin_text, first, tmp_path):
        source = tmp_path / "in.txt"
        source.write_text(stdin_text)
        with open(source, "rb") as stdin, cli_process(argv, stdin) as proc:
            assert proc.stdout.readline() == first
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_undecodable_bytes_are_a_line_error(self):
        proc = cli_process(["convert", "--from", "ascseq", "--to", "perm"], subprocess.PIPE,
                           PYTHONIOENCODING="utf-8:strict")
        out, err = proc.communicate(b"[0,1]\n\xff\n[0]\n", timeout=60)
        assert out == b"1 2\n1\n"
        assert err.startswith(b"line 2: ") and b"Traceback" not in err
        assert proc.returncode == 1


class TestDeterminism:
    def test_repeat_runs_are_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(["enumerate", "--object", "perms", "--n", "4"],
                               capsys=capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Malformed input never ends in a traceback


def run_lines(argv, stdin_text):
    """`cli.main` on captured stdio; an escaping exception prints its traceback to stderr."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    finally:
        err = sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, err


FORMATS = ("ascseq", "modseq", "perm", "poset", "involution")
LINE_COMMANDS = ([["convert", "--from", f, "--to", "ascseq"] for f in FORMATS]
                 + [["stats", "--format", f] for f in FORMATS]
                 + [["contains", "--pattern", "231|X={1}|Y={1}"]])

# fragments of every text form, plus a number too long for int() and
# nesting too deep for json
TOKENS = ("[", "]", "(", ")", ",", "{", "}", ":", " ", '"n"', '"relations"', "0", "1", "2",
          "3", "-1", "1.5", "1e400", "true", "null", "NaN", "x", "٣", "9" * 5000, "[" * 3000)
SCALARS = st.one_of(st.integers(-2, 6), st.floats(), st.booleans(), st.none(),
                    st.text(max_size=2))
PATTERN_WORDS = st.integers(1, 4).flatmap(
    lambda k: st.permutations(range(1, k + 1)).map(lambda w: "".join(map(str, w))))
SET_BODIES = st.lists(st.sampled_from(("0", "1", "2", "3", "7", "-1", "", " ", "a", "٣")),
                      max_size=3).map(",".join)
MALFORMED_LINES = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
    st.builds(lambda n, rel: json.dumps({"n": n, "relations": rel}),
              SCALARS,
              st.one_of(SCALARS, st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
                                          max_size=6))),
)


class TestMalformedInput:
    @settings(max_examples=300, deadline=None)
    @given(argv=st.sampled_from(LINE_COMMANDS),
           lines=st.lists(MALFORMED_LINES, min_size=1, max_size=4))
    def test_no_traceback_on_any_line(self, argv, lines):
        code, err = run_lines(argv, "\n".join(lines) + "\n")
        assert code in {0, 1, 2, 3}
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(pattern=st.one_of(
        st.text(max_size=20),
        st.builds("{}|X={{{}}}|Y={{{}}}".format,
                  st.one_of(PATTERN_WORDS, st.text("0123456789a٣", max_size=4)),
                  SET_BODIES, SET_BODIES)))
    def test_no_traceback_on_any_pattern(self, pattern):
        code, err = run_lines(["contains", "--pattern", pattern], "3 1 2\n2 3 1\n")
        assert code in {0, 1, 2, 3}
        assert "Traceback" not in err
