"""Command-line behaviour: formats, exit codes, determinism."""

from __future__ import annotations

import functools
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fishburn as fb
from fishburn import (AscentSequence, ChordInvolution, Poset, avoids_barred, bijections, cli,
                      enumerate_ascent_sequences, enumerate_permutations, patterns, series,
                      statistics, verify)
from fishburn.errors import FishburnError, NeighbourNestingError
from fishburn.objects import _first_neighbour_nesting, _trusted

from conftest import random_ascent_sequence
from reference import chords


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

    @pytest.mark.parametrize("n", [10, 30])
    def test_perms_and_involutions_count_through_the_hub(self, n, capsys, monkeypatch):
        # an unreadable cap setting shows that no brute-force filter runs
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "abc")
        outputs = {}
        for family in ("posets", "perms", "involutions"):
            code, outputs[family], err = run(["count", "--object", family, "--n", str(n)],
                                             capsys=capsys)
            assert code == 0 and not err
        assert outputs["perms"] == outputs["involutions"] == outputs["posets"]
        assert outputs["posets"] == f"{series.p_series(n)[n]}\n"

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

    def test_involutions_past_the_brute_cap(self, capsys):
        # enumeration decodes the ascent sequences and filters nothing
        code, out, err = run(["enumerate", "--object", "involutions", "--n", "7"], capsys=capsys)
        assert code == 0 and not err
        assert len(out.splitlines()) == 1014


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

    @pytest.mark.parametrize("argv", [["convert", "--from", "poset", "--to", "ascseq"],
                                      ["stats", "--format", "poset"]])
    def test_an_absurd_poset_size_is_a_line_error(self, argv, capsys, monkeypatch):
        # n = 10**13 fails to allocate at once; the lines after it are still read
        big = 10**13
        code, out, err = run(argv, f'{{"n":{big},"relations":[]}}\n{{"n":{big},"relations":[[1,2]]}}\n'
                             f'{{"n": {big}, "relations": [[1, 2]]}}\n{{"n":2,"relations":[[1,2]]}}\n',
                             monkeypatch, capsys)
        assert code == 1 and len(out.splitlines()) == 1
        assert err.splitlines() == [f"line {i}: poset size {big} is too large to build" for i in (1, 2, 3)]

    @pytest.mark.parametrize("source", ["ascseq", "perm", "poset", "involution"])
    def test_a_long_bad_line_gives_one_short_report(self, source, capsys, monkeypatch):
        # a 1 MB bad line is echoed as a prefix and its length; the next line is still read
        good = {"ascseq": "[0,1]", "perm": "1 2", "poset": '{"n":2,"relations":[[1,2]]}',
                "involution": "[(1,3),(2,4)]"}[source]
        bad = "[" + "0," * 500_000 + "x]"
        code, out, err = run(["convert", "--from", source, "--to", "ascseq"], f"{bad}\n{good}\n",
                             monkeypatch, capsys)
        assert code == 1 and len(out.splitlines()) == 1
        assert len(err) < 400 and err.count("\n") == 1
        assert err.startswith("line 1: bad ") and err.endswith(f"... (length {len(bad)})\n")

    def test_a_poset_past_the_output_bound_is_a_line_error(self, capsys, monkeypatch):
        # the chain on 4,473 labels has 10,001,628 pairs; the next line is still written
        chain = str(AscentSequence(tuple(range(4473))))
        code, out, err = run(["convert", "--from", "ascseq", "--to", "poset"], f"{chain}\n[0,1]\n",
                             monkeypatch, capsys)
        assert (code, out) == (1, '{"n":2,"relations":[[1,2]]}\n')
        assert err == ("line 1: poset has 10001628 pairs, more than the 10000000 "
                       "that a JSON line is written with\n")

    def test_chord_lists_need_one_comma_between_chords(self, capsys, monkeypatch):
        code, out, err = run(["convert", "--from", "involution", "--to", "ascseq"],
                             "[(1,2)(3,4)]\n[(1,2) (3,4)]\n[,(1,2),,]\n[ (1,2) , (3,4) ]\n",
                             monkeypatch, capsys)
        assert code == 1 and out == "[0,1]\n"
        assert err.splitlines() == [
            "line 1: bad involution literal: '[(1,2)(3,4)]'",
            "line 2: bad involution literal: '[(1,2) (3,4)]'",
            "line 3: bad involution literal: '[,(1,2),,]'",
        ]

    def test_nested_chord_diagrams_keep_going(self, capsys, monkeypatch):
        # a neighbour nesting is reported as a perm line off the family is
        code, out, err = run(["convert", "--from", "involution", "--to", "involution"],
                             "[(1,4),(2,3)]\n[(1,3),(2,4)]\n[(1,2),(3,6),(4,5)]\n"
                             "[(1,5),(2,3),(4,6)]\n[(1,4),(2,5),(3,7),(6,8),(9,10)]\n",
                             monkeypatch, capsys)
        assert code == 1
        assert out == "[(1,3),(2,4)]\n[(1,4),(2,5),(3,7),(6,8),(9,10)]\n"
        assert err.splitlines() == [
            "line 1: nested chords (1,4) and (2,3)",
            "line 3: nested chords (3,6) and (4,5)",
            "line 4: nested chords (1,5) and (2,3)",
        ]
        code, out, err = run(["convert", "--from", "perm", "--to", "ascseq"],
                             "2 3 1\n1\n", monkeypatch, capsys)
        assert (code, out, err) == (1, "[0]\n", "line 1: forbidden pattern at positions (1, 2, 3)\n")

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
    @pytest.mark.parametrize("fmt", tuple(cli.CODECS))
    def test_stats_line_is_the_compact_json_of_the_record(self, fmt):
        codec = cli.CODECS[fmt]
        for n in range(1, 9):
            for x in enumerate_ascent_sequences(n):
                record = codec.stats(codec.from_hub(x))
                fields = {
                    "n": record.size, "minimals": record.minimals, "srank": record.srank,
                    "rank": record.rank, "maximals": record.maximals,
                    "components": record.components, "level_counts": list(record.level_counts),
                    "max_level_counts": list(record.max_level_counts)}
                line = statistics.format_stats(record)
                assert line == json.dumps(record.as_dict(), separators=(",", ":"))
                assert line == json.dumps(fields, separators=(",", ":"))

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

    def test_nested_chord_diagram_reported_and_stream_continues(self, capsys, monkeypatch):
        code, out, err = run(["stats", "--format", "involution"],
                             "[(1,4),(2,3)]\n[(1,6),(2,5),(3,4)]\n[(1,3),(2,4)]\n",
                             monkeypatch, capsys)
        assert code == 1
        assert err.splitlines() == ["line 1: nested chords (1,4) and (2,3)",
                                    "line 2: nested chords (1,6) and (2,5)"]
        assert json.loads(out) == {
            "n": 2, "minimals": 2, "srank": 0, "rank": 0, "maximals": 2,
            "components": 1, "level_counts": [2], "max_level_counts": [2],
        }

    def test_the_involution_check_is_the_membership_test(self):
        # every fixed-point-free involution on at most 8 points
        for points in range(2, 9, 2):
            for c in fb.enumerate_fixed_point_free_involutions(points):
                if fb.in_I2n(c):
                    assert cli.nesting_free(c) is c
                    continue
                with pytest.raises(NeighbourNestingError) as info:
                    cli.nesting_free(c)
                i = _first_neighbour_nesting(c.partner)
                outer, inner = info.value.witness
                assert {outer[0], inner[0]} == {i, i + 1} or {outer[1], inner[1]} == {i, i + 1}
                assert outer[0] < inner[0] < inner[1] < outer[1]
                assert set(chords(c)) >= {outer, inner}

    def test_empty_object_reported_and_stream_continues(self, capsys, monkeypatch):
        code, out, err = run(["stats", "--format", "ascseq"], "[]\n[0,1]\n",
                             monkeypatch, capsys)
        assert code == 1
        assert err.startswith("line 1: ") and "Traceback" not in err
        assert json.loads(out)["n"] == 2

    def test_empty_chord_diagram_is_named_as_such(self, capsys, monkeypatch):
        code, out, err = run(["stats", "--format", "involution"], "[]\n[(1,2)]\n",
                             monkeypatch, capsys)
        assert code == 1
        assert err == "line 1: statistics of the empty chord diagram are undefined\n"
        assert json.loads(out)["n"] == 1

    def test_modseq_record_is_that_of_its_ascent_sequence(self, capsys, monkeypatch):
        # the modseq line is read straight off m, with no round trip through from_modified
        ms = [fb.to_modified(x) for n in range(1, 9) for x in enumerate_ascent_sequences(n)]
        code, out, err = run(["stats", "--format", "modseq"],
                             "".join(f"{m}\n" for m in ms), monkeypatch, capsys)
        assert code == 0 and err == ""
        xs = [fb.from_modified(m) for m in ms]
        code, expected, _ = run(["stats", "--format", "ascseq"],
                                "".join(f"{x}\n" for x in xs), monkeypatch, capsys)
        assert code == 0 and out == expected and out.count("\n") == len(ms)


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


# a pattern outside the family's eight images, so `avoiders` filters S_n for it
CAPPED_PATTERN = "123|X={}|Y={}"


class TestPatternsCommands:
    def test_contains_with_witness(self, capsys, monkeypatch):
        code, out, _ = run(["contains", "--pattern", "231|X={1}|Y={1}", "--witness"],
                           "3 2 5 4 1\n3 1 5 2 4\n", monkeypatch, capsys)
        assert code == 0 and out.splitlines() == ["true 2 3 5", "false"]

    @pytest.mark.parametrize("pattern", [*sorted(map(str, patterns._FAMILY_IMAGES)),
                                         CAPPED_PATTERN])
    def test_contains_witnesses_are_the_backtracking_search(self, pattern, capsys, monkeypatch):
        # the family's images take the O(n) route, resolved once per command
        p = patterns.parse_pattern(pattern)
        perms = [pi for n in range(1, 6) for pi in enumerate_permutations(n)]
        expected = []
        for pi in perms:
            occurrence = patterns._backtrack(pi, p)
            expected.append("false" if occurrence is None
                            else "true " + " ".join(map(str, occurrence)))
        code, out, err = run(["contains", "--pattern", pattern, "--witness"],
                             "".join(f"{pi}\n" for pi in perms), monkeypatch, capsys)
        assert code == 0 and not err and out.splitlines() == expected

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

    # the brute-force cap guards `avoiders --pattern` off the family's images only
    def test_cap_exit_code(self, capsys):
        code, _, err = run(["avoiders", "--n", "10", "--pattern", CAPPED_PATTERN], capsys=capsys)
        assert code == 3 and "cap" in err

    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "4")
        code, _, err = run(["avoiders", "--n", "5", "--pattern", CAPPED_PATTERN], capsys=capsys)
        assert code == 3

    def test_bad_cap_setting_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "abc")
        code, out, err = run(["avoiders", "--n", "3", "--pattern", CAPPED_PATTERN], capsys=capsys)
        assert code == 2 and not out
        assert "FISHBURN_MAX_BRUTE_N" in err and "'abc'" in err

    @pytest.mark.parametrize("argv", [
        ["avoiders", "--n", "3", "--pattern", CAPPED_PATTERN],
        ["verify", "--suite", "roundtrips", "--max-n", "3"],
    ], ids=["avoiders", "verify"])
    def test_negative_cap_setting_is_usage_error(self, argv, capsys, monkeypatch):
        # a negative cap would leave the brute-force oracles nothing to check
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "-1")
        code, out, err = run(argv, capsys=capsys)
        assert code == 2 and not out
        assert err == "FISHBURN_MAX_BRUTE_N must be >= 0, got '-1'\n"

    @pytest.mark.parametrize("pattern", sorted(map(str, patterns._FAMILY_IMAGES)))
    def test_family_image_avoiders_are_the_brute_filter(self, pattern, capsys):
        p = patterns.parse_pattern(pattern)
        for n in range(9):
            expected = [str(pi) for pi in enumerate_permutations(n) if not patterns.contains(pi, p)]
            code, out, err = run(["avoiders", "--n", str(n), "--pattern", pattern], capsys=capsys)
            assert code == 0 and not err and out.splitlines() == expected
            code, out, err = run(["avoiders", "--n", str(n), "--pattern", pattern, "--count"],
                                 capsys=capsys)
            assert code == 0 and not err and out == f"{len(expected)}\n"

    def test_family_image_avoiders_are_not_capped(self, capsys, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "1")
        code, out, err = run(["avoiders", "--n", "9", "--pattern", "132|X={2}|Y={1}", "--count"],
                             capsys=capsys)
        assert code == 0 and not err and out == f"{series.p_series(9)[9]}\n"

    @pytest.mark.parametrize("n", range(9))
    def test_barred_avoiders_are_the_brute_filter(self, n, capsys):
        expected = [str(pi) for pi in enumerate_permutations(n) if avoids_barred(pi)]
        code, out, err = run(["avoiders", "--n", str(n), "--barred"], capsys=capsys)
        assert code == 0 and not err and out.splitlines() == expected
        code, out, err = run(["avoiders", "--n", str(n), "--barred", "--count"], capsys=capsys)
        assert code == 0 and not err and out == f"{len(expected)}\n"

    @pytest.mark.parametrize("n", range(11))
    def test_barred_listing_is_the_filtered_hub(self, n, capsys):
        # each generated sequence is its own modified sequence, so no `to_modified` runs on it
        found = (bijections.sequence_to_perm(x) for x in enumerate_ascent_sequences(n)
                 if patterns.is_self_modified(x))
        expected = [str(pi) for pi in sorted(found, key=lambda pi: pi.entries)]
        code, out, err = run(["avoiders", "--n", str(n), "--barred"], capsys=capsys)
        assert code == 0 and not err and out.splitlines() == expected

    def test_barred_avoiders_are_not_capped(self, capsys, monkeypatch):
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "1")
        code, out, err = run(["avoiders", "--n", "10", "--barred", "--count"], capsys=capsys)
        assert code == 0 and not err and out == f"{series.count_barred_avoiders(10)}\n"


class TestVerify:
    @pytest.mark.parametrize("suite,max_n", [
        ("roundtrips", 5), ("stats", 4), ("series", 8), ("kernel", 6), ("nestings", 3),
    ])
    def test_suites_pass(self, suite, max_n, capsys):
        code, out, _ = run(["verify", "--suite", suite, "--max-n", str(max_n)],
                           capsys=capsys)
        assert code == 0 and out.startswith("PASS")

    @pytest.mark.parametrize("suite,line", [
        ("roundtrips", "PASS: roundtrips pass, 27 checked at max-n 3\n"),
        ("stats", "PASS: statistics dictionary holds, 8 checked at max-n 3\n"),
        ("kernel", "PASS: kernel checks pass, 4 checked at max-n 3\n"),
    ], ids=["roundtrips", "stats", "kernel"])
    def test_a_pass_says_what_it_checked(self, suite, line, capsys):
        # roundtrips: the 9 ascent sequences with n <= 3, then the 9 permutations and
        # the 9 chord involutions that the two oracles list
        code, out, _ = run(["verify", "--suite", suite, "--max-n", "3"], capsys=capsys)
        assert code == 0 and out == line

    @pytest.mark.parametrize("cap,max_n,line", [
        ("0", 3, "PASS: roundtrips pass (oracles capped: perms at n = 0, involutions at n = 0), "
                 "11 checked at max-n 3\n"),
        ("3", 3, "PASS: roundtrips pass, 27 checked at max-n 3\n"),
        (None, 7, "PASS: roundtrips pass (oracles capped: involutions at n = 6), "
                  "2910 checked at max-n 7\n"),
    ], ids=["both-capped", "cap-at-max-n", "default-caps"])
    def test_a_pass_names_the_capped_oracles(self, cap, max_n, line, capsys, monkeypatch):
        # an oracle stopped below max-n by its cap is named; one that reaches max-n is not
        if cap is None:
            monkeypatch.delenv("FISHBURN_MAX_BRUTE_N", raising=False)
        else:
            monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", cap)
        code, out, _ = run(["verify", "--suite", "roundtrips", "--max-n", str(max_n)],
                           capsys=capsys)
        assert code == 0 and out == line

    @pytest.mark.parametrize("oracle", ["enumerate_r_permutations",
                                        "enumerate_nesting_free_involutions"])
    def test_roundtrips_count_each_oracle(self, oracle, capsys, monkeypatch):
        # an oracle that drops the last object at n = 3
        real = getattr(verify, oracle)
        monkeypatch.setattr(verify, oracle,
                            functools.wraps(real)(lambda n: real(n)[:-1] if n == 3 else real(n)))
        code, out, _ = run(["verify", "--suite", "roundtrips", "--max-n", "4"], capsys=capsys)
        assert code == 1 and out == f"FAIL: {oracle} counts 4 at n = 3, not p_3 = 5\n"

    def test_negative_max_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", "roundtrips", "--max-n", "-2"])
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert not out and "usage:" in err and "--max-n" in err
        with pytest.raises(ValueError):
            verify.run_suite("roundtrips", -2)

    def test_unknown_suite_is_rejected(self):
        with pytest.raises(FishburnError) as info:
            verify.run_suite("nope")
        assert (type(info.value), str(info.value)) == (FishburnError, "unknown suite 'nope'")

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

    def test_roundtrips_check_involutions_past_the_brute_cap(self, capsys, monkeypatch):
        # a decoder that leaves a nesting on three chords only
        real = bijections.poset_to_involution
        nested = ChordInvolution((6, 5, 4, 3, 2, 1))
        monkeypatch.setattr(bijections, "poset_to_involution",
                            lambda p: nested if p.n == 3 else real(p))
        monkeypatch.setenv("FISHBURN_MAX_BRUTE_N", "1")
        code, out, _ = run(["verify", "--suite", "roundtrips", "--max-n", "3"], capsys=capsys)
        assert code == 1 and out == "FAIL: reconstruction leaves a nesting for [0,0,0]\n"

    def test_series_checks_p_series_against_the_counting_dp(self, capsys, monkeypatch):
        # p_6 + 7 keeps p(7k+6) = 0 mod 7 and stays within the asymptotic bound,
        # so only the comparison with the DP can catch it
        real = series.p_series
        monkeypatch.setattr(series, "p_series", lambda order: [*real(order)[:-1], real(order)[-1] + 7])
        code, out, _ = run(["verify", "--suite", "series", "--max-n", "6"], capsys=capsys)
        assert code == 1
        assert out == "FAIL: p_series disagrees with the counting DP at order 6\n"

    def test_series_checks_the_congruences(self, capsys, monkeypatch):
        real = series.p_series

        def bumped(order):
            counts = real(order)
            counts[3] += 1  # 3 = 3 (mod 5), in no other listed class
            return counts

        monkeypatch.setattr(series, "p_series", bumped)
        code, out, _ = run(["verify", "--suite", "series"], capsys=capsys)
        assert code == 1 and out == "FAIL: p(5k+3) is not 0 mod 5 at n = 3\n"

    @pytest.mark.parametrize("n, spoil", [(12, lambda p: 2 * p), (6, lambda p: 0)])
    def test_series_checks_the_asymptotic(self, capsys, monkeypatch, n, spoil):
        # 12 lies in no listed residue class; doubling p_12 puts 12 |ratio - 1| near 10.9
        real = series.p_series

        def spoiled(order):
            counts = real(order)
            counts[n] = spoil(counts[n])
            return counts

        monkeypatch.setattr(series, "p_series", spoiled)
        code, out, _ = run(["verify", "--suite", "series", "--max-n", str(n)], capsys=capsys)
        assert code == 1
        assert out == f"FAIL: p_n is not within 1/n of Zagier's asymptotic at n = {n}\n"

    def test_series_checks_the_functional_equation(self, capsys, monkeypatch):
        real = series.CountTable

        def bumped(order):
            table = real(order)
            table.counts[order][1][0] += 1
            return table

        monkeypatch.setattr(series, "CountTable", bumped)
        code, out, _ = run(["verify", "--suite", "series", "--max-n", "8"], capsys=capsys)
        assert code == 1
        assert out == "FAIL: functional equation residual nonzero at order 8\n"

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
