import json
import shlex
import tracemalloc
from pathlib import Path

import pytest

from braidkit import garside, invariants
from braidkit.cli import run, verify_paper
from braidkit.laurent import LaurentPolynomial
from braidkit.moves import sequence_from_json
from braidkit.words import word_from_json


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_half_twist(self, capsys):
        code, out, _ = run_capture(capsys, ["normalize", "-n", "3", "s1 s2 s1"])
        assert code == 0
        assert out.strip() == "D^1 |"

    def test_missing_strand_count(self, capsys):
        code, _, err = run_capture(capsys, ["normalize", "s1"])
        assert code == 2 and "strand count" in err

    def test_bad_word(self, capsys):
        code, _, err = run_capture(capsys, ["normalize", "-n", "3", "s9"])
        assert code == 2

    def test_huge_exponent_exit_two(self, capsys):
        code, _, err = run_capture(capsys, ["normalize", "-n", "2", "s1^1000000000"])
        assert code == 2 and "letters" in err

    def test_work_bound_exit_two(self, capsys):
        # 100 letters on B200 exceed the normal-form work bound
        code, _, err = run_capture(capsys, ["normalize", "-n", "200", "s1^-100"])
        assert code == 2 and "MAX_NORMAL_FORM_WORK" in err


class TestConjugate:
    def test_true_exit_zero(self, capsys):
        code, out, _ = run_capture(capsys, ["conjugate", "-n", "3", "s1 s2", "s2 s1"])
        assert code == 0 and "witness" in out

    def test_false_exit_one(self, capsys):
        code, out, _ = run_capture(capsys, ["conjugate", "-n", "2", "s1", "s1^-1"])
        assert code == 1 and "not conjugate" in out

    def test_summit_cap_exit_two(self, capsys, monkeypatch):
        def capped(*args, **kwargs):
            raise garside.SuperSummitCapError("super summit set exceeds cap of 1 elements")

        monkeypatch.setattr(garside, "are_conjugate", capped)
        code, _, err = run_capture(capsys, ["conjugate", "-n", "3", "s1", "s2"])
        assert code == 2 and "cap" in err and "internal" not in err


class TestInvariants:
    def test_flype_word_numbers(self, capsys):
        code, out, _ = run_capture(
            capsys, ["invariants", "-n", "3", "s1^5 s2^4 s1^6 s2^-1"]
        )
        assert code == 0
        assert "exponent sum    14" in out
        assert "self-linking    11" in out
        assert "components      1" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run_capture(
            capsys, ["invariants", "-n", "3", "s1^3 s2^4 s1^-5 s2^-1", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        w = word_from_json(payload["word"])
        assert w.as_pair() == (3, [1, 1, 1, 2, 2, 2, 2, -1, -1, -1, -1, -1, -2])
        assert payload["component_self_linking"] == [-1, -3]
        assert payload["pairwise_linking"] == [[[1, 2], 1]]
        jones = LaurentPolynomial.from_json(payload["jones"])
        assert not jones.is_zero()
        alex = LaurentPolynomial.from_json(payload["alexander"])
        assert alex == LaurentPolynomial.from_json(payload["alexander"])

    def test_one_strand_unknot(self, capsys):
        code, out, _ = run_capture(capsys, ["invariants", "-n", "1", "", "--json"])
        assert code == 0
        payload = json.loads(out)
        one = LaurentPolynomial(((0, 1),))
        assert LaurentPolynomial.from_json(payload["jones"]) == one
        assert LaurentPolynomial.from_json(payload["alexander"]) == one
        assert payload["alexander_normalized"] is True

    def test_bracket_work_bound_exit_two(self, capsys):
        # 24 disjoint crossings: 2^24 transfer states, rejected before any step
        word = " ".join(f"s{i}" for i in range(1, 48, 2))
        code, _, err = run_capture(capsys, ["invariants", "-n", "49", word])
        assert code == 2 and "MAX_BRACKET_WORK" in err and "internal" not in err

    def test_alexander_work_bound_exit_two(self, capsys, monkeypatch):
        # Jones admits the word; the Alexander bound, checked after it, does not
        monkeypatch.setattr(invariants, "MAX_ALEXANDER_WORK", 0)
        code, _, err = run_capture(capsys, ["invariants", "-n", "3", "s1 s2"])
        assert code == 2 and "MAX_ALEXANDER_WORK" in err and "internal" not in err

    def test_component_pair_bound_exit_two(self, capsys):
        # 1 999 components are about 2·10⁶ pairs, rejected before any is listed
        code, _, err = run_capture(capsys, ["invariants", "-n", "2000", "s1"])
        assert code == 2 and "MAX_COMPONENT_PAIRS" in err and "internal" not in err

    def test_component_pair_bound_allocates_nothing_per_strand(self, capsys):
        # the empty B400000 word is rejected before its closure permutation
        tracemalloc.start()
        try:
            code, _, err = run_capture(capsys, ["invariants", "-n", "400000", ""])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and "MAX_COMPONENT_PAIRS" in err
        assert peak < 1 << 20, peak

    def test_split_word_exit_zero(self, capsys):
        # the empty B150 word closes to a split link: Alexander 0, no Burau bound
        code, out, _ = run_capture(capsys, ["invariants", "-n", "150", "", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["components"] == 150
        assert LaurentPolynomial.from_json(payload["alexander"]).is_zero()
        assert payload["alexander_normalized"] is False


class TestMove:
    def test_flype(self, capsys):
        code, out, _ = run_capture(capsys, ["move", "flype", "s1^5 s2^4 s1^6 s2^-1", "-n", "3"])
        assert code == 0 and out.strip() == "s1^5 s2^-1 s1^6 s2^4"

    def test_no_flype_match_exit_one(self, capsys):
        code, _, err = run_capture(capsys, ["move", "flype", "s1 s1", "-n", "3"])
        assert code == 1

    def test_destab(self, capsys):
        code, out, _ = run_capture(capsys, ["move", "destab", "s2 s1", "-n", "3"])
        assert code == 0 and out.strip() == "s1"

    def test_destab_above_simple_bound(self, capsys):
        # Destabilizing enumerates no simple conjugators, so 12 strands is fine.
        code, _, _ = run_capture(capsys, ["move", "destab", "s1 s2", "-n", "12"])
        assert code == 1
        code, out, _ = run_capture(capsys, ["move", "destab", "s1 s11", "-n", "12"])
        assert code == 0 and out.strip() == "s1"

    def test_exchange_index_out_of_range_exit_two(self, capsys):
        for index in ("5", "-1"):
            code, _, err = run_capture(
                capsys, ["move", "exchange", "s1 s2 s1 s2^-1", "-n", "3", "--index", index]
            )
            assert code == 2 and "has 2 exchange decompositions" in err

    def test_flype_index_picks_site(self, capsys):
        word = "s1^2 s2 s1 s2^-1"
        code, out, _ = run_capture(capsys, ["move", "flype", word, "-n", "3"])
        assert code == 0 and out.strip() == "s1^2 s2^-1 s1 s2"
        code, out, _ = run_capture(capsys, ["move", "flype", word, "-n", "3", "--index", "1"])
        assert code == 0 and out.strip() == "s1 s2 s1^2 s2^-1"
        code, _, err = run_capture(capsys, ["move", "flype", word, "-n", "3", "--index", "2"])
        assert code == 2 and "--index must be in 0..1: the word has 2 flype decompositions" in err

    def test_destab_index_out_of_range_exit_two(self, capsys):
        code, _, err = run_capture(capsys, ["move", "destab", "s2 s1", "-n", "3", "--index", "1"])
        assert code == 2 and "has 1 destab decompositions" in err

    def test_options_before_word(self, capsys):
        word = "s1 s2 s1 s2^-1"
        for opts in (["--index", "1", "-n", "3"], ["-n", "3", "--json"]):
            after = run_capture(capsys, ["move", "exchange", word, *opts])
            before = run_capture(capsys, ["move", "exchange", *opts, word])
            first = run_capture(capsys, ["move", *opts, "exchange", word])
            assert after[0] == 0 and after[1]
            assert before == after == first

    def test_depth_option_removed_exit_two(self, capsys):
        code, _, _ = run_capture(capsys, ["move", "destab", "s2 s1", "-n", "3", "--depth", "2"])
        assert code == 2

    def test_replay_round_trip(self, capsys, tmp_path):
        code, out, _ = run_capture(
            capsys,
            [
                "search",
                "s1 s2 s1^-1 s2^-1",
                "s1 s2^-1 s1^-1 s2",
                "-n",
                "3",
                "--json",
                "--max-strands",
                "4",
            ],
        )
        assert code == 0
        seq_json = json.loads(out)["sequence"]
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(seq_json))
        assert sequence_from_json(seq_json).initial.n == 3
        code, out, _ = run_capture(capsys, ["move", "--replay", str(path)])
        assert code == 0 and "replayed" in out

    def test_replay_without_initial_exit_two(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"steps": []}))
        code, _, err = run_capture(capsys, ["move", "--replay", str(path)])
        assert code == 2 and "'initial'" in err

    def test_replay_step_without_result_exit_two(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        step = {"move": "stab+", "params": {}}
        path.write_text(json.dumps({"initial": {"n": 2, "letters": [1]}, "steps": [step]}))
        code, _, err = run_capture(capsys, ["move", "--replay", str(path)])
        assert code == 2 and "'result_word'" in err

    def test_replay_destab_without_conjugator_exit_two(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        step = {"move": "destab+", "params": {"rotation": 0}, "result_word": {"n": 2, "letters": [1]}}
        path.write_text(json.dumps({"initial": {"n": 3, "letters": [1, 2]}, "steps": [step]}))
        code, _, err = run_capture(capsys, ["move", "--replay", str(path)])
        assert code == 2 and "'conjugator'" in err

    @pytest.mark.parametrize("p_len", [-10, -2])
    def test_replay_exchange_negative_p_len_exit_two(self, capsys, tmp_path, p_len):
        # p_len = -2 names the same letter as p_len = 1, whose result this is.
        step = {
            "move": "exchange",
            "params": {"rotation": 0, "p_len": p_len, "sign": 1},
            "result_word": {"n": 3, "letters": [1, -2, 2]},
        }
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"initial": {"n": 3, "letters": [1, 2, -2]}, "steps": [step]}))
        code, _, err = run_capture(capsys, ["move", "--replay", str(path)])
        assert code == 2 and "invalid exchange decomposition" in err

    @pytest.mark.parametrize(
        "initial, step, message",
        [
            (
                [1, 2, -2],
                {"move": "exchange", "params": {"rotation": -300, "p_len": 1, "sign": 1},
                 "result_word": {"n": 3, "letters": [1, -2, 2]}},
                "invalid exchange decomposition",
            ),
            (
                [2, 1],
                {"move": "destab+", "params": {"conjugator": [], "rotation": -5},
                 "result_word": {"n": 2, "letters": [1]}},
                "recorded destabilization does not apply",
            ),
        ],
        ids=["exchange", "destab"],
    )
    def test_replay_rotation_out_of_range_exit_two(self, capsys, tmp_path, initial, step, message):
        # Read modulo the word length, each rotation would name the site
        # whose result is recorded.
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"initial": {"n": 3, "letters": initial}, "steps": [step]}))
        code, _, err = run_capture(capsys, ["move", "--replay", str(path)])
        assert code == 2 and message in err

    def test_replay_boolean_letter_exit_two(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"initial": {"n": 3, "letters": [True, -2]}, "steps": []}))
        code, _, err = run_capture(capsys, ["move", "--replay", str(path)])
        assert code == 2 and "'letters'" in err


class TestSearch:
    def test_found_exit_zero(self, capsys):
        code, out, _ = run_capture(capsys, ["search", "s1 s2", "s2 s1", "-n", "3"])
        assert code == 0 and "found" in out

    def test_exhausted_exit_one(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "search",
                "s1^5 s2^4 s1^6 s2^-1",
                "s1^5 s2^-1 s1^6 s2^4",
                "-n",
                "3",
                "--transverse",
                "--max-strands",
                "4",
                "--max-nodes",
                "500",
            ],
        )
        assert code == 1 and "exhausted" in out


class TestTemplate:
    def test_check_requires_seed(self, capsys):
        code, _, err = run_capture(capsys, ["template", "check", "exchange", "--trials", "2"])
        assert code == 2 and "--seed" in err

    def test_check_builtin(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["template", "check", "exchange", "--trials", "3", "--max-len", "3", "--seed", "5"],
        )
        assert code == 0 and "0 failures" in out

    def test_check_file(self, capsys, tmp_path):
        from braidkit.moves import exchange_template, template_to_json

        path = tmp_path / "tpl.json"
        path.write_text(json.dumps(template_to_json(exchange_template())))
        code, out, _ = run_capture(
            capsys,
            ["template", "check", str(path), "--trials", "2", "--max-len", "3", "--seed", "6"],
        )
        assert code == 0

    def test_check_file_without_blocks_exit_two(self, capsys, tmp_path):
        from braidkit.moves import exchange_template, template_to_json

        obj = template_to_json(exchange_template())
        del obj["blocks"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_capture(capsys, ["template", "check", str(path), "--seed", "1"])
        assert code == 2 and "'blocks'" in err

    def test_check_file_with_boolean_block_position_exit_two(self, capsys, tmp_path):
        from braidkit.moves import flype_template, template_to_json

        obj = template_to_json(flype_template(1))
        obj["left"][1] = {"b": ["R", True]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_capture(capsys, ["template", "check", str(path), "--seed", "1"])
        assert code == 2 and "block item" in err


    @pytest.mark.parametrize(
        "argv,match",
        [
            (["crossing.json"], "MAX_PARSED_LETTERS"),
            (["strands.json"], "MAX_PARSED_LETTERS"),
            (["exchange", "--max-len", "3000000"], "MAX_PARSED_LETTERS"),
            (["exchange", "--max-len", "1000000000"], "MAX_PARSED_LETTERS"),
            (["exchange", "--max-len", "-1"], ">= 0, got -1"),
        ],
    )
    def test_oversized_instance_exit_two(self, capsys, tmp_path, monkeypatch, argv, match):
        # one crossing of two 1 500-strand bands is 2.25·10⁶ letters; 5·10⁶ strands
        for name, weights, items in [("crossing", [1500, 1500], [{"x": [1, 1]}]),
                                     ("strands", [5_000_000], [])]:
            obj = {"name": name, "weights": weights, "left": items, "right": items, "blocks": {}}
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(invariants, "closure_components", None)
        code, _, err = run_capture(capsys, ["template", "check", *argv, "--seed", "1"])
        assert code == 2 and match in err and "internal" not in err

    def test_block_arity_below_one_exit_two(self, capsys, tmp_path):
        obj = {"name": "nullary", "weights": [1, 1], "left": [{"b": ["P", 3]}],
               "right": [{"b": ["P", 3]}], "blocks": {"P": 0}}
        path = tmp_path / "nullary.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_capture(capsys, ["template", "check", str(path), "--seed", "1"])
        assert code == 2 and "block 'P'" in err


class TestWinding:
    def test_distinct_classes_reported(self, capsys):
        code, out, _ = run_capture(capsys, ["winding", "s1", "s1", "1", "-n", "3"])
        assert code == 0 and "distinct conjugacy classes" in out

    def test_many_steps_exit_two(self, capsys):
        # 100 000 steps of 3 blocks each pass the block-word budget.
        code, _, err = run_capture(capsys, ["winding", "", "", "100000", "-n", "2"])
        assert code == 2 and "MAX_WINDING_BLOCK_WORDS" in err

    def test_long_block_exit_two(self, capsys):
        # about 4^20 block words; rejected before any is built
        code, _, err = run_capture(capsys, ["winding", "s1 s2^-1 " * 10, "s1", "1", "-n", "3"])
        assert code == 2 and "MAX_WINDING_BLOCK_WORDS" in err


class TestNormalFormJson:
    def test_round_trip(self, capsys):
        code, out, _ = run_capture(capsys, ["normalize", "-n", "3", "s1^-1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_power"] == -1
        assert payload["factors"] == [[3, 1, 2]]
        assert payload["serialized"].startswith("D^-1 | ")


def test_runs_as_a_module():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import braidkit

    env = dict(os.environ, PYTHONPATH=str(Path(braidkit.__file__).parents[1]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "braidkit.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    done = cli("normalize", "-n", "2", "s1")
    assert done.returncode == 0 and done.stdout.strip() == "D^1 |"
    assert cli("normalize", "-n", "2", "s9").returncode == 2


def test_readme_commands_run(capsys):
    """Every ``braidkit`` line of README's command-line block exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("braidkit ")]
    # replay needs a sequence file; test_replay_round_trip covers it
    commands = [argv for argv in commands if "--replay" not in argv]
    assert commands
    for argv in commands:
        code, _, err = run_capture(capsys, argv[1:])
        assert code == 0, (argv, err)


def test_usage_error_exit_two(capsys):
    assert run(["no-such-command"]) == 2


@pytest.mark.parametrize(
    "argv", [["normalize", "--seed", "4", "-n", "3", "s1"], ["verify-paper", "-n", "9"]]
)
def test_option_the_command_ignores_exit_two(capsys, argv):
    code, _, err = run_capture(capsys, argv)
    assert code == 2 and "unrecognized arguments" in err


def test_option_the_command_ignores_is_named_alone(capsys):
    # the unknown --seed leaves 4 to the word; only the option is named
    code, _, err = run_capture(capsys, ["normalize", "--seed", "4", "-n", "3", "s1"])
    assert code == 2
    assert err.startswith("usage: braidkit normalize ")
    assert "unrecognized arguments: --seed\n" in err and "s1" not in err


def test_verify_paper_passes(capsys):
    code, out, _ = run_capture(capsys, ["verify-paper", "--seed", "0"])
    assert code == 0
    assert out.count("[PASS]") == 9 and "[FAIL]" not in out


def test_verify_paper_json(capsys):
    code, out, _ = run_capture(capsys, ["verify-paper", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 9
    assert all(c["seconds"] >= 0 for c in payload["checks"])


PAPER_CHECKS = [
    ("(a) exponent sums and braid index", "e = 14, 14; n = 3, 3", True),
    ("(b) self-linking of both words", "beta = 11, 11", True),
    ("(c) negative flype maps one word to the other", "got s1^5 s2^-1 s1^6 s2^4", True),
    ("(d) topological-equality oracles agree", "jones equal: True; alexander equal: True", True),
    ("(e) the two words are not conjugate in B3", "are_conjugate = False", True),
    (
        "(f) the 2-component link obstruction",
        "pre (-1, -3) lk (((1, 2), 1),); post (-3, -1) lk (((1, 2), 1),)",
        True,
    ),
    ("(g) beta invariance under transverse moves", "0 failures", True),
    ("(h) negative stabilization drops beta by 2", "0 failures; flype word drop (11, 9)", True),
    ("(i) bounded transverse search exhausts", "exhausted after 2 expansions", True),
]


def test_verify_paper_golden():
    for seed in (0, 7):
        assert [(c.label, c.detail, c.passed) for c in verify_paper(seed=seed)] == PAPER_CHECKS
