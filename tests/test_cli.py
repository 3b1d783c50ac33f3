import json

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


class TestConjugate:
    def test_true_exit_zero(self, capsys):
        code, out, _ = run_capture(capsys, ["conjugate", "-n", "3", "s1 s2", "s2 s1"])
        assert code == 0 and "witness" in out

    def test_false_exit_one(self, capsys):
        code, out, _ = run_capture(capsys, ["conjugate", "-n", "2", "s1", "s1^-1"])
        assert code == 1 and "not conjugate" in out


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


class TestWinding:
    def test_distinct_classes_reported(self, capsys):
        code, out, _ = run_capture(capsys, ["winding", "s1", "s1", "1", "-n", "3"])
        assert code == 0 and "distinct conjugacy classes" in out

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


def test_usage_error_exit_two(capsys):
    assert run(["no-such-command"]) == 2


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
