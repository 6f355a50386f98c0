"""CLI: argument handling, config files, report emission, exit codes,
and the finite sweep's rows against ``bounds``."""

import hashlib
import json
import time

import pytest

from ekrcross import bounds, cli
from ekrcross.cli import (
    USAGE_ERROR,
    VERIFY_SUITES,
    build_parser,
    config_from_args,
    load_config_file,
    main,
)
from ekrcross.report import ANCHORS, anchor_for, report_to_obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUsage:
    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == USAGE_ERROR

    @pytest.mark.parametrize("argv", [
        ("verify", "search-uniform"), ("verify", "uniform"),
        ("search", "graphs"), ("search", "search-uniform"),
    ])
    def test_target_of_the_other_command(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (USAGE_ERROR, "")
        assert err.splitlines()[-1].startswith("error: ")

    def test_config_value_of_the_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = x\n")
        code, out, err = run(capsys, "verify", "graphs", "--config", str(cfg))
        assert (code, out) == (USAGE_ERROR, "")
        assert err.splitlines()[-1].startswith("error: ")

    def test_help_names_every_target(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        for target in (*VERIFY_SUITES, "uniform", "weight", "seq"):
            assert target in out

    def test_missing_required_parameter(self, capsys):
        code, _, err = run(capsys, "search", "weight", "--n", "3")
        assert code == USAGE_ERROR
        assert "requires" in err

    def test_bad_rational(self, capsys):
        code, _, _ = run(capsys, "search", "weight", "--n", "3", "--t", "1", "--p", "x")
        assert code == USAGE_ERROR

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == USAGE_ERROR

    @pytest.mark.parametrize("argv", [
        ("search", "uniform", "--n", "4", "--k", "2", "--t", "3"),
        ("search", "weight", "--n", "3", "--t", "4", "--p", "1/3"),
    ])
    def test_t_above_the_set_size(self, capsys, argv):
        # Nothing cross t-intersects there, and the maximum 0 ties everywhere.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (USAGE_ERROR, "")
        assert "needs t <=" in err

    @pytest.mark.parametrize("argv, message", [
        (("search", "uniform", "--n", "3", "--k", "4", "--t", "1"), "needs 1 <= k <= n"),
        (("search", "uniform", "--n", "5", "--k", "0", "--t", "1"), "needs 1 <= k <= n"),
        (("search", "uniform", "--n", "5", "--k", "2", "--t", "0"), "needs t >= 1"),
        (("search", "weight", "--n", "4", "--t", "0", "--p", "1/3"), "needs t >= 1"),
        (("search", "seq", "--n", "2", "--m", "2", "--t", "0"), "needs t >= 1"),
        (("search", "seq", "--n", "1", "--m", "2", "--t", "2"), "needs t <= n"),
        (("search", "weight", "--n", "4", "--t", "1", "--p", "3/2"), "needs 0 < p < 1"),
        (("search", "weight", "--n", "4", "--t", "1", "--p", "1"), "needs 0 < p < 1"),
        (("search", "seq", "--n", "2", "--m", "0", "--t", "1"), "needs m >= 2"),
        (("search", "seq", "--n", "2", "--m", "-1", "--t", "1"), "needs m >= 2"),
        (("search", "seq", "--n", "3", "--m", "1", "--t", "2"), "needs m >= 2"),
        (("search", "uniform", "--n", "65", "--k", "1", "--t", "1"), "needs 1 <= k <= n <= 64"),
        (("search", "weight", "--n", "65", "--t", "1", "--p", "1/2"), "needs n <= 20"),
    ])
    def test_sizes_outside_the_search_range(self, capsys, argv, message):
        # The library raises ValueError on these; exit 1 would read as a
        # refutation, so the CLI must reject them before searching.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (USAGE_ERROR, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "bounds-all", "--t-max", "0"), "needs t_max >= 17"),
        (("verify", "bounds-all", "--t-max", "16"), "needs t_max >= 17"),
        (("verify", "stability", "--t", "0"), "got t=0, k=1, n=1"),
        (("verify", "stability", "--n", "3"), "got t=14, k=15, n=3"),
        (("verify", "stability", "--t", "14", "--k", "3"), "got t=14, k=3, n=225"),
    ])
    def test_sizes_outside_the_verified_range(self, capsys, argv, message):
        # bounds-all below t_max 17 would report sweeps over empty t
        # ranges as verified; stability would raise ValueError (exit 1).
        code, out, err = run(capsys, *argv)
        assert (code, out) == (USAGE_ERROR, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "walk-oracle", "--t-max", "5", "--n", "3", "--p", "1/2"),
         "suite walk-oracle does not read --n, --p, --t-max"),
        (("verify", "graphs", "--t", "0", "--k", "9"), "suite graphs does not read --k, --t"),
        (("verify", "bounds-all", "--seed", "3"), "suite bounds-all does not read --seed"),
        (("search", "uniform", "--n", "5", "--k", "2", "--t", "1", "--p", "1/3"),
         "suite search-uniform does not read --p"),
        (("search", "weight", "--n", "4", "--t", "1", "--p", "1/3", "--k", "2"),
         "suite search-weight does not read --k"),
        (("search", "seq", "--n", "2", "--m", "2", "--t", "1", "--seed", "1"),
         "suite search-seq does not read --seed"),
    ])
    def test_settings_the_suite_does_not_read(self, capsys, argv, message):
        # An ignored setting would report the default run as if it were
        # the one asked for.
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (USAGE_ERROR, "", f"error: {message}\n")

    def test_config_values_the_suite_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_max = 30\nformat = csv\n")
        code, out, err = run(capsys, "verify", "walk-oracle", "--config", str(cfg))
        assert (code, out) == (USAGE_ERROR, "")
        assert "does not read --t-max" in err

    def test_search_writes_json_only(self, capsys):
        code, out, err = run(capsys, "search", "uniform", "--n", "5", "--k", "2", "--t", "1",
                             "--format", "csv")
        assert (code, out) == (USAGE_ERROR, "")
        assert "writes JSON only" in err

    def test_graphs_reads_its_seed(self, capsys):
        code, out, _ = run(capsys, "verify", "graphs", "--seed", "3", "--format", "json")
        assert code == 0
        assert all(r["status"] == "verified" for r in json.loads(out))

    def test_least_t_max_checks_every_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "bounds-all", "--t-max", "17")
        assert code == 0
        ranges = [row["witness"]["t_range"] for row in json.loads(out)
                  if isinstance(row["witness"], dict) and "t_range" in row["witness"]]
        # A trend row compares t with t + 1 over t_range, so it needs lo < hi.
        assert ranges and all(lo < hi for lo, hi in ranges)


class TestSearchCommands:
    def test_uniform_search_output(self, capsys):
        code, out, _ = run(capsys, "search", "uniform", "--n", "5", "--k", "2", "--t", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["max_product"] == "16"
        assert obj["matched_construction"] == "F0"
        assert obj["exhaustive"] is True
        assert obj["params"]["n"] == 5
        assert obj["witness_families"][0][0].startswith("n=5 k=2")

    def test_weight_search_output(self, capsys):
        code, out, _ = run(
            capsys, "search", "weight", "--n", "4", "--t", "2", "--p", "1/4"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["max_product"] == "1/256"
        assert obj["witness_classes"] == ["F0"]

    def test_seq_search_output(self, capsys):
        code, out, _ = run(capsys, "search", "seq", "--n", "2", "--m", "3", "--t", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["max_product"] == "9"
        assert obj["witness_families"][0][0].startswith("m=3 n=2")

    def test_budget_exceeded_exit(self, capsys):
        code, _, err = run(capsys, "search", "seq", "--n", "5", "--m", "3", "--t", "1")
        assert code == 2
        assert "budget" in err.lower()

    def test_out_of_memory_exit(self, monkeypatch, capsys):
        # Running out of memory refutes nothing, so it must not exit 1.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "max_weight_product", exhausted)
        code, out, err = run(capsys, "search", "weight", "--n", "20", "--t", "1", "--p", "1/3")
        assert (code, out, err) == (2, "", "budget exceeded: out of memory\n")

    def test_weight_search_too_large_to_list_is_a_usage_error(self, monkeypatch, capsys):
        # 2^22 candidates exceed the materialization limit: the search
        # would run for seconds and then out of memory, so it must not start.
        calls = []
        monkeypatch.setattr(cli, "max_weight_product", lambda *args: calls.append(args))
        code, out, err = run(capsys, "search", "weight", "--n", "22", "--t", "1", "--p", "1/3")
        assert (code, out, calls) == (USAGE_ERROR, "", [])
        assert "needs n <= 20" in err

    def test_shifted_flag(self, capsys):
        code, out, _ = run(
            capsys, "search", "uniform", "--n", "5", "--k", "2", "--t", "1", "--shifted"
        )
        assert code == 0
        assert json.loads(out)["notes"]["mode"] == "shifted"

    def test_seq_rejects_shifted(self, tmp_path, capsys):
        seq = ["search", "seq", "--n", "3", "--m", "2", "--t", "1"]
        code, out, err = run(capsys, *seq, "--shifted")
        assert (code, out) == (USAGE_ERROR, "")
        assert "no shifted mode" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shifted = true\n")
        code, out, err = run(capsys, *seq, "--config", str(cfg))
        assert (code, out) == (USAGE_ERROR, "")
        assert "no shifted mode" in err
        code, out, _ = run(capsys, *seq, "--config", str(cfg), "--no-shifted")
        assert code == 0
        assert json.loads(out)["notes"]["nodes"] == 110


class TestVerifyCommands:
    def test_walk_oracle_json(self, capsys):
        code, out, _ = run(capsys, "verify", "walk-oracle")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["claim_id"] == "walk-count-oracle"
        assert rows[0]["status"] == "verified"
        assert set(rows[0]) == {
            "claim_id", "anchor", "status", "lhs", "rhs", "witness", "elapsed_ms",
        }

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "stability", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim_id,status,elapsed_ms"
        assert all(",verified," in line for line in lines[1:])

    def test_graphs_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "graphs")
        assert code == 0
        assert all(r["status"] == "verified" for r in json.loads(out))

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, printed, _ = run(
            capsys, "verify", "stability", "--t", "14", "--out", str(out_path)
        )
        assert code == 0
        assert printed == ""
        rows = json.loads(out_path.read_text())
        assert any(r["claim_id"].startswith("stability-unit") for r in rows)

    def test_unwritable_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "no" / "such" / "dir" / "x.json"
        code, out, err = run(capsys, "verify", "stability", "--out", str(out_path))
        assert (code, out) == (USAGE_ERROR, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out_path) in err

    @pytest.mark.parametrize("suite", VERIFY_SUITES)
    def test_every_claim_has_an_anchor(self, suite, capsys):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0
        for row in json.loads(out):
            base = row["claim_id"].split("[", 1)[0]
            assert base in ANCHORS, row["claim_id"]
            assert row["anchor"] == anchor_for(row["claim_id"]) == ANCHORS[base]

    def test_every_anchor_names_a_claim(self, capsys):
        bases = set()
        for suite in VERIFY_SUITES:
            code, out, _ = run(capsys, "verify", suite)
            assert code == 0, suite
            bases |= {row["claim_id"].split("[", 1)[0] for row in json.loads(out)}
        assert set(ANCHORS) == bases

    def test_rows_time_their_own_checks(self, capsys):
        # Each row is a lap of one clock, so the rows cannot add up to
        # more than the whole call.
        started = time.perf_counter()
        code, out, _ = run(capsys, "verify", "bounds-all")
        wall_ms = (time.perf_counter() - started) * 1000
        assert code == 0
        elapsed = [row["elapsed_ms"] for row in json.loads(out)]
        assert sum(elapsed) <= wall_ms
        assert len(elapsed) == 44 and all(ms >= 0 for ms in elapsed)


class TestConfigFile:
    def test_values_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 5\nk = 2\nt = 1\nformat = json\n")
        code, out, _ = run(
            capsys, "search", "uniform", "--config", str(cfg)
        )
        assert code == 0
        assert json.loads(out)["max_product"] == "16"
        # flags override the file
        code, out, _ = run(
            capsys, "search", "uniform", "--config", str(cfg), "--n", "4"
        )
        assert json.loads(out)["max_product"] == "9"

    def test_bad_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "search", "uniform", "--config", str(cfg),
                           "--n", "4", "--k", "2", "--t", "1")
        assert code == USAGE_ERROR
        assert "bogus" in err

    @pytest.mark.parametrize("header", ["[search]", "[verify = 1]"])
    def test_section_header_is_a_bad_line(self, tmp_path, capsys, header):
        # A section would not scope its keys, so the file must be flat.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{header}\nn = 5\nk = 2\nt = 1\n")
        code, out, err = run(capsys, "search", "uniform", "--config", str(cfg))
        assert (code, out) == (USAGE_ERROR, "")
        assert f"bad config line: {header!r}" in err

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ValueError, match="bad config line"):
            load_config_file(str(cfg))

    def test_precedence_flag_file_environment_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("t_max = 20\nseed = 5\nformat = csv\n")
        parse = build_parser().parse_args
        cfg = config_from_args(parse(["verify", "graphs", "--config", str(cfg_file)]))
        assert (cfg.t_max, cfg.seed, cfg.fmt) == (20, 5, "csv")
        cfg = config_from_args(parse(
            ["verify", "graphs", "--config", str(cfg_file), "--t-max", "30",
             "--seed", "7", "--format", "json"]
        ))
        assert (cfg.t_max, cfg.seed, cfg.fmt) == (30, 7, "json")
        cfg = config_from_args(parse(["verify", "graphs"]))
        assert (cfg.t_max, cfg.seed, cfg.fmt) == (100, 0, "json")

    def test_shifted_flag_overrides_file(self, tmp_path):
        parse = build_parser().parse_args
        search = ["search", "uniform", "--n", "5", "--k", "2", "--t", "1"]
        assert config_from_args(parse(search)).shifted is False
        for value, flag, expected in (
            ("true", [], True), ("true", ["--no-shifted"], False),
            ("false", [], False), ("false", ["--shifted"], True),
        ):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"shifted = {value}\n")
            cfg = config_from_args(parse(search + ["--config", str(cfg_file)] + flag))
            assert cfg.shifted is expected, (value, flag)

    @pytest.mark.parametrize("value, expected", [
        ("TRUE", True), ("Yes", True), ("1", True), ("False", False), ("NO", False), ("0", False),
    ])
    def test_shifted_values(self, tmp_path, value, expected):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"shifted = {value}\n")
        cfg = config_from_args(build_parser().parse_args(
            ["search", "uniform", "--n", "5", "--k", "2", "--t", "1", "--config", str(cfg_file)]))
        assert cfg.shifted is expected

    def test_bad_shifted_value(self, tmp_path, capsys):
        # "on" once read as false and ran full mode.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("shifted = on\n")
        code, out, err = run(capsys, "search", "uniform", "--n", "5", "--k", "2", "--t", "1",
                             "--config", str(cfg_file))
        assert (code, out) == (USAGE_ERROR, "")
        assert "shifted must be true, false, yes, no, 1 or 0, got 'on'" in err

    def test_file_cannot_name_the_suite(self, tmp_path, capsys):
        # The suite is the command line's positional; the file cannot replace it.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("suite = stability\n")
        code, out, err = run(capsys, "verify", "graphs", "--config", str(cfg_file))
        assert (code, out) == (USAGE_ERROR, "")
        assert "unknown config key 'suite'" in err

    def test_eta_is_gone(self, tmp_path, capsys):
        # --workers and --resume went the same way as --eta.
        for flag, key in (
            (["--eta", "1/2"], "eta = 1/2"),
            (["--workers", "2"], "workers = 2"),
            (["--resume"], "resume = true"),
        ):
            assert run(capsys, "verify", "graphs", *flag)[0] == USAGE_ERROR
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(key + "\n")
            code, _, err = run(capsys, "verify", "graphs", "--config", str(cfg_file))
            assert code == USAGE_ERROR
            assert f"unknown config key {key.split()[0]!r}" in err

    def test_separator_is_the_first_of_equals_and_colon(self, tmp_path, capsys):
        # The key ends at the colon; the = belongs to the value.
        out_path = tmp_path / "t=14.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out: {out_path}\nt = 14\n")
        assert load_config_file(str(cfg)) == {"out": str(out_path), "t": "14"}
        code, printed, _ = run(capsys, "verify", "stability", "--config", str(cfg))
        assert (code, printed) == (0, "")
        assert len(json.loads(out_path.read_text())) == 3

    def test_comments_and_rationals(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# weighted run\nn: 3\nt: 1\np: 1/3\n")
        code, out, _ = run(capsys, "search", "weight", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["max_product"] == "1/9"


class TestFiniteSweepCommand:
    def test_single_t_rows_come_from_bounds(self, tmp_path, capsys):
        out_path = tmp_path / "finite.json"
        code, _, _ = run(
            capsys, "verify", "case2-finite", "--t", "18", "--out", str(out_path)
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        expected = [report_to_obj(bounds.verify_threshold_floor(18)),
                    report_to_obj(bounds.verify_low_side_finite(18))]
        for row in rows + expected:
            del row["elapsed_ms"]
        assert rows == expected
        assert rows[1]["status"] == "verified"
        assert rows[1]["witness"]["cells"] == 60

    @pytest.mark.parametrize("t", [13, 19])
    def test_t_outside_the_sweep(self, t, capsys):
        code, out, err = run(capsys, "verify", "case2-finite", "--t", str(t))
        assert code == USAGE_ERROR
        assert out == ""
        assert "case2-finite covers t in" in err

    def test_floor_claim(self, capsys):
        code, out, _ = run(capsys, "verify", "case2-finite", "--t", "14")
        assert code == 0
        rows = json.loads(out)
        floor_row = next(r for r in rows if "threshold-floor" in r["claim_id"])
        assert floor_row["lhs"] == 1023


# sha256 of each suite's JSON rows with elapsed_ms removed (json.dumps,
# sort_keys), taken before exp_enclosure, the interval product and the
# finite sweep moved to integer kernels; any change to a row's status,
# value, enclosure or witness shows.  Each key is the command line after
# "verify"; at --t-max 17, the least allowed, an off-by-one in a sweep's
# range shows first (taken before the range claims moved to one helper).
# The walk-oracle, measure-oracle and graphs rows were taken before the
# measure oracle's hit-limit-monotone claim moved onto report.sweep.
PINNED_CERTIFY_ROWS = {
    "bounds-all": "a0183ba6d56e6a0141fee7b5ab64d59beac69fd83d28416ade93476a98024aa0",
    "bounds-all --t-max 17": "a2184d5d782dfb58db93763f2c8c7cac4a7602e6e964be21e692d8545fa69df3",
    "case2-finite": "c1704f8f9992907bb259362cb52c83289ddd525aa94f7ae6e697dd67de9c5593",
    "stability": "76442ea679cf7ebf845e6bed6ab20bc927d5fa8fac5f19a934cd928727e1ac75",
    "walk-oracle": "7af62ca63fc8533ef39c2ae7a7cebb9109380fdb7b297d991783cdf7fae4bfc4",
    "measure-oracle": "748d34cda6e6f5b81e73b97c46ec9a6bb54aadbd9d80f432f22843d650517e95",
    "graphs --seed 1": "bb36906525e7b6a3e022ef7ff30b7657fbec289e08390a8a6d790b817e3f6ab9",
}


def test_pinned_certify_rows(capsys):
    for suite, digest in PINNED_CERTIFY_ROWS.items():
        code, out, _ = run(capsys, "verify", *suite.split())
        assert code == 0, suite
        rows = json.loads(out)
        for row in rows:
            del row["elapsed_ms"]
        blob = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest, suite
