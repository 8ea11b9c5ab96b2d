import csv
import re

import numpy as np
import pytest

from scvquad import cli
from scvquad.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, RAW_HEADER, SUMMARY_HEADER, main


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_rates_small_campaign(tmp_path):
    out = tmp_path / "rates.csv"
    code = main([
        "rates", "--seed", "7", "--out", str(out),
        "--m", "1,2", "--reps", "20", "--method", "scv,cv",
    ])
    assert code == EXIT_OK
    rows = _read(out)
    assert rows[0] == RAW_HEADER
    assert len(rows) == 1 + 2 * 2 * 20  # two methods, two grid sizes
    summary = _read(tmp_path / "rates_summary.csv")
    assert summary[0] == SUMMARY_HEADER
    stats = {row[5] for row in summary[1:]}
    assert stats == {"max_abs_error", "q99_error"}
    # n_evals column carries the budget 2*n0*m^2
    n_by_m = {row[3]: row[4] for row in rows[1:] if row[0] == "scv"}
    assert n_by_m == {"1": "6", "2": "24"}


def test_rates_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["rates", "--seed", "3", "--m", "1,2", "--reps", "10", "--method", "scv"]
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_rates_threads_do_not_change_output(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["rates", "--seed", "3", "--m", "2", "--reps", "16", "--method", "cv"]
    assert main(base + ["--out", str(out_a), "--threads", "1"]) == EXIT_OK
    assert main(base + ["--out", str(out_b), "--threads", "4"]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_rates_skips_infeasible_cv_mom(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code = main([
        "rates", "--seed", "1", "--out", str(out),
        "--m", "1,2", "--reps", "5", "--method", "cv_mom", "--k", "11",
    ])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "skipping" in err and "m=1" in err
    rows = _read(out)
    assert {row[3] for row in rows[1:]} == {"2"}  # m=1 omitted, m=2 kept


def test_histogram_command(tmp_path):
    out = tmp_path / "hist.csv"
    code = main([
        "histogram", "--seed", "5", "--out", str(out),
        "--m", "2", "--reps", "50", "--method", "scv,cv",
    ])
    assert code == EXIT_OK
    raw = _read(out)
    assert raw[0] == RAW_HEADER
    assert len(raw) == 1 + 2 * 50
    summary = _read(tmp_path / "hist_summary.csv")
    stats = [row[5] for row in summary[1:]]
    assert "tail_fraction_2.5" in stats and "tail_fraction_2.9" in stats
    counts = [int(float(row[6])) for row in summary[1:] if row[5].startswith("hist_count_")]
    assert sum(counts) == 2 * 50


def test_tails_command(tmp_path):
    out = tmp_path / "tails.csv"
    code = main([
        "tails", "--seed", "11", "--out", str(out),
        "--reps", "400", "--delta", "0.2,0.1",
    ])
    assert code == EXIT_OK
    rows = _read(out)
    assert rows[0] == SUMMARY_HEADER
    stats = [row[5] for row in rows[1:]]
    assert "prob_error_delta_0.2" in stats
    assert "max_abs_error_delta_0.1" in stats
    assert "delta_exponent_quantile" not in stats  # pinned at -1/2 on corner bumps
    assert "delta_exponent_max" in stats


def test_tails_rejects_wrong_regime(tmp_path, capsys):
    code = main(["tails", "--s", "2", "--reps", "10"])  # s >= d/p
    assert code == EXIT_CONFIG
    assert "low-smoothness" in capsys.readouterr().err


def test_verify_command_passes(tmp_path):
    out = tmp_path / "verify.txt"
    code = main(["verify", "--seed", "0", "--trials", "5000", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "all bounds hold" in text
    assert text.count("PASS") == 40


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# campaign configuration\n"
        "method = scv\n"
        "m_list = 1\n"
        "R = 8\n"
        "seed = 123\n"
    )
    out_file = tmp_path / "file.csv"
    assert main(["rates", "--config", str(cfg), "--out", str(out_file)]) == EXIT_OK
    rows = _read(out_file)
    assert len(rows) == 1 + 8

    # the --reps flag overrides the file's R
    out_flag = tmp_path / "flag.csv"
    assert main(["rates", "--config", str(cfg), "--reps", "4", "--out", str(out_flag)]) == EXIT_OK
    assert len(_read(out_flag)) == 1 + 4


def test_env_seed_fallback(tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("SCV_SEED", "99")
    assert main(["rates", "--m", "1", "--reps", "6", "--method", "scv",
                 "--out", str(out_env)]) == EXIT_OK
    monkeypatch.delenv("SCV_SEED")
    assert main(["rates", "--m", "1", "--reps", "6", "--method", "scv", "--seed", "99",
                 "--out", str(out_flag)]) == EXIT_OK
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_bad_configs_exit_one(tmp_path, capsys):
    assert main(["rates", "--method", "nosuch"]) == EXIT_CONFIG
    assert main(["rates", "--method", "crude"]) == EXIT_CONFIG
    assert main(["rates", "--reps", "0"]) == EXIT_CONFIG
    assert main(["rates", "--m", "0", "--reps", "5"]) == EXIT_CONFIG
    missing = tmp_path / "missing.cfg"
    assert main(["rates", "--config", str(missing)]) == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    assert main(["rates", "--config", str(bad)]) == EXIT_CONFIG
    bad.write_text("thresholds = nan\n")
    assert main(["histogram", "--config", str(bad)]) == EXIT_CONFIG  # before any replication
    capsys.readouterr()


@pytest.mark.parametrize("command", ["rates", "histogram", "tails"])
def test_threads_above_ceiling_exit_one(command, capsys):
    # rejected by the parser, so no pool is ever opened
    assert main([command, "--threads", str(cli._MAX_THREADS + 1)]) == EXIT_CONFIG
    assert "--threads: need at most" in capsys.readouterr().err
    assert cli._SETTINGS["threads"].parse(str(cli._MAX_THREADS)) == cli._MAX_THREADS


def test_trials_above_ceiling_exit_one(capsys):
    # rejected by the parser, before any suite draws
    assert main(["verify", "--trials", str(cli._MAX_TRIALS + 1)]) == EXIT_CONFIG
    assert "--trials: need at most" in capsys.readouterr().err
    assert cli._SETTINGS["trials"].parse(str(cli._MAX_TRIALS)) == cli._MAX_TRIALS


def test_write_csv_formats_numpy_floats_as_python_floats(tmp_path):
    out = tmp_path / "t.csv"
    cli._write_csv(out, ["a", "b", "c"], [["x", np.float64(0.1), np.int64(3)], ["y", 1e-17, 2]])
    assert out.read_text() == "a,b,c\nx,0.1,3\ny,1e-17,2\n"


def test_histogram_raw_errors_round_trip_bitwise(tmp_path, monkeypatch):
    samples = []
    inner = cli.replicate

    def capture(*args, **kwargs):
        samples.append(inner(*args, **kwargs))
        return samples[-1]

    monkeypatch.setattr(cli, "replicate", capture)
    out = tmp_path / "hist.csv"
    assert main(["histogram", "--seed", "2", "--m", "2", "--reps", "40",
                 "--method", "scv,cv,strat", "--out", str(out)]) == EXIT_OK
    raw = _read(out)[1:]
    assert [s.config.method.value for s in samples] == ["scv", "cv", "strat"]
    for sample in samples:
        method = sample.config.method.value
        written = np.array([float(row[6]) for row in raw if row[0] == method])
        assert written.tobytes() == sample.errors.tobytes(), method


def test_verify_exit_code_on_violation(monkeypatch, tmp_path):
    import scvquad.cli as cli
    import scvquad.stats as stats

    original = stats.hoeffding_bound
    monkeypatch.setattr(stats, "hoeffding_bound", lambda p, b, delta: 0.05 * original(p, b, delta))
    code = main(["verify", "--trials", "2000"])
    assert code == EXIT_VERIFY


@pytest.mark.parametrize("argv", [
    ["rates", "--s", "abc"],
    ["rates", "--mode", "foo"],
    ["rates", "--nosuch", "1"],
    ["verify", "--se", "1"],  # no abbreviations: --se must not become --seed
    ["nosuch"],
    [],
])
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == EXIT_CONFIG  # not argparse's SystemExit(2), which is EXIT_VERIFY
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_one(seed, capsys):
    assert main(["verify", "--seed", seed]) == EXIT_CONFIG
    assert "--seed: seed must be an unsigned 64-bit integer" in capsys.readouterr().err


def test_unknown_mode_names_the_flag(capsys):
    assert main(["rates", "--mode", "other"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --mode: ")


def test_histogram_and_tails_take_one_grid_size(tmp_path, capsys):
    assert main(["histogram", "--m", "2,8", "--reps", "5"]) == EXIT_CONFIG
    assert "--m: this campaign takes one grid size" in capsys.readouterr().err
    cfg = tmp_path / "tails.cfg"
    cfg.write_text("m_list = 4,8\n")
    assert main(["tails", "--config", str(cfg)]) == EXIT_CONFIG
    assert "m_list: this campaign takes one grid size" in capsys.readouterr().err


def _declared(command, kind):
    return {getattr(cli._SETTINGS[name], kind) for name in cli._COMMANDS[command][1]} - {None}


def _undeclared(kind):
    every = {getattr(setting, kind) for setting in cli._SETTINGS.values()} - {None}
    return [(command, option) for command in cli._COMMANDS
            for option in sorted(every - _declared(command, kind))]


@pytest.mark.parametrize("command,flag", _undeclared("flag"))
def test_undeclared_flag_exits_one(command, flag, capsys):
    assert main([command, flag, "1"]) == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", _undeclared("key"))
def test_undeclared_file_key_exits_one(command, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert f"{command} takes no key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_exactly_the_declared_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert listed == _declared(command, "flag") | {"--help", "--config", "--out"}


class _Reads:
    """Settings that record which names a campaign reads."""

    def __init__(self, values):
        self.values, self.read = values, set()

    def __getattr__(self, name):
        self.read.add(name)
        return self.values[name]


# small enough that every campaign finishes in well under a second
_SMALL = dict(methods=[cli.Method.SCV], m_list=[1], m=2, reps=3, delta_list=[0.2, 0.1],
              trials=50)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_campaign_reads_every_declared_setting(command, tmp_path, capsys):
    run, defaults = cli._COMMANDS[command]
    settings = _Reads({name: _SMALL.get(name, value) for name, value in defaults.items()})
    settings.values["out"] = tmp_path / "out.csv"
    run(settings)
    assert settings.read == set(defaults) | {"out"}


# Expected output of four small default campaigns, recorded from the code
# they guard.  Each file's line count, and every listed row: the raw rates
# errors, the histogram rows other than its bins, and the tails summary;
# the verify text whole.
# Campaign seeds derive from the order of `Method` and each estimate's
# values from its stream's draw order, so a change to either moves them.
_CAMPAIGNS = [
    (["rates", "--seed", "3", "--reps", "3", "--m", "1,4"], "rates.csv"),
    (["histogram", "--seed", "3", "--reps", "20"], "hist.csv"),
    (["tails", "--seed", "3", "--reps", "20"], "tails.csv"),
    (["verify", "--seed", "3", "--trials", "2000"], "verify.txt"),
]
_LINE_COUNTS = {"rates.csv": 16, "rates_summary.csv": 11, "hist.csv": 61,
                "hist_summary.csv": 460, "tails.csv": 8}
_EXPECTED_ROWS = {
    "rates.csv": """\
cv,2,2,1,6,0,-3.14031427430227
cv,2,2,1,6,1,-23.48480215979494
cv,2,2,1,6,2,0.47530973252139574
cv,2,2,4,96,0,0.6086124884611892
cv,2,2,4,96,1,-0.2150149619587367
cv,2,2,4,96,2,-0.6577408430861711
cv_mom,2,2,4,92,0,1.5329040908878278
cv_mom,2,2,4,92,1,2.261191051840625
cv_mom,2,2,4,92,2,1.95884716276549
scv,2,2,1,6,0,2.5517410678980426
scv,2,2,1,6,1,-0.14695916685477783
scv,2,2,1,6,2,-7.8631378168583765
scv,2,2,4,96,0,0.3233501641316354
scv,2,2,4,96,1,-0.21091934700773574
scv,2,2,4,96,2,0.10172000572737105""",
    "hist_summary.csv": """\
cv,2,2,4,96,mean_error,-0.1189250035989122
cv,2,2,4,96,tail_fraction_2.5,0.05
cv,2,2,4,96,tail_fraction_2.9,0.05
cv_mom,2,2,4,92,mean_error,1.0751053897513634
cv_mom,2,2,4,92,tail_fraction_2.5,0.05
cv_mom,2,2,4,92,tail_fraction_2.9,0.05
scv,2,2,4,96,mean_error,0.0473602496748395
scv,2,2,4,96,tail_fraction_2.5,0.0
scv,2,2,4,96,tail_fraction_2.9,0.0""",
    "tails.csv": """\
scv,1,2,8,128,prob_error_delta_0.1,0.007761397082653204
scv,1,2,8,128,max_abs_error_delta_0.1,0.007761397082653204
scv,1,2,8,128,prob_error_delta_0.05,0.005488136508625567
scv,1,2,8,128,max_abs_error_delta_0.05,0.005488136508625567
scv,1,2,8,128,prob_error_delta_0.02,0.0034710022954362236
scv,1,2,8,128,max_abs_error_delta_0.02,0.0034710022954362236
scv,1,2,8,128,delta_exponent_max,-0.49999999999999933""",
}

_VERIFY_TEXT = """\
PASS hoeffding[0] p=1.1 delta=0.2 n=1 uniform: fail_rate=0.000000 <= delta=0.2 (bound=3.4468, trials=2000)
PASS hoeffding[1] p=1.1 delta=0.05 n=2 rademacher: fail_rate=0.000000 <= delta=0.05 (bound=2.87577, trials=2000)
PASS hoeffding[2] p=1.1 delta=0.01 n=4 uniform: fail_rate=0.000000 <= delta=0.01 (bound=0.929519, trials=2000)
PASS hoeffding[3] p=1.1 delta=0.002 n=8 rademacher: fail_rate=0.000000 <= delta=0.002 (bound=3.40298, trials=2000)
PASS hoeffding[4] p=1.3 delta=0.2 n=16 uniform: fail_rate=0.000000 <= delta=0.2 (bound=2.25063, trials=2000)
PASS hoeffding[5] p=1.3 delta=0.05 n=32 rademacher: fail_rate=0.000000 <= delta=0.05 (bound=0.318773, trials=2000)
PASS hoeffding[6] p=1.3 delta=0.01 n=64 uniform: fail_rate=0.000000 <= delta=0.01 (bound=0.0808199, trials=2000)
PASS hoeffding[7] p=1.3 delta=0.002 n=1 rademacher: fail_rate=0.000000 <= delta=0.002 (bound=4.17489, trials=2000)
PASS hoeffding[8] p=1.5 delta=0.2 n=2 uniform: fail_rate=0.000000 <= delta=0.2 (bound=3.9615, trials=2000)
PASS hoeffding[9] p=1.5 delta=0.05 n=4 rademacher: fail_rate=0.000000 <= delta=0.05 (bound=2.41672, trials=2000)
PASS hoeffding[10] p=1.5 delta=0.01 n=8 uniform: fail_rate=0.000000 <= delta=0.01 (bound=0.823671, trials=2000)
PASS hoeffding[11] p=1.5 delta=0.002 n=16 rademacher: fail_rate=0.000000 <= delta=0.002 (bound=3.07707, trials=2000)
PASS hoeffding[12] p=1.7 delta=0.2 n=32 uniform: fail_rate=0.000000 <= delta=0.2 (bound=1.35038, trials=2000)
PASS hoeffding[13] p=1.7 delta=0.05 n=64 rademacher: fail_rate=0.000000 <= delta=0.05 (bound=0.1697, trials=2000)
PASS hoeffding[14] p=1.7 delta=0.01 n=1 uniform: fail_rate=0.000000 <= delta=0.01 (bound=7.92956, trials=2000)
PASS hoeffding[15] p=1.7 delta=0.002 n=2 rademacher: fail_rate=0.000000 <= delta=0.002 (bound=8.21301, trials=2000)
PASS hoeffding[16] p=1.9 delta=0.2 n=4 uniform: fail_rate=0.000000 <= delta=0.2 (bound=3.20704, trials=2000)
PASS hoeffding[17] p=1.9 delta=0.05 n=8 rademacher: fail_rate=0.000000 <= delta=0.05 (bound=1.40013, trials=2000)
PASS hoeffding[18] p=1.9 delta=0.01 n=16 uniform: fail_rate=0.000000 <= delta=0.01 (bound=0.573597, trials=2000)
PASS hoeffding[19] p=1.9 delta=0.002 n=32 rademacher: fail_rate=0.000000 <= delta=0.002 (bound=2.43814, trials=2000)
PASS mz[0] q=1.0 iid_uniform: lhs=0.161439 <= rhs=1.99812 (+/- 0.036 at 3 sigma)
PASS mz[1] q=1.0 mixed: lhs=0.431636 <= rhs=4.38803 (+/- 0.047 at 3 sigma)
PASS mz[2] q=1.0 single_rademacher: lhs=1 <= rhs=4 (+/- 0 at 3 sigma)
PASS mz[3] q=1.0 asymmetric: lhs=0.113377 <= rhs=2.50454 (+/- 0.035 at 3 sigma)
PASS mz[4] q=1.5 iid_uniform: lhs=0.187839 <= rhs=0.859435 (+/- 0.019 at 3 sigma)
PASS mz[5] q=1.5 mixed: lhs=0.51267 <= rhs=2.28263 (+/- 0.029 at 3 sigma)
PASS mz[6] q=1.5 single_rademacher: lhs=1 <= rhs=3.1748 (+/- 0 at 3 sigma)
PASS mz[7] q=1.5 asymmetric: lhs=0.133169 <= rhs=0.884334 (+/- 0.016 at 3 sigma)
PASS mz[8] q=2.0 iid_uniform: lhs=0.20563 <= rhs=0.408739 (+/- 0.014 at 3 sigma)
PASS mz[9] q=2.0 mixed: lhs=0.568848 <= rhs=1.19478 (+/- 0.021 at 3 sigma)
PASS mz[10] q=2.0 single_rademacher: lhs=1 <= rhs=2 (+/- 0 at 3 sigma)
PASS mz[11] q=2.0 asymmetric: lhs=0.143357 <= rhs=0.379852 (+/- 0.01 at 3 sigma)
PASS mz[12] q=3.0 iid_uniform: lhs=0.235145 <= rhs=0.888685 (+/- 0.018 at 3 sigma)
PASS mz[13] q=3.0 mixed: lhs=0.637796 <= rhs=2.40664 (+/- 0.019 at 3 sigma)
PASS mz[14] q=3.0 single_rademacher: lhs=1 <= rhs=4 (+/- 0 at 3 sigma)
PASS mz[15] q=3.0 asymmetric: lhs=0.170323 <= rhs=0.862442 (+/- 0.015 at 3 sigma)
PASS mz[16] q=4.0 iid_uniform: lhs=0.259225 <= rhs=1.41758 (+/- 0.024 at 3 sigma)
PASS mz[17] q=4.0 mixed: lhs=0.681727 <= rhs=3.62826 (+/- 0.019 at 3 sigma)
PASS mz[18] q=4.0 single_rademacher: lhs=1 <= rhs=6 (+/- 0 at 3 sigma)
PASS mz[19] q=4.0 asymmetric: lhs=0.190041 <= rhs=1.40022 (+/- 0.019 at 3 sigma)
all bounds hold
"""


def test_default_campaigns_reproduce_recorded_output(tmp_path):
    for argv, name in _CAMPAIGNS:
        assert main(argv + ["--out", str(tmp_path / name)]) == EXIT_OK
    for name, count in _LINE_COUNTS.items():
        assert len(_read(tmp_path / name)) == count, name
    for name, text in _EXPECTED_ROWS.items():
        rows = [row for row in _read(tmp_path / name)[1:] if not row[5].startswith("hist_")]
        expected = [line.split(",") for line in text.splitlines()]
        assert [row[:-1] for row in rows] == [row[:-1] for row in expected], name
        # the last column is the float; allow a BLAS ulp, not a changed draw
        for row, want in zip(rows, expected):
            assert float(row[-1]) == pytest.approx(float(want[-1]), rel=1e-12, abs=0), (name, row)
    assert (tmp_path / "verify.txt").read_text() == _VERIFY_TEXT
