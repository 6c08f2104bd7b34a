"""CLI: subcommands, artifacts, exit codes, reproducibility."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fbsim import cli, engine, workloads
from fbsim.cli import main
from fbsim.core import QueueId
from fbsim.workloads import MAX_RUN_STEPS, dumps_scenario, preset

GOLDEN_SCENARIOS = Path(__file__).parent / "golden" / "scenarios"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_preset_list(capsys):
    assert main(["preset-list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig4_incast", "fig5_steady", "dt_scaling"):
        assert name in out


def test_run_preset_fig2_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--preset", "fig2", "--out", str(out)]) == 0
    for artifact in ("scenario.lock", "trace.csv", "samples.csv", "metrics.json", "summary.json"):
        assert (out / artifact).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["queues"]["0:0"]["final"] - 15) <= 1
    assert abs(summary["queues"]["1:1"]["final"] - 30) <= 1


def test_run_is_byte_identical_across_invocations(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "fig4_incast", "--out", str(a), "--seed", "9"]) == 0
    assert main(["run", "--preset", "fig4_incast", "--out", str(b), "--seed", "9"]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_run_scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(dumps_scenario(preset("fig4_steady")))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("this is not a scenario file")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,named", [
    ("[sources]", "[traffic]\n0 = constant class=0 port=0 rate=2\n\n[sources]", "[traffic]"),
    ("horizon = 60.0", "horizn = 5.0", "'horizn'"),
    ("fba_period = 1.0", "fba_perod = 1.0", "'fba_perod'"),
    ("rate=2 start=0", "rate=2 strat=5", "'strat'"),
    ("alpha=1 priority=0", "alpha=1 prio=0", "'prio'"),
    ("rate=2 start=0", "rate=2 start=0 start=5", "'start' given twice"),
    ("0:0 = 30", "0:0 = 30\n00:0 = 7", "'0:0' and '00:0'"),
], ids=["section", "switch_key", "policy_key", "source_key", "class_key", "repeated_key",
        "repeated_queue"])
def test_input_the_format_does_not_name_exits_2_before_the_run(old, new, named, tmp_path, capsys):
    text = dumps_scenario(preset("fig2"))
    assert old in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, new, 1))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and named in err
    assert not out.exists()


def test_readme_scenario_example_loads_and_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    lock = (tmp_path / "o" / "scenario.lock").read_text()
    assert "buffer = 60\n" in lock and "1:1 = 3/2\n" in lock


def _poisson_scenario_text(cdf):
    return (
        "[switch]\nbuffer = 20\nports = 1\nhorizon = 50.0\n\n"
        "[classes]\n0 = alpha=1 priority=0\n\n[policy]\nkind = dt\n\n"
        f"[sources]\n0 = poisson class=0 port=0 mean_interarrival=2 cdf={cdf}\n"
    )


@pytest.mark.parametrize("cdf", [
    "2:0.5,8:0.9", "8:0.5,2:1.0", "2:0.5,8:1.5", "file", "1:0.5,4:nan", "1:nan,4:1.0", "nan_file",
])
def test_bad_size_cdf_exits_2_before_the_run(cdf, tmp_path, capsys):
    # an inline table gets the same checks as a file, and both fail before
    # the run directory is written; a NaN probability fails them too
    files = {"file": "8 0.5\n2 1.0\n", "nan_file": "1 0.5\n4 nan\n"}
    if cdf in files:
        table = tmp_path / "cdf.txt"
        table.write_text(files[cdf])
        cdf = str(table)
    path = tmp_path / "poisson.ini"
    path.write_text(_poisson_scenario_text(cdf))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert "parse error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where,seed", [("file", -3), ("flag", -3), ("flag", 2**64)])
def test_seed_outside_u64_exits_3_before_the_run(where, seed, tmp_path, capsys):
    text, flags = _poisson_scenario_text("default"), ["--seed", str(seed)]
    if where == "file":
        text, flags = text.replace("horizon = 50.0\n", f"horizon = 50.0\nseed = {seed}\n"), []
    path = tmp_path / "poisson.ini"
    path.write_text(text)
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out), *flags]) == 3
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("missing", ["scenario", "cdf"])
def test_unreadable_input_file_exits_2_before_the_run(missing, tmp_path, capsys):
    # a scenario file or a size-CDF file that cannot be read is a parse
    # error, reported before the run directory is created (a source's
    # error names the source line first)
    absent = tmp_path / "missing.txt"
    path = absent
    if missing == "cdf":
        path = tmp_path / "poisson.ini"
        path.write_text(_poisson_scenario_text(absent))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert f"cannot read {absent}: " in err
    assert not out.exists()


def test_cdf_file_is_read_once_and_the_lock_carries_its_table(tmp_path, monkeypatch):
    table = tmp_path / "cdf.txt"
    table.write_text("# size cumprob\n1 0.25\n3 0.75\n6 1.0\n")
    path = tmp_path / "poisson.ini"
    path.write_text(_poisson_scenario_text(table))
    reads = Counter()
    read_text = workloads._read_text

    def counting(p):
        reads[str(p)] += 1
        return read_text(p)

    monkeypatch.setattr(workloads, "_read_text", counting)
    first = tmp_path / "first"
    assert main(["run", "--scenario", str(path), "--out", str(first)]) == 0
    assert reads[str(table)] == 1
    lock = (first / "scenario.lock").read_text()
    assert "cdf=1:0.25,3:0.75,6:1.0" in lock and str(table) not in lock

    # the loaded scenario holds the table: editing the file changes nothing
    cfg = workloads.load_scenario(path)
    before = engine.run(cfg).records
    table.write_text("40 1.0\n")
    assert engine.run(cfg).records == before
    # and the lock alone reproduces the run
    again = tmp_path / "again"
    assert main(["run", "--scenario", str(first / "scenario.lock"), "--out", str(again)]) == 0
    assert (again / "trace.csv").read_bytes() == (first / "trace.csv").read_bytes()
    assert engine.run(workloads.load_scenario(first / "scenario.lock")).records == before


@pytest.mark.parametrize("line,replacement,flags", [
    ("sample_interval = 0.1", "sample_interval = 1e-09", []),
    ("kind = dt", "kind = fba", ["--fba-period", "1e-9"]),
], ids=["sample_interval", "flag_fba_period"])
def test_implied_samples_or_ticks_past_the_bound_exit_3(
    line, replacement, flags, tmp_path, capsys, monkeypatch
):
    # the config would store 6e10 samples or tables: rejected before a run
    def no_run(config):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli.engine, "run", no_run)
    text = dumps_scenario(preset("fig2"))
    assert line in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(line, replacement))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(bad), "--out", str(out), *flags]) == 3
    assert f"more than {MAX_RUN_STEPS} samples or ticks" in capsys.readouterr().err
    assert not out.exists()


def _fresh_process(argv):
    """(exit code, stdout, stderr) of ``fbsim <argv>`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "fbsim.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80"),
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_reuses_its_parser_across_calls(monkeypatch, capsys):
    # main builds its parser once per process; calls after an argparse
    # error print exactly what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["preset-list"],
        ["run", "--preset", "fig2", "--bogus"],
        ["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5"],
        ["analyze", "--scheme", "qq"],
        ["preset-list"],
    ]
    fresh = {}  # one new interpreter per distinct argv

    def fresh_process(argv):
        key = tuple(argv)
        if key not in fresh:
            fresh[key] = _fresh_process(argv)
        return fresh[key]

    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh_process(argv)
    assert [fresh_process(argv)[0] for argv in calls[1::2]] == [2, 2]


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--fba-period", "1.0"]])
def test_analyze_takes_no_run_overrides(flag, capsys):
    # neither the fluid bridges nor the closed forms read a seed or an FBA
    # period, so analyze rejects both flags as argparse errors
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--preset", "fig5_incast", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--preset", "fig5_steady", "--t", "3"], "--t bounds the alphas for a burst"),
    (["--preset", "fig5_incast", "--r", "99"], "--r is the inline burst rate"),
    *((["--preset", "fig4_incast", flag, "3"], f"{flag} sets the inline scenario or the --curve")
      for flag in ("--buffer", "--alpha-l", "--alpha-h")),
])
def test_analyze_refuses_flags_it_would_not_read(flags, message, capsys):
    # a steady scenario has no burst to bound the alphas for, a scenario's
    # bursts carry their own rate, and its buffer and alphas are its own
    # unless --curve reads them: each flag would be dropped
    assert main(["analyze", *flags]) == 3
    assert f"validation error: {message}" in capsys.readouterr().err


def test_analyze_scenario_takes_curve_flags_with_curve(tmp_path, capsys):
    assert main(["analyze", "--preset", "fig4_incast", "--buffer", "60", "--alpha-l", "1/2",
                 "--alpha-h", "20", "--curve", "--out", str(tmp_path / "out")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t1"] == 2 and (tmp_path / "out" / "curve.csv").exists()


def test_analyze_scenario_file_refuses_an_inline_rate(tmp_path, capsys):
    path = tmp_path / "fig4_incast.ini"
    path.write_text(dumps_scenario(preset("fig4_incast")))
    assert main(["analyze", "--scenario", str(path), "--r", "5"]) == 3
    assert "--r is the inline burst rate" in capsys.readouterr().err


def test_analyze_scenario_refuses_a_burst_target_with_a_second_feed(tmp_path, capsys):
    # a constant source on the burst's queue 0:5 fills it before the burst
    # does, which the fluid model does not describe
    text = dumps_scenario(preset("fig4_incast"))
    path = tmp_path / "co_fed.ini"
    path.write_text(text.replace("5 = burst", "6 = constant class=5 port=0 rate=1 start=2\n5 = burst"))
    assert main(["analyze", "--scenario", str(path)]) == 3
    assert "burst target 0:5 must start empty and be fed by its one burst only" in capsys.readouterr().err


def test_an_invalid_config_cannot_be_built(tmp_path, capsys):
    # a fluid bridge would take weights for queues 2:0 and 3:0 on a 2-port
    # switch, and a t1 for 250 packets pre-filled into a 60-packet buffer;
    # neither config can be built, so no bridge, dump or run ever sees one
    with pytest.raises(workloads.ConfigError, match="source references invalid port 2"):
        workloads.steady_omegas(replace(preset("fig4_steady"), n_ports=2))
    overfull = {QueueId(1, c): 50 for c in range(5)}
    with pytest.raises(workloads.ConfigError, match="initial lengths sum to 250 > buffer size 60"):
        workloads.transient_scenario(replace(preset("fig4_incast"), initial_lengths=overfull))
    path = tmp_path / "overfull.ini"
    path.write_text(dumps_scenario(preset("fig4_incast")).replace("= 10\n", "= 50\n"))
    with pytest.raises(workloads.ConfigError, match="initial lengths sum to 250"):
        workloads.load_scenario(path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 3
    assert "validation error: initial lengths sum to 250" in capsys.readouterr().err
    assert not out.exists()


def test_closed_stdout_ends_quietly():
    # the reader closes the pipe after one line while the CLI still has
    # some 200 kB to write: no traceback, exit code 1
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fbsim.cli", "analyze", "--buffer", "100000",
         "--alpha-l", "1", "--alpha-h", "2", "--r", "4", "--n-new", "4000"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_bad_alpha_exits_3_with_field_message(tmp_path, capsys):
    text = dumps_scenario(preset("fig2")).replace("alpha=1 ", "alpha=-1 ")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["configure-alpha", "--buffer", "100", "--r", "abc"],
    ["configure-alpha", "--buffer", "100", "--r", "1/0"],
    ["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5", "--alphas", "2,x"],
    ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "0/0"],
    ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4",
     "--curve", "--counts", "x"],
    ["sweep", "--preset", "fig4_incast", "--axis", "load", "--values", "1/0"],
    ["sweep", "--preset", "fig4_incast", "--axis", "load", "--values", "1,abc"],
    ["sweep", "--preset", "dt_scaling", "--axis", "n_low_queues", "--values", "2.5"],
], ids=["abc", "one_over_zero", "alphas", "zero_over_zero", "counts",
        "sweep_one_over_zero", "sweep_abc", "sweep_fractional_count"])
def test_malformed_number_exits_2(argv, tmp_path, capsys):
    needs_out = argv[0] == "sweep" or "--curve" in argv
    assert main(argv + (["--out", str(tmp_path)] if needs_out else [])) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("axis,value,preset_name", [
    ("load", "0", "fig4_incast"), ("n_low_queues", "0", "dt_scaling"),
])
def test_out_of_range_sweep_value_exits_3(axis, value, preset_name, tmp_path, capsys):
    argv = ["sweep", "--preset", preset_name, "--axis", axis, "--values", f"1,{value}"]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert "validation error" in capsys.readouterr().err


def test_out_of_range_r_exits_3(capsys):
    assert main(["configure-alpha", "--buffer", "100", "--r", "1", "--t", "5"]) == 3
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--low-per-port", "0"), ("--n-new", "0"), ("--n-low", "-1"), ("--low-per-port", "-2"),
])
def test_degenerate_queue_counts_exit_3(flag, value, capsys):
    assert main([
        "analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4",
        flag, value,
    ]) == 3
    assert "validation error" in capsys.readouterr().err


def test_analyze_more_new_queues_than_the_first_low_port(capsys):
    # 101 new queues take ports 0..100, so the low ports start past them
    assert main([
        "analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4",
        "--n-new", "101", "--low-per-port", "2",
    ]) == 0
    assert len(json.loads(capsys.readouterr().out)["t1_per_queue"]) == 101


def test_curve_without_out_exits_3(capsys):
    assert main([
        "analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4", "--curve",
    ]) == 3
    assert "--curve needs --buffer, --alpha-l, --alpha-h and --out" in capsys.readouterr().err


@pytest.mark.parametrize("source", [
    "constant class=0 port=0 rate=1 start=5 stop=2",
    "constant class=0 port=0 rate=1 start=5 stop=5",
    "poisson class=0 port=0 mean_interarrival=2 start=5 stop=2",
    "poisson class=0 port=0 mean_interarrival=2 start=5 stop=5",
], ids=["constant_before", "constant_equal", "poisson_before", "poisson_equal"])
def test_source_stopping_before_it_starts_exits_3(source, tmp_path, capsys):
    text = dumps_scenario(preset("fig2")).replace(
        "0 = constant class=0 port=0 rate=2 start=0 stop=inf", f"0 = {source}"
    )
    assert source in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert "must be after its start" in capsys.readouterr().err


@pytest.mark.parametrize("line,replacement,flags", [
    ("horizon = 60.0", "horizon = inf", []),
    ("fba_period = 1.0", "fba_period = nan", []),
    ("sample_interval = 0.1", "sample_interval = inf", []),
    ("snapshot_staleness = 0.0", "snapshot_staleness = nan", []),
    ("kind = dt", "kind = fba", ["--fba-period", "nan"]),
], ids=["horizon_inf", "fba_period_nan", "sample_interval_inf", "staleness_nan", "flag_fba_period_nan"])
def test_non_finite_run_control_exits_3(line, replacement, flags, tmp_path, capsys):
    text = dumps_scenario(preset("fig2"))
    assert line in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(line, replacement))
    argv = ["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]
    assert main(argv + flags) == 3
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["-1", "0"])
def test_nonpositive_alpha_override_exits_3(alpha, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(dumps_scenario(preset("fig2")) + f"\n[alpha_overrides]\n0:0 = {alpha}\n")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert f"alpha override for 0:0 must be > 0, got {alpha}" in capsys.readouterr().err


def _fb_single_mode_text(kind: str, queue_mode_line: str = "queue_mode = single\n") -> str:
    """The golden single-queue FB scenario under ``kind`` and queue mode line."""
    text = (GOLDEN_SCENARIOS / "fb_single_mode.ini").read_text()
    assert "kind = fb\n" in text and "queue_mode = single\n" in text
    return text.replace("kind = fb\n", f"kind = {kind}\n").replace(
        "queue_mode = single\n", queue_mode_line
    )


def test_fb_single_is_fb_on_a_shared_queue(tmp_path):
    for kind in ("fb", "fb_single"):
        path = tmp_path / f"{kind}.ini"
        path.write_text(_fb_single_mode_text(kind))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / kind)]) == 0
    for artifact in ("trace.csv", "samples.csv", "summary.json", "metrics.json", "scenario.lock"):
        fb, alias = (tmp_path / kind / artifact for kind in ("fb", "fb_single"))
        assert fb.read_bytes() == alias.read_bytes(), artifact
    lock = (tmp_path / "fb_single" / "scenario.lock").read_text()
    assert "kind = fb\n" in lock and "queue_mode = single\n" in lock


@pytest.mark.parametrize("queue_mode_line", ["queue_mode = multi\n", ""], ids=["multi", "absent"])
def test_fb_single_outside_single_mode_exits_3(queue_mode_line, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(_fb_single_mode_text("fb_single", queue_mode_line))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert "fb_single policy requires queue_mode = single" in capsys.readouterr().err


def test_missing_scenario_exits_3(tmp_path):
    assert main(["run", "--out", str(tmp_path / "o")]) == 3


def test_analyze_inline_case2(capsys):
    assert main([
        "analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2",
        "--r", "10", "--n-low", "3",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "case2"
    assert payload["t1"] == pytest.approx(20 / 7)
    assert payload["burst_tolerance"] == pytest.approx(200 / 7)


def test_analyze_preset_steady_values(capsys):
    assert main(["analyze", "--preset", "fig4_steady"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["steady_occupancy"] == 50
    assert payload["steady_remaining"] == 10


def test_analyze_with_integrator_cross_check(capsys):
    argv = ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2",
            "--r", "4", "--n-low", "3"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t1"] == payload["ode_t1"] == 10
    with pytest.raises(SystemExit) as exc:  # the step knob is gone
        main(argv + ["--step", "0.01"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name,t1", [("fig4_incast", 2.0), ("fig5_incast", 75 / 8)])
def test_analyze_scenario_reports_a_plain_ode_t1(name, t1, tmp_path, capsys):
    # the solver's private rational never reaches the JSON: ode_t1 is a number
    path = tmp_path / f"{name}.ini"
    path.write_text(dumps_scenario(preset(name)))
    assert main(["analyze", "--scenario", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert type(payload["ode_t1"]) is float and payload["ode_t1"] == payload["t1"] == t1


def test_analyze_curve(tmp_path, capsys):
    assert main([
        "analyze", "--buffer", "60", "--alpha-l", "0.5", "--alpha-h", "20",
        "--r", "4", "--curve", "--out", str(tmp_path),
        "--r-values", "2,4,8", "--counts", "1,2",
    ]) == 0
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,r,n_low_queues,case,t1,burst_tolerance"
    assert len(lines) == 7


def test_configure_alpha_bounds(capsys):
    assert main(["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5",
                 "--alpha-l", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_L_zero_transient"] == 0.5
    assert payload["alpha_H_min"] == 1.5


def test_configure_alpha_infeasible(capsys):
    assert main(["configure-alpha", "--buffer", "60", "--r", "4", "--t", "10",
                 "--alpha-l", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_H_min"] == "infeasible"


def test_configure_alpha_multi_priority(capsys):
    assert main(["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5",
                 "--alphas", "2,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_H_min"] == 3


@pytest.mark.parametrize("flags, message", [
    (["--alpha-l", "2"], "apply only with --t"),
    (["--alphas", "1,2"], "apply only with --t"),
    (["--alpha-l", "2", "--alphas", "1,2"], "apply only with --t"),
    (["--t", "5", "--alpha-l", "2", "--alphas", "1,2"], "not both"),
], ids=["alpha_l_without_t", "alphas_without_t", "both_without_t", "both_with_t"])
def test_configure_alpha_refuses_flags_it_would_not_read(flags, message, capsys):
    # without --t no high-alpha bound is solved, and --alphas would override
    # --alpha-l, so either case would drop a flag without a word
    assert main(["configure-alpha", "--buffer", "60", "--r", "4", *flags]) == 3
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_sweep_writes_index_and_run_dirs(tmp_path):
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--preset", "fig4_incast", "--axis", "burst_size",
        "--values", "0.2,0.5", "--out", str(out),
    ]) == 0
    index = (out / "index.csv").read_text().strip().splitlines()
    assert len(index) == 3
    assert (out / "run_000" / "trace.csv").exists()
    assert (out / "run_001" / "metrics.json").exists()


def test_sweep_index_keeps_the_value_text(tmp_path):
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--preset", "fig4_incast", "--axis", "load",
        "--values", "1/2,0.50,,2", "--out", str(out),
    ]) == 0
    rows = (out / "index.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["1/2", "0.50", "2"]
    # equal values give byte-identical runs, whatever their text
    assert (out / "run_000" / "trace.csv").read_bytes() == (out / "run_001" / "trace.csv").read_bytes()


def test_sweep_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    args = ["sweep", "--preset", "fig4_incast", "--axis", "r", "--values", "2,6"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--parallel", "2"]) == 0
    assert (serial / "index.csv").read_text() == (parallel / "index.csv").read_text()
    for sub in ("run_000", "run_001"):
        assert (serial / sub / "trace.csv").read_bytes() == (parallel / sub / "trace.csv").read_bytes()


def test_sweep_parallel_runs_a_config_with_both_maps(tmp_path):
    # each config, with its read-only initial lengths and alpha overrides,
    # is pickled to a worker
    path = tmp_path / "both.ini"
    path.write_text(dumps_scenario(replace(
        preset("fig4_incast"), alpha_overrides={QueueId(0, 5): Fraction(3)})))
    serial, parallel = tmp_path / "s", tmp_path / "p"
    args = ["sweep", "--scenario", str(path), "--axis", "r", "--values", "2,6"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--parallel", "2"]) == 0
    assert (serial / "index.csv").read_text() == (parallel / "index.csv").read_text()
    for sub in ("run_000", "run_001"):
        assert "[alpha_overrides]\n0:5 = 3\n" in (parallel / sub / "scenario.lock").read_text()
        assert (serial / sub / "trace.csv").read_bytes() == (parallel / sub / "trace.csv").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_parallel_below_one_exits_3(workers, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--preset", "fig2", "--axis", "load", "--values", "1,2",
                 "--parallel", workers, "--out", str(out)]) == 3
    assert "--parallel must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", ["", ",", ",,"])
def test_sweep_without_a_value_exits_3(values, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--preset", "fig4_incast", "--axis", "r", "--values", values,
                 "--out", str(out)]) == 3
    assert "--values lists no value" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_pool_has_no_more_workers_than_runs(monkeypatch, tmp_path):
    # the pool starts every worker at its first submit, so 64 asked for two
    # runs must start two; the fake maps in this process and starts none
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert main([
        "sweep", "--preset", "fig4_incast", "--axis", "r", "--values", "2,6",
        "--parallel", "64", "--out", str(tmp_path / "p"),
    ]) == 0
    assert sizes == [2]


def test_sources_import_only_the_standard_library():
    for path in sorted((SRC / "fbsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "fbsim", f"{path.name}: {name}"


def test_the_test_oracles_import_from_fbsim_core_only():
    # an oracle that called the code it checks would check nothing: of the
    # package, tests/oracles.py reads only the shared types of fbsim.core
    path = ROOT / "tests" / "oracles.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.partition(".")[0] != "fbsim" or name == "fbsim.core", f"oracles.py:{node.lineno}"


def _names_read(path):
    """Every name a module reads: each ast Name, Attribute and import."""
    return _names_in(ast.parse(path.read_text(), str(path)))


def _names_in(tree):
    """Every name an ast tree reads: each Name, Attribute and import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_only_the_fluid_module_names_the_solver_rational():
    # fluid._Q stays inside the solver: every other module sees Fractions
    for path in sorted((SRC / "fbsim").glob("*.py")):
        assert ("_Q" in _names_read(path)) == (path.name == "fluid.py"), path.name


def test_the_two_fluid_routes_share_no_arithmetic():
    # the closed forms and the solver check each other only while neither
    # computes through the other's code, so each has its own exact sum: no
    # closed-form function reaches a solver name, through the module's
    # functions it calls, and no solver function reaches _fsum
    tree = ast.parse((SRC / "fbsim" / "fluid.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reached(name):
        names, todo = set(), [name]
        while todo:
            read = _names_in(functions[todo.pop()])
            todo += [n for n in read - names if n in functions]
            names |= read
        return names

    closed_forms = ("_closed_form", "steady_state", "analyze_transient",
                    "alpha_L_for_zero_transient", "alpha_L_for_burst", "alpha_H_for_burst",
                    "multi_priority_alpha_H", "alpha_bounds_general", "burst_absorption_curve")
    solver = {"_Q", "_EXACT", "_qsum", "_solve_total_rate", "integrate_transient"}
    for name in closed_forms:
        assert not reached(name) & solver, name
    assert "_fsum" in reached("_closed_form")
    for name in ("integrate_transient", "_solve_total_rate"):
        assert "_fsum" not in reached(name), name
    assert "_qsum" in reached("integrate_transient")


def test_only_the_core_rule_sets_a_frozen_field():
    # every frozen value type converts its fields through core.convert_fields,
    # so __setattr__, the way round a frozen dataclass, is written there alone
    writes = []
    for path in sorted((SRC / "fbsim").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        writes += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "__setattr__"]
    assert writes == [("core.py", "convert_fields")]


def test_sources_never_read_the_decoded_trace_views():
    # records and samples decode the whole packed trace into tuples; the
    # package reads it through EventTrace.rows() and the occupancy array
    for path in sorted((SRC / "fbsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("records", "samples"), f"{path.name}:{node.lineno}"


def test_metrics_compute_reads_no_trace_record():
    # compute reads the facts the event loop kept on the trace: it neither
    # decodes the records nor touches their buffer
    tree = ast.parse((SRC / "fbsim" / "metrics.py").read_text())
    compute = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "compute")
    names = set()
    for node in ast.walk(compute):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"rows", "packed"}


def test_only_the_core_module_writes_json_and_csv():
    # core owns how a result is spelled: jsonable, the JSON text and files,
    # and the csv.writer tables (engine's streamed trace CSV uses no csv)
    banned = {("json", "dump"), ("json", "dumps"), ("csv", "writer")}
    for path in sorted((SRC / "fbsim").glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in banned, f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
                names = {(node.module, alias.name) for alias in node.names}
                assert not names & banned, f"{path.name}:{node.lineno}"


def test_no_module_reads_a_private_name_of_another():
    # a _-prefixed name is its own module's: what two modules share has one
    # public owner (the exact-number coercion is core's as_fraction)
    modules = {p.stem for p in (SRC / "fbsim").glob("*.py")}
    for path in sorted((SRC / "fbsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fbsim")):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                names = [node.attr]
            else:
                continue
            assert not [n for n in names if n.startswith("_")], f"{path.name}:{node.lineno}"


def test_library_layout_names_exactly_the_modules():
    # README's module table lists every module of the package and no other,
    # so a retired module cannot linger in the docs
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Library layout\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `fbsim\.(\w+)` \|", table, re.MULTILINE)
    modules = sorted(p.stem for p in (SRC / "fbsim").glob("*.py") if p.name != "__init__.py")
    assert len(listed) == len(set(listed)) and sorted(listed) == modules


#: Exported names that no other module or demo reads: each is a type or value
#: that a caller of an exported function only receives or builds.
RECEIVED_ONLY = {
    "SwitchState": "the state engine's event handlers step; a caller driving them builds it",
    "AnalysisResult": "what steady_state and analyze_transient return",
    "RunMetrics": "what compute returns; the CLI reads its metrics.json payload",
    "CaseKind": "the case in analyze_transient's result and in each curve point",
    "INFEASIBLE": "a bound the alpha solvers return when no alpha works",
    "UNCONSTRAINED": "a bound the alpha solvers return when any alpha works",
    "PoissonFlows": "a source type a scenario is built from",
}


def test_every_export_has_a_caller():
    # each name the package exports is read by a demo or by a package module
    # other than its own, so the package holds no code that only the tests
    # call; the names in RECEIVED_ONLY are the listed exceptions
    init = SRC / "fbsim" / "__init__.py"
    demos = set().union(*map(_names_read, sorted((ROOT / "demos").glob("*.py"))))
    modules = {p.stem: _names_read(p) for p in sorted((SRC / "fbsim").glob("*.py")) if p != init}
    uncalled = set()
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            read = demos.union(*(names for stem, names in modules.items() if stem != node.module))
            uncalled.update(alias.name for alias in node.names if alias.name not in read)
    assert sorted(uncalled) == sorted(RECEIVED_ONLY)


def test_sources_parse_under_the_oldest_promised_python():
    # the tests may run on a newer Python than the oldest that pyproject.toml
    # promises (3.10), so every package module and demo is parsed under that
    # version's grammar
    promise = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    oldest = tuple(map(int, promise.groups()))
    assert oldest == (3, 10)
    for path in sorted((SRC / "fbsim").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=oldest)


def test_poisson_run_loads_only_the_standard_library(tmp_path):
    # a cold start that runs a Poisson scenario adds no module from outside
    # the standard library and fbsim to the interpreter
    scenario = tmp_path / "poisson.ini"
    scenario.write_text(_poisson_scenario_text("default"))
    code = (
        "import sys; before = set(sys.modules)\n"
        "from fbsim.cli import main\n"
        f"assert main(['run', '--scenario', {str(scenario)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(added - sys.stdlib_module_names - {'fbsim'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
