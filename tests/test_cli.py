"""CLI: subcommands, artifacts, exit codes, reproducibility."""

import ast
import concurrent.futures
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fbsim import cli, engine, fluid, workloads
from fbsim.cli import main
from fbsim.core import QueueId
from fbsim.fluid import (
    INFEASIBLE,
    UNCONSTRAINED,
    NewQueue,
    OldQueue,
    TransientScenario,
    alpha_bounds_general,
    congested_weights,
    integrate_transient,
    two_priority_incast,
)
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


def test_a_rerun_in_the_other_format_leaves_no_stale_metrics_table(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--preset", "fig2", "--out", str(out), "--format", "csv"]) == 0
    assert (out / "metrics.csv").exists()
    assert main(["run", "--preset", "fig5_incast", "--out", str(out)]) == 0
    assert not (out / "metrics.csv").exists()


def test_an_analysis_in_the_other_format_leaves_no_stale_file(tmp_path, capsys):
    out = tmp_path / "analysis"
    inline = ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4",
              "--out", str(out)]
    for fmt, other in (("csv", "json"), ("json", "csv"), ("csv", "json")):
        assert main([*inline, "--format", fmt]) == 0
        assert (out / f"analysis.{fmt}").exists()
        assert not (out / f"analysis.{other}").exists(), fmt


def _artifacts(directory) -> dict:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_a_rerun_into_a_used_out_writes_what_a_fresh_out_gets(tmp_path, monkeypatch, capsys):
    # artifacts are written over in place and cut to length, so a shorter
    # run into a directory that holds a longer run's files leaves no tail
    fig2 = preset("fig2")
    longer = tmp_path / "longer.ini"
    longer.write_text(dumps_scenario(replace(fig2, horizon=2 * fig2.horizon)))
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    assert main(["run", "--scenario", str(longer), "--out", str(used), "--format", "csv"]) == 0
    assert main(["run", "--preset", "fig2", "--out", str(used), "--format", "csv"]) == 0
    assert main(["run", "--preset", "fig2", "--out", str(fresh), "--format", "csv"]) == 0
    assert _artifacts(used) == _artifacts(fresh)

    # analyze writes its --out's curve path into the payload, so both runs
    # name the same relative --out, each from its own working directory
    inline = ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4",
              "--curve", "--out", "o"]
    for fmt in ("json", "csv"):
        used, fresh = tmp_path / f"used_{fmt}", tmp_path / f"fresh_{fmt}"
        used.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(used)
        assert main([*inline, "--t", "5", "--counts", "1,2,3,4,5,6", "--format", fmt]) == 0
        for cwd in (used, fresh):
            monkeypatch.chdir(cwd)
            assert main([*inline, "--counts", "1,2", "--format", fmt]) == 0
        assert _artifacts(used / "o") == _artifacts(fresh / "o"), fmt


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


@pytest.mark.parametrize("where", ["scenario", "cdf"])
def test_input_file_that_is_not_utf8_exits_2_before_the_run(where, tmp_path, capsys):
    # a scenario file or a size-CDF file that does not decode as UTF-8 is a
    # parse error naming the file, like one that cannot be read
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00")
    path = binary
    if where == "cdf":
        path = tmp_path / "poisson.ini"
        path.write_text(_poisson_scenario_text(binary))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert f"cannot read {binary}: not UTF-8" in err
    assert not out.exists()


def test_a_scenario_file_with_a_byte_order_mark_runs_as_the_plain_file(tmp_path, capsys):
    # a UTF-8 file may start with a byte-order mark; it once read as text
    # before the first section header, and the run exited 2
    plain = GOLDEN_SCENARIOS / "cs_overload.ini"
    marked = tmp_path / "bom.ini"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path, out in ((plain, "plain"), (marked, "marked")):
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / out)]) == 0
    written = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "marked").iterdir())
    for name in written:
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


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


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_a_horizon_whose_sample_count_overflows_exits_3_before_writing(command, tmp_path, capsys):
    # 9e307 / 0.5 is inf as a float: the cap on samples once took its floor
    # and ended in OverflowError
    text = (GOLDEN_SCENARIOS / "fba_period_0.ini").read_text()
    assert "horizon = 30.0" in text and "sample_interval = 0.5" in text
    huge = tmp_path / "huge.ini"
    huge.write_text(text.replace("horizon = 30.0", "horizon = 9e307"))
    out = tmp_path / "o"
    assert main([command, "--scenario", str(huge), "--out", str(out)]) == 3
    assert f"more than {MAX_RUN_STEPS} samples or ticks" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,out", [
    (["run", "--preset", "fig2"], "F"),
    (["run", "--preset", "fig2"], "F/sub"),
    (["run", "--preset", "fig2"], ""),
    (["analyze", "--preset", "fig4_incast"], "F"),
    (["analyze", "--preset", "fig4_incast"], ""),
    (["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4", "--curve"], "F"),
    (["sweep", "--preset", "fig4_incast", "--axis", "burst_size", "--values", "0.2,0.5"], "F"),
], ids=["run_file", "run_below_file", "run_empty", "analyze_file", "analyze_empty", "curve_file",
        "sweep_file"])
def test_an_out_that_cannot_be_a_directory_exits_3_before_writing(
        argv, out, tmp_path, monkeypatch, capsys):
    # F is an existing file; each command once ended in an OSError traceback,
    # except analyze with an empty --out, which wrote nothing and exited 0
    monkeypatch.chdir(tmp_path)  # so a file written under '' would land here
    (tmp_path / "F").write_text("kept\n")
    assert main([*argv, "--out", out]) == 3
    assert "--out" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["F"]
    assert (tmp_path / "F").read_text() == "kept\n"


# A directory squatting on an artifact, written or removed as stale, once
# ended in an IsADirectoryError traceback and exit 1.
_INLINE = ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4"]


def _assert_exits_3_naming(argv, squat, capsys):
    squat.mkdir(parents=True)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and repr(str(squat)) in err, err
    assert "Is a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("artifact,fmt", [
    ("scenario.lock", "json"), ("trace.csv", "json"), ("samples.csv", "json"),
    ("summary.json", "json"), ("metrics.json", "json"), ("metrics.csv", "csv"),
    ("metrics.csv", "json"),  # removed as stale after a json run
])
def test_a_directory_on_a_run_artifact_exits_3_naming_it(artifact, fmt, tmp_path, capsys):
    argv = ["run", "--preset", "fig2", "--out", str(tmp_path), "--format", fmt]
    _assert_exits_3_naming(argv, tmp_path / artifact, capsys)


@pytest.mark.parametrize("artifact,flags", [
    ("curve.csv", ["--curve"]), ("analysis.json", []), ("analysis.csv", ["--format", "csv"]),
    ("analysis.json", ["--format", "csv"]),  # removed as stale after a csv analysis
    ("analysis.csv", []),  # removed as stale after a json analysis
])
def test_a_directory_on_an_analysis_artifact_exits_3_naming_it(artifact, flags, tmp_path, capsys):
    argv = [*_INLINE, *flags, "--out", str(tmp_path)]
    _assert_exits_3_naming(argv, tmp_path / artifact, capsys)


@pytest.mark.parametrize("artifact", ["index.csv", "run_001/trace.csv"])
def test_a_directory_on_a_sweep_artifact_exits_3_naming_it(artifact, tmp_path, capsys):
    argv = ["sweep", "--preset", "fig4_incast", "--axis", "burst_size", "--values", "0.2,0.5",
            "--out", str(tmp_path)]
    _assert_exits_3_naming(argv, tmp_path / artifact, capsys)


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
    (["--preset", "fig4_incast", "--scheme", "dt"], "--scheme sets the inline scenario or the --curve"),
    *((["--preset", "fig4_incast", flag, value], f"{flag} sets the inline scenario;")
      for flag, value in (("--n-low", "3"), ("--n-low", "0"), ("--low-per-port", "2"), ("--n-new", "2"))),
])
def test_analyze_refuses_flags_it_would_not_read(flags, message, capsys):
    # a steady scenario has no burst to bound the alphas for, a scenario's
    # bursts carry their own rate, and its buffer, alphas and scheme are its
    # own unless --curve reads them, and its queue counts always: each flag
    # would be dropped (the counts and the scheme once were, with exit 0)
    assert main(["analyze", *flags]) == 3
    assert f"validation error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", [[], ["--scheme", "dt"]])
def test_analyze_scenario_takes_curve_flags_with_curve(scheme, tmp_path, capsys):
    assert main(["analyze", "--preset", "fig4_incast", "--buffer", "60", "--alpha-l", "1/2",
                 "--alpha-h", "20", *scheme, "--curve", "--out", str(tmp_path / "out")]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()
    assert payload["t1"] == 2 and rows[1].startswith(f"{scheme[-1] if scheme else 'fb'},")


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
    ["analyze", "--buffer", "abc", "--alpha-l", "1", "--alpha-h", "2", "--r", "4"],
    ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4", "--n-low", "x"],
    ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4",
     "--low-per-port", "1.5"],
    ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4", "--n-new", "x"],
    ["configure-alpha", "--buffer", "60.5", "--r", "4"],
    ["configure-alpha", "--buffer", "60", "--r", "4", "--num", "x"],
    ["run", "--preset", "fig2", "--seed", "x"],
    ["run", "--preset", "fig2", "--fba-period", "x"],
    ["sweep", "--preset", "fig4_incast", "--axis", "load", "--values", "1", "--parallel", "x"],
], ids=["abc", "one_over_zero", "alphas", "zero_over_zero", "counts",
        "sweep_one_over_zero", "sweep_abc", "sweep_fractional_count", "buffer", "n_low",
        "low_per_port", "n_new", "configure_buffer", "num", "seed", "fba_period", "parallel"])
def test_malformed_number_exits_2(argv, tmp_path, capsys):
    # every numeric flag, the counts included, is read by one parser: a
    # malformed one returns 2 with the flag named, not argparse's usage text
    needs_out = argv[0] in ("run", "sweep") or "--curve" in argv
    assert main(argv + (["--out", str(tmp_path)] if needs_out else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: --") and "usage" not in err


_OVERFLOW = ["--buffer", "60", "--r", "4"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2", "--r", "4", "--t", "1e-308"],
    ["configure-alpha", *_OVERFLOW, "--t", "1e-308"],
    ["configure-alpha", "--buffer", "60", "--r", "1e400"],
    ["configure-alpha", *_OVERFLOW, "--t", "5", "--alpha-l", "1e400"],
    ["configure-alpha", *_OVERFLOW, "--t", "5", "--alphas", "1e400"],
], ids=["analyze_t", "configure_t", "configure_r", "configure_alpha_l", "configure_alphas"])
def test_a_result_past_float_range_exits_3(argv, capsys):
    # an exact result that no float holds is a validation error, not an
    # OverflowError out of the JSON writer (once a traceback and exit 1)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"validation error: \S+ is too large for a float\n", captured.err)


@pytest.mark.parametrize("argv", [
    ["configure-alpha", *_OVERFLOW, "--t", "5", "--alpha-l", "1e-400"],
    ["configure-alpha", *_OVERFLOW, "--t", "5", "--alphas", "1e-400"],
], ids=["configure_alpha_l", "configure_alphas"])
def test_a_positive_result_that_rounds_to_0_exits_3(argv, capsys):
    # a positive exact result below float range is a validation error, not a
    # silent 0.0 in the JSON, as a scenario file's field would be
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: 1.000e-400 is too small for a float: it rounds to 0.0\n"


@pytest.mark.parametrize("axis,value,preset_name", [
    ("load", "0", "fig4_incast"), ("n_low_queues", "0", "dt_scaling"),
])
def test_out_of_range_sweep_value_exits_3(axis, value, preset_name, tmp_path, capsys):
    argv = ["sweep", "--preset", preset_name, "--axis", axis, "--values", f"1,{value}"]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert "validation error" in capsys.readouterr().err


_LIMIT = str(fluid.MAX_INCAST_QUEUES)  # one low port or new queue past it overflows


@pytest.mark.parametrize("flags", [
    ["analyze", "--n-low", _LIMIT],
    ["analyze", "--low-per-port", _LIMIT],
    ["analyze", "--n-new", _LIMIT],
    ["analyze", "--curve", "--counts", f"1,{_LIMIT}", "--out", "curve"],
    ["configure-alpha", "--num", _LIMIT, "--t", "5"],
], ids=["n_low", "low_per_port", "n_new", "curve_counts", "num"])
def test_an_incast_past_the_queue_limit_exits_3(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inline = ["--alpha-l", "1", "--alpha-h", "2"] if flags[0] == "analyze" else []
    assert main([*flags, "--buffer", "60", "--r", "4", *inline]) == 3
    captured = capsys.readouterr()
    assert f"more than {_LIMIT}\n" in captured.err and captured.out == ""
    assert not (tmp_path / "curve").exists()


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


@pytest.mark.parametrize("old, new, field", [
    ("rate=1 start=0 stop=inf", "rate=1 start=1e400 stop=inf", "source 0 start"),
    ("duration=5 start=3", "duration=1e400 start=3", "source 2 duration"),
    ("start=1/8 stop=inf", "start=1/8 stop=1e400", "source 1 stop"),
    ("2 = alpha=2 priority=1", "2 = alpha=1e400 priority=1", "class 2 alpha"),
], ids=["start", "duration", "stop", "alpha"])
def test_a_number_too_large_for_a_float_exits_3(old, new, field, tmp_path, capsys):
    text = (GOLDEN_SCENARIOS / "fba_period_0.ini").read_text()
    assert text.count(old) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, new))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"validation error: {field} is too large for a float\n"
    assert not out.exists()


def _huge_burst_stop(text):
    # start and duration each fit a float, but their sum does not
    text = text.replace("horizon = 30.0", "horizon = 1e308")
    text = text.replace("sample_interval = 0.5", "sample_interval = 1e302")
    head, _, tail = text.partition("[sources]\n")
    return (head + "[sources]\n0 = burst class=0 port=0 r=1e-307 duration=1e308 start=9e307\n"
            + tail[tail.index("\n[initial]"):])


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace(
        "[initial]", "3 = poisson class=0 port=1 mean_interarrival=5 flow_rate=1e-400\n\n[initial]"),
     "source 3 flow_rate is too small for a float: it rounds to 0.0"),
    (_huge_burst_stop, "source 0 stop is too large for a float"),
], ids=["poisson_flow_rate_rounds_to_0", "burst_stop"])
def test_a_number_without_a_faithful_float_exits_3_before_writing(edit, message, tmp_path,
                                                                   capsys):
    text = (GOLDEN_SCENARIOS / "fba_period_0.ini").read_text()
    bad = tmp_path / "bad.ini"
    bad.write_text(edit(text))
    assert bad.read_text() != text
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


def test_a_run_over_the_arrival_cap_exits_3_before_writing(tmp_path, capsys):
    # a rate-10**7 constant source over horizon 30 sends 3 * 10**8 packets
    text = (GOLDEN_SCENARIOS / "fba_period_0.ini").read_text()
    old = "0 = constant class=0 port=1 rate=1 start=0"
    assert text.count(old) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, "0 = constant class=0 port=1 rate=10000000 start=0"))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 3
    assert f"more than {MAX_RUN_STEPS} packets" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_inline_case2(capsys):
    assert main([
        "analyze", "--buffer", "60", "--alpha-l", "1", "--alpha-h", "2",
        "--r", "10", "--n-low", "3",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "case2"
    assert payload["t1"] == pytest.approx(20 / 7)
    assert payload["burst_tolerance"] == pytest.approx(200 / 7)


@pytest.mark.parametrize("r", ["1/2", "1"])
def test_analyze_a_burst_the_new_queue_drains_needs_no_alpha_h(r, capsys):
    # the new queue drains at 1, so at r <= 1 it never fills and no alpha_H
    # is needed; the bound once printed -6/203 at r = 1/2 and 0 at r = 1
    assert main(["analyze", "--buffer", "100", "--alpha-l", "1", "--alpha-h", "2",
                 "--r", r, "--t", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha_bounds"]["alpha_H_min"] == "unconstrained"
    assert _solver_t1(two_priority_incast(100, 1, Fraction(1, 10**6), Fraction(r))) == float("inf")


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


@pytest.mark.parametrize("flags, frontier, zero_transient, used, alpha_h", [
    (["--buffer", 200, "--r", 6, "--t", 20, "--num", 3], 4, Fraction(3, 2), Fraction(3, 2),
     Fraction(5, 2)),
    (["--buffer", 60, "--r", 4, "--t", 17], Fraction(13, 17), Fraction(1, 2), Fraction(13, 34),
     Fraction(47, 6)),
    (["--buffer", 60, "--r", 4, "--t", 5, "--num", 3], UNCONSTRAINED, UNCONSTRAINED, 0,
     Fraction(1, 3)),
], ids=["zero_transient_smaller", "half_frontier_smaller", "both_unconstrained"])
def test_configure_alpha_default_lies_below_the_frontier(flags, frontier, zero_transient, used,
                                                         alpha_h, monkeypatch):
    # the frontier is a strict bound, so the default is half of it or the
    # zero-transient bound, whichever is smaller; on FB's NUM-port incast
    # both are unconstrained exactly when r <= NUM + 1, where the default
    # is 0
    payload = _printed(monkeypatch, ["configure-alpha", *flags])
    assert payload["alpha_L_max_for_burst"] == frontier
    assert payload["alpha_L_zero_transient"] == zero_transient
    assert (payload["alpha_L_used"], payload["alpha_H_min"]) == (used, alpha_h)


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


@pytest.mark.parametrize("flags, message", [
    (["--buffer", "0", "--r", "4"], "--buffer must be >= 1, got 0"),
    (["--buffer", "-5", "--r", "4"], "--buffer must be >= 1, got -5"),
    (["--buffer", "0", "--r", "4", "--t", "5"], "--buffer must be >= 1, got 0"),
    (["--buffer", "100", "--r", "1", "--t", "5"], "r must exceed the port drain rate (r > 1)"),
    (["--buffer", "60", "--r", "1.0000000000000000000000001", "--t", "5"],
     "r must exceed the port drain rate (r > 1) as a float: it rounds to 1.0"),
    (["--buffer", "60", "--r", "4", "--num", "0"], "--num must be >= 1, got 0"),
    (["--buffer", "60", "--r", "4", "--num", "-2"], "--num must be >= 1, got -2"),
    (["--buffer", "60", "--r", "0"], "arrival rate r must be > 0"),
    (["--buffer", "60", "--r", "-1"], "arrival rate r must be > 0"),
    (["--buffer", "60", "--r", "4", "--t", "5", "--alpha-l", "-1"],
     "the low alpha must be >= 0, got -1"),
    (["--buffer", "60", "--r", "4", "--t", "5", "--alphas", "1,-2"],
     "the low alpha must be >= 0, got -1"),
], ids=["zero_buffer", "negative_buffer", "zero_buffer_with_t", "r_of_one",
        "r_whose_float_is_1", "zero_num", "negative_num", "zero_r", "negative_r",
        "negative_alpha_l", "negative_alphas"])
def test_configure_alpha_refuses_out_of_range_input(flags, message, capsys):
    assert main(["configure-alpha", *flags]) == 3
    captured = capsys.readouterr()
    assert f"validation error: {message}\n" == captured.err and captured.out == ""


def _printed(monkeypatch, argv):
    """The payload a command hands to json_text: the numbers it prints, as
    the exact Fractions they round."""
    printed = []
    monkeypatch.setattr(cli, "json_text", lambda value, compact=False: printed.append(value) or "")
    assert main([str(a) for a in argv]) == 0
    return printed[-1]


def _solver_t1(ts):
    return integrate_transient(ts).t1


def _incast(buffer_size, alpha_l, alpha_h, r, num=1):
    """configure-alpha's incast: NUM low FB ports at alpha_L, none at alpha_L 0."""
    return two_priority_incast(buffer_size, alpha_l, alpha_h, r,
                               n_low_ports=num if alpha_l else 0)


def _with_old_weight(ts, w_old, alpha_h):
    """``ts`` with its old weights, before and during the burst, scaled to
    sum to ``w_old`` and its new queues at ``alpha_h``."""
    scale = w_old / sum(q.omega for q in ts.old)
    return replace(ts, old=tuple(replace(q, omega=q.omega * scale, omega_before=q.omega_before * scale)
                                 for q in ts.old),
                   new=tuple(replace(q, omega=alpha_h * q.factor) for q in ts.new))


def test_configure_alpha_plugged_back_meets_t_in_both_regimes(monkeypatch):
    # seeded incasts of NUM = 1-4 low FB ports in both regimes, r <= NUM+1
    # among them, with alpha_L from 0 to 95% of the frontier or left to the
    # default: the printed alpha_H_min, put into the exact solver, meets t
    # exactly on NUM ports and never crosses before t on NUM+1 and NUM+2; an
    # infeasible one loses the burst even at alpha_H = 10**6, as does an
    # alpha_L 1% past the frontier; the frontier is infeasible when
    # B <= (r-1)t, else B/((r-1-NUM)t) - 1 for r > NUM+1, unconstrained for
    # r <= NUM+1; the zero-transient bound is NUM/(r-(NUM+1)); and below a
    # positive frontier the default alpha_L is always feasible
    rng = random.Random(77)
    seen = set()
    for _ in range(400):
        b, r = rng.randint(60, 3000), Fraction(rng.randint(11, 60), 10)
        t = Fraction(rng.randint(5, 150), 100) * b / r
        num = rng.randint(1, 4)
        fill = r - 1 - num  # Q' in Case-2
        frontier = (INFEASIBLE if b <= (r - 1) * t else
                    b / (fill * t) - 1 if fill > 0 else UNCONSTRAINED)
        flags = ["--buffer", b, "--r", r, "--t", t, "--num", num]
        default = rng.random() >= 0.8
        if not default:
            top = frontier if isinstance(frontier, Fraction) else Fraction(rng.randint(1, 40), 4)
            flags += ["--alpha-l", top * Fraction(rng.randint(0, 95), 100)]
        payload = _printed(monkeypatch, ["configure-alpha", *flags])
        assert payload["alpha_L_max_for_burst"] == frontier
        assert payload["alpha_L_zero_transient"] == (num / fill if fill > 0 else UNCONSTRAINED)
        alpha_l, alpha_h = payload["alpha_L_used"], payload["alpha_H_min"]
        if alpha_h is INFEASIBLE:
            assert _solver_t1(_incast(b, alpha_l, 10**6, r, num)) < t
        else:
            assert _solver_t1(_incast(b, alpha_l, alpha_h, r, num)) == t
            for more in (num + 1, num + 2):
                assert _solver_t1(_incast(b, alpha_l, alpha_h, r, more)) >= t
        if isinstance(frontier, Fraction):
            assert _solver_t1(_incast(b, frontier * Fraction(101, 100), 10**6, r, num)) < t
            if default:
                assert 0 < alpha_l < frontier and alpha_h is not INFEASIBLE
        seen |= {("case1", fill <= 0 or alpha_l <= num / fill), ("r<=NUM+1", fill <= 0),
                 ("alpha_L 0", alpha_l == 0), ("infeasible", alpha_h is INFEASIBLE),
                 ("NUM", num)}
    assert seen == {(kind, value) for kind in ("case1", "r<=NUM+1", "alpha_L 0", "infeasible")
                    for value in (False, True)} | {("NUM", num) for num in range(1, 5)}


def test_configure_alpha_multi_priority_plugged_back_never_crosses_before_t(monkeypatch):
    # seeded layouts with 1-3 lower priorities, each with 1-3 queues over
    # 1-3 shared ports (one at the priority's alpha maximum, the others at
    # 1/4 to all of it), under FB weights, and a burst on its own port and
    # priority: the alpha_H_min printed for --alphas holds on every layout
    rng = random.Random(31)
    solved = exact = 0
    burst = QueueId(0, 99)
    for _ in range(200):
        b, r, t = rng.randint(60, 400), Fraction(rng.randint(21, 80), 10), Fraction(rng.randint(1, 40), 4)
        low, maxima, ports = {}, [], rng.randint(1, 3)
        for prio in range(rng.randint(1, 3)):
            maxima.append(Fraction(rng.randint(1, 12), 4))
            for k in range(rng.randint(1, 3)):
                alpha = maxima[-1] * (1 if k == 0 else Fraction(rng.randint(1, 4), 4))
                low[QueueId(100 + rng.randrange(ports), 10 * prio + k)] = (prio, alpha)
        payload = _printed(monkeypatch, ["configure-alpha", "--buffer", b, "--r", r, "--t", t,
                                         "--alphas", ",".join(map(str, maxima))])
        alpha_h = payload["alpha_H_min"]
        if alpha_h is INFEASIBLE:
            continue
        weights = congested_weights({**low, burst: (99, alpha_h)}, fb=True)
        ts = TransientScenario(b, tuple(OldQueue(q, *weights[q][:2]) for q in low),
                               (NewQueue(burst, *weights[burst]),), r)
        t1 = _solver_t1(ts)
        assert t1 >= t, (b, r, t, maxima)
        solved += 1
        exact += t1 == t
    assert solved >= 150 and exact >= 10


@pytest.mark.parametrize("flags, alpha_l, alpha_h", [
    (["--buffer", 79, "--r", "11/5", "--t", "13/2", "--alpha-l", "1/2"],
     Fraction(1, 2), Fraction(117, 712)),
    (["--buffer", 60, "--r", "3/2", "--t", 5], 0, Fraction(1, 23)),
    (["--buffer", 50, "--r", 2, "--t", 100, "--alpha-l", 1], 1, INFEASIBLE),
    (["--buffer", 25, "--r", 4, "--t", 10, "--alpha-l", "1/8"], Fraction(1, 8), INFEASIBLE),
], ids=["case1_alpha_l", "default_below_r_2", "window_r_2", "infeasible_case1"])
def test_configure_alpha_case1_bounds_hold(flags, alpha_l, alpha_h, monkeypatch):
    # Case-1 incasts where the paper's Case-2 forms let the burst cross
    # early (alpha_H_min 234/1541, 0.04, 4 and 13.5): each bound meets t
    # exactly, or no alpha_H of 10**6 saves the burst
    payload = _printed(monkeypatch, ["configure-alpha", *flags])
    b, r, t = (Fraction(str(flags[i])) for i in (1, 3, 5))
    assert (payload["alpha_L_used"], payload["alpha_H_min"]) == (alpha_l, alpha_h)
    if alpha_h is INFEASIBLE:
        assert _solver_t1(_incast(b, alpha_l, 10**6, r)) < t
    else:
        assert _solver_t1(_incast(b, alpha_l, alpha_h, r)) == t


@pytest.mark.parametrize("argv, ts, t, frontier", [
    (["--preset", "fig5_incast", "--t", 3],
     workloads.transient_scenario(preset("fig5_incast")), 3, Fraction(17, 3)),
    (["--buffer", 120, "--alpha-l", 1, "--alpha-h", 2, "--n-low", 2, "--low-per-port", 3,
      "--n-new", 2, "--r", 4, "--t", 5],
     two_priority_incast(120, 1, 2, 4, n_low_ports=2, low_queues_per_port=3, n_new=2), 5, 5),
], ids=["fig5_incast", "inline_fb_case1"])
def test_analyze_frontier_holds_from_case1(argv, ts, t, frontier, monkeypatch):
    # both scenarios are Case-1 at their own alpha_L, where the frontier
    # read "unconstrained": past it even alpha_H = 10**6 loses the burst,
    # and just inside it alpha_H_min meets t exactly
    bounds = _printed(monkeypatch, ["analyze", *argv])["alpha_bounds"]
    assert bounds["case"].value == "case1"
    assert bounds["alpha_L_max_for_burst"] == frontier
    assert _solver_t1(_with_old_weight(ts, frontier * Fraction(101, 100), 10**6)) < t
    inside = _with_old_weight(ts, frontier * Fraction(99, 100), 1)
    alpha_h = alpha_bounds_general(inside, t).alpha_H_min
    assert _solver_t1(_with_old_weight(inside, frontier * Fraction(99, 100), alpha_h)) == t


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
    # runs must start two; the fake maps in this process and starts none.
    # The sweep imports concurrent.futures when it forks, so the fake goes
    # on that module
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


def test_the_two_fluid_routes_share_no_arithmetic():
    # the closed forms and the solver check each other only while neither
    # computes through the other's code, so each has its own exact
    # arithmetic: no closed-form function reaches a solver name, through the
    # module's functions it calls, and no solver function reaches _scaled
    tree = ast.parse((SRC / "fbsim" / "fluid.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reached(name):
        names, todo = set(), [name]
        while todo:
            read = _names_in(functions[todo.pop()])
            todo += [n for n in read - names if n in functions]
            names |= read
        return names

    closed_forms = ("_closed_form", "steady_state", "analyze_transient", "alpha_bounds_general",
                    "burst_absorption_curve")
    solver = {"_over_lcm", "_solve_total_rate", "integrate_transient", "TransientTrajectories"}
    for name in closed_forms:
        assert not reached(name) & solver, name
    for name in ("_closed_form", "steady_state"):
        assert "_scaled" in reached(name), name
    for name in ("integrate_transient", "_solve_total_rate"):
        assert "_scaled" not in reached(name), name
    assert "_over_lcm" in reached("integrate_transient")


def test_the_closed_form_builds_no_fraction_itself():
    # _closed_form returns the ints it computed and each reported Fraction is
    # built by the record when read, so a reader pays only for what it reads:
    # its body names no Fraction and does no arithmetic on a scenario field
    # that holds one (a field or property of the three scenario types whose
    # annotation names Fraction)
    tree = ast.parse((SRC / "fbsim" / "fluid.py").read_text())
    exact = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in ("OldQueue", "NewQueue", "TransientScenario"):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and "Fraction" in ast.unparse(node.annotation):
                    exact.add(node.target.id)
                elif isinstance(node, ast.FunctionDef) and "Fraction" in ast.unparse(node.returns):
                    exact.add(node.name)
    assert {"r", "omega", "gamma", "omega_before"} <= exact
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_closed_form")
    assert "Fraction" not in _names_in(body)
    for node in ast.walk(body):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.target, node.value)
        else:
            continue
        assert not [o for o in operands if isinstance(o, ast.Attribute) and o.attr in exact], \
            f"fluid.py:{node.lineno}: {ast.unparse(node)}"


def test_the_solver_builds_fractions_only_on_return():
    # the solver stays in ints from _over_lcm to the record it returns:
    # neither integrate_transient, its breakpoint loop included, nor the
    # total-rate solve names Fraction; the record builds the Fractions, t1
    # at construction and the first crossings when read
    tree = ast.parse((SRC / "fbsim" / "fluid.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("integrate_transient", "_solve_total_rate"):
        assert "Fraction" not in _names_in(functions[name]), name
    record = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "TransientTrajectories")
    methods = {node.name: node for node in record.body if isinstance(node, ast.FunctionDef)}
    for name in ("__init__", "first_crossing"):
        assert "Fraction" in _names_in(methods[name]), name


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


def test_every_value_type_converts_its_fields_by_their_annotations():
    # every frozen dataclass with a __post_init__ calls convert_fields(self),
    # and no call names a field: each field's kind is written only in its
    # annotation, so no hand-kept list can miss one
    def frozen(cls):
        return any(k.arg == "frozen" and ast.literal_eval(k.value) is True
                   for d in cls.decorator_list if isinstance(d, ast.Call) for k in d.keywords)

    def rule_calls(node):
        return [[ast.unparse(a) for a in call.args] for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "convert_fields"]

    value_types = []
    for path in sorted((SRC / "fbsim").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert all(args == ["self"] for args in rule_calls(tree)), path.name
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and frozen(node)):
            for post in (f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"):
                value_types.append(cls.name)
                assert rule_calls(post) == [["self"]], cls.name
    assert sorted(value_types) == sorted([
        "TrafficClass", "QueueId", "OldQueue", "NewQueue", "TransientScenario",
        "ConstantRate", "Burst", "PoissonFlows", "ScenarioConfig",
    ])


def test_sources_never_read_the_decoded_trace_views():
    # records and samples decode the whole packed trace into tuples; the
    # package reads the records themselves, or rows(), and the occupancy array
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


def _opens_for_writing(node) -> bool:
    """Whether ``node`` is an ``open`` call whose mode writes, or an
    ``os.open`` call whose flags write, to any path but ``os.devnull``."""
    if not isinstance(node, ast.Call):
        return False
    if getattr(node.func, "id", None) == "open":
        mode = node.args[1] if len(node.args) > 1 else \
            next((k.value for k in node.keywords if k.arg == "mode"), None)
        return mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
    if ast.unparse(node.func) == "os.open":
        if node.args and ast.unparse(node.args[0]) == "os.devnull":
            return False  # writes no file (the closed-pipe recipe)
        flags = ast.unparse(node.args[1]) if len(node.args) > 1 else ""
        return any(f in flags for f in ("O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"))
    return False


def test_only_the_core_module_writes_json_and_csv():
    # core owns how a result is spelled: jsonable, the JSON text and files,
    # and write_csv, the one CSV writer, which every table and the streamed
    # trace and samples go through; no module imports csv, whose writer
    # allocates a 128 KiB record buffer per table; and core.open_output is
    # the one way a file is opened for output
    banned = {("json", "dump"), ("json", "dumps")}
    for path in sorted((SRC / "fbsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.Import):
                assert "csv" not in {alias.name for alias in node.names}, where
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "csv", where
            if path.name == "core.py":
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in banned, where
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                assert not {(node.module, alias.name) for alias in node.names} & banned, where
            assert not _opens_for_writing(node), where
    core = ast.parse((SRC / "fbsim" / "core.py").read_text())
    writers = [f.name for f in ast.walk(core) if isinstance(f, ast.FunctionDef)
               and any(_opens_for_writing(n) for n in ast.walk(f))]
    assert writers == ["open_output"]


def test_no_module_reads_with_configparser_or_indents_with_json_dumps():
    # scenario text has its own reader (workloads._read_sections) and the
    # indented JSON its own writer (core.json_text): a ConfigParser costs
    # more to build than a small file costs to read, and json.dumps with
    # indent runs the stdlib's pure-Python encoder
    for path in sorted((SRC / "fbsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                assert "configparser" not in {a.name for a in node.names}, f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "configparser", f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps":
                assert "indent" not in {k.arg for k in node.keywords}, f"{path.name}:{node.lineno}"


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
    "SwitchState": "the state engine.run builds and steps and controller_tick receives",
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


def test_every_text_open_names_its_encoding():
    # artifacts are byte-identical and inputs read alike on any locale only
    # while no text-mode open falls back to the locale's encoding
    opens = 0
    for path in sorted((SRC / "fbsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                mode = node.args[1] if len(node.args) > 1 else None
                binary = isinstance(mode, ast.Constant) and "b" in mode.value
                assert binary or "encoding" in {k.arg for k in node.keywords}, \
                    f"{path.name}:{node.lineno}"
                opens += 1
    assert opens >= 2  # core.open_output (binary, wrapped as UTF-8 text) and _read_text


def test_poisson_run_loads_only_the_standard_library(tmp_path):
    # a cold start that runs a Poisson scenario adds no module from outside
    # the standard library and fbsim to the interpreter, and does not load
    # concurrent.futures, which only a parallel sweep needs
    scenario = tmp_path / "poisson.ini"
    scenario.write_text(_poisson_scenario_text("default"))
    code = (
        "import sys; before = set(sys.modules)\n"
        "from fbsim.cli import main\n"
        f"assert main(['run', '--scenario', {str(scenario)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "assert 'concurrent.futures' not in set(sys.modules) - before\n"
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(added - sys.stdlib_module_names - {'fbsim'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
