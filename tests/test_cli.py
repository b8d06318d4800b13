import json
import subprocess
import sys

import numpy as np
import pytest

from cv_arbiter import diagnostics
from cv_arbiter.cli import main


def _capture(capsys):
    out = capsys.readouterr()
    return out.out


def test_prop1_emits_json(capsys):
    rc = main(["prop1", "--n", "20", "--n1", "10", "--reps", "2000", "--seed", "4", "--verify"])
    assert rc == 0
    payload = json.loads(_capture(capsys))
    assert payload["n"] == 20 and payload["n1"] == 10
    assert 0.0 <= payload["selection_prob"] <= 1.0
    assert payload["d_tilde_checks"]["signs_agree"] is True
    assert payload["d_tilde_checks"]["worst_rel_error"] <= 1e-9


def test_select_subcommand(tmp_path, capsys):
    x = np.linspace(0, 1, 60)
    path = tmp_path / "line.csv"
    path.write_text("".join(f"{a},{1 + 2 * a}\n" for a in x))
    rc = main([
        "select", "--data", str(path), "--procs", "poly:1,poly:2",
        "--scheme", "rsv:10", "--schedule", "ratio:5:5", "--seed", "2",
    ])
    assert rc == 0
    report = json.loads(_capture(capsys))
    assert report["winner"] == "poly:1"
    assert report["votes"]["poly:1"] == 10


def test_select_disqualifies_spline_on_adjacent_float_knots(tmp_path, capsys):
    x, y = 1 + 2.0**-52 * np.arange(60), np.sin(np.arange(60.0))
    path = tmp_path / "ulps.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    rc = main([
        "select", "--data", str(path), "--procs", "mean,spline",
        "--scheme", "rlt:5", "--schedule", "ratio:5:5", "--seed", "0",
    ])
    assert rc == 0
    report = json.loads(_capture(capsys))
    assert report["winner"] == "mean"
    assert report["disqualified"]["spline"].startswith("RankDeficient")


def test_select_missing_file_is_config_error(tmp_path):
    rc = main([
        "select", "--data", str(tmp_path / "nope.csv"), "--procs", "poly:1",
        "--scheme", "single", "--schedule", "ratio:5:5", "--seed", "0",
    ])
    assert rc == 2


def test_select_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2\nfoo,bar\n" + "".join(f"{i/40},{i/40}\n" for i in range(40)))
    rc = main([
        "select", "--data", str(path), "--procs", "poly:1",
        "--scheme", "single", "--schedule", "ratio:5:5", "--seed", "0",
    ])
    assert rc == 2


def test_simulate_roundtrip_and_exit_codes(tmp_path, capsys):
    config = {
        "cases": ["case1"],
        "procedures": ["poly:1", "poly:2"],
        "schemes": ["single"],
        "schedules": ["ratio:5:5"],
        "n_grid": [40],
        "reps": 2,
        "master_seed": 5,
        "threads": 1,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out_prefix = tmp_path / "results" / "run"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out_prefix)])
    assert rc == 0
    csv_text = open(str(out_prefix) + ".csv").read()
    assert csv_text.splitlines()[0].startswith("case,n,n1,n2")
    assert (tmp_path / "results" / "run.json").exists()

    # bad config exits 2
    cfg.write_text(json.dumps({**config, "schemes": ["hold-out"]}))
    assert main(["simulate", "--config", str(cfg)]) == 2

    # a grid whose only procedure cannot ever fit exits 3, table still written
    cfg.write_text(
        json.dumps({**config, "procedures": ["spline"], "schedules": ["n1:5"]})
    )
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "err")])
    assert rc == 3
    assert (tmp_path / "err.json").exists()


def _simulate_config(tmp_path, **overrides):
    config = {
        "cases": ["case1"],
        "procedures": ["poly:1", "poly:2"],
        "schemes": ["single"],
        "schedules": ["ratio:5:5"],
        "n_grid": [40],
        "reps": 2,
        "master_seed": 5,
        "threads": 1,
        **overrides,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return str(cfg)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"reps": "2"}, "reps must be an integer"),
        ({"n_grid": ["100"]}, "grid sizes must be integers"),
        ({"n_grid": [100.5]}, "grid sizes must be integers"),
        ({"threads": True}, "threads must be a positive integer"),
        ({"cases": [1]}, "cases must be a list of id strings"),
        ({"output": 5}, "output must be a path prefix string"),
        ({"master_seed": "x"}, "master_seed must be an integer"),
        ({"master_seed": [1, 2]}, "master_seed must be an integer"),
        ({"master_seed": True}, "master_seed must be an integer"),
    ],
)
def test_simulate_rejects_mistyped_config(tmp_path, capsys, overrides, message):
    rc = main(["simulate", "--config", _simulate_config(tmp_path, **overrides)])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_simulate_writes_the_config_output_unless_out_is_given(tmp_path, capsys):
    prefix = tmp_path / "from-config"
    cfg = _simulate_config(tmp_path, output=str(prefix))
    assert main(["simulate", "--config", cfg]) == 0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"wrote {prefix}.csv and {prefix}.json\n"
    assert open(f"{prefix}.csv").read().startswith("case,n,n1,n2")
    for suffix in (".csv", ".json"):
        (tmp_path / f"from-config{suffix}").unlink()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag.csv").exists() and (tmp_path / "flag.json").exists()
    assert not (tmp_path / "from-config.csv").exists()


def test_simulate_keeps_valid_cells_when_kfold_exceeds_n(tmp_path):
    cfg = _simulate_config(tmp_path, schemes=["kfold-a:150"], n_grid=[100, 200], reps=1)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "kf")])
    assert rc == 3
    rows = [line.split(",") for line in open(tmp_path / "kf.csv").read().splitlines()[1:]]
    by_n = {}
    for row in rows:
        by_n.setdefault(row[1], []).append(row)
    assert all(row[7] == "nan" and row[8] == "0" for row in by_n["100"])
    assert sum(float(row[7]) for row in by_n["200"]) == pytest.approx(1.0)
    cells = json.loads(open(tmp_path / "kf.json").read())["rows"]
    assert cells[0]["excluded"] and "kfold r=150 exceeds n=100" in cells[0]["note"]


def test_simulate_keeps_valid_cells_when_exhaustive_exceeds_cap(tmp_path):
    cfg = _simulate_config(tmp_path, schemes=["exhaustive-a"], n_grid=[10, 60], reps=2)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "ex")])
    assert rc == 3
    rows = [line.split(",") for line in open(tmp_path / "ex.csv").read().splitlines()[1:]]
    assert all(row[7] == "nan" and row[8] == "0" for row in rows if row[1] == "60")
    assert sum(float(row[7]) for row in rows if row[1] == "10") == pytest.approx(1.0)
    cells = json.loads(open(tmp_path / "ex.json").read())["rows"]
    assert not cells[0]["excluded"]
    assert cells[1]["excluded"] and "ExhaustiveTooLarge" in cells[1]["error"]


def test_diagnose_subcommand(capsys):
    rc = main([
        "diagnose", "--proc", "poly:1", "--proc", "poly:2", "--case", "case2",
        "--n", "60", "--reps", "50", "--seed", "1",
    ])
    assert rc == 0
    payload = json.loads(_capture(capsys))
    assert payload["procedures"] == ["poly:1", "poly:2"]
    assert payload["better_prob"] is not None


def test_plot_subcommand(tmp_path, capsys):
    config = {
        "cases": ["case2"],
        "procedures": ["poly:1", "poly:2"],
        "schemes": ["single", "rlt:5"],
        "schedules": ["ratio:5:5"],
        "n_grid": [40, 80],
        "reps": 3,
        "master_seed": 6,
        "threads": 1,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    rc = main(["plot", "--in", str(tmp_path / "t.json"), "--out", str(tmp_path / "plots")])
    assert rc == 0
    assert (tmp_path / "plots" / "case2_ratio-5-5.svg").exists()
    assert (tmp_path / "plots" / "case2_ratio-5-5.txt").exists()


@pytest.mark.parametrize("payload", ["{}", "[1]", '{"procedures": [], "master_seed": 1, "rows": [{}]}'])
def test_plot_rejects_malformed_table(tmp_path, capsys, payload):
    table = tmp_path / "table.json"
    table.write_text(payload)
    rc = main(["plot", "--in", str(table), "--out", str(tmp_path / "plots")])
    assert rc == 2
    assert "bad table fields" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()


def test_plot_rejects_mistyped_winners(tmp_path, capsys):
    row = {
        "case": "case1", "n": 40, "n1": 20, "n2": 20, "schedule": "ratio:5:5",
        "scheme": "single", "reps": 2, "winners": "ab", "disqualified": {},
        "excluded": False, "note": "", "error": None,
    }
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"procedures": ["poly:1", "poly:2"], "master_seed": 1,
                                 "rows": [row]}))
    rc = main(["plot", "--in", str(table), "--out", str(tmp_path / "plots")])
    assert rc == 2
    assert "winners must be" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prop1", "--sigma", "nan"], "sigma must be"),
        (["prop1", "--sigma", "-1"], "sigma must be"),
        (["prop1", "--sigma", "inf"], "sigma must be"),
        (["prop1", "--mu", "nan"], "mu must be finite"),
        (["diagnose", "--proc", "poly:1", "--proc", "mean", "--alpha", "nan"], "alpha must be > 0"),
        (["diagnose", "--proc", "poly:1", "--proc", "mean", "--c", "nan"], "c must be > 0"),
        (["diagnose", "--proc", "poly:1", "--proc", "mean", "--c", "-0.5"], "c must be > 0"),
    ],
)
def test_exact_side_rejects_non_finite_and_out_of_range_arguments(capsys, argv, message):
    if argv[0] == "prop1":
        argv = argv + ["--n", "20", "--n1", "10", "--reps", "100"]
    else:
        argv = argv + ["--n", "30", "--reps", "50"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


@pytest.mark.parametrize("flag", ["--c", "--alpha"])
@pytest.mark.parametrize("procs", [["poly:1"], ["poly:1", "mean"]])
def test_diagnose_checks_c_and_alpha_before_any_probe(capsys, monkeypatch, flag, procs):
    # with one procedure c and alpha go unused, and still a NaN is refused
    def no_fit(*args):
        raise AssertionError("a probe ran before the argument check")

    monkeypatch.setattr(diagnostics, "fit_procedure", no_fit)
    argv = ["diagnose", "--n", "30", "--reps", "50", flag, "nan"]
    for proc in procs:
        argv += ["--proc", proc]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{flag[2:]} must be > 0, got nan" in out.err


def test_reproduce_subcommand_writes_table(tmp_path):
    rc = main([
        "reproduce", "--case", "3", "--scale", "desk",
        "--schemes", "single", "--reps", "2", "--n-grid", "100,400",
        "--out", str(tmp_path / "case3"),
    ])
    assert rc == 0
    csv_text = open(str(tmp_path / "case3.csv")).read()
    assert "ratio:9:1" in csv_text and "ratio:3:7" not in csv_text


def test_reproduce_rejects_zero_threads(capsys):
    rc = main([
        "reproduce", "--case", "1", "--threads", "0", "--schemes", "single",
        "--ratios", "ratio:5:5", "--reps", "1", "--n-grid", "40",
    ])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "threads must be a positive integer" in out.err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--reps", "0", "reps must be an integer >= 1"),
        ("--schemes", "", "schemes must not be empty"),
        ("--ratios", "", "schedules must not be empty"),
        ("--n-grid", "", "n_grid must be a nonempty list"),
    ],
)
def test_reproduce_rejects_zero_or_empty_restrictions(capsys, flag, value, message):
    # none of these may fall back to the scale's default grid
    args = {"--schemes": "single", "--ratios": "ratio:5:5", "--reps": "1", "--n-grid": "40"}
    args[flag] = value
    rc = main(["reproduce", "--case", "1", "--threads", "1",
               *(part for item in args.items() for part in item)])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "cv_arbiter.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "prop1" in proc.stdout
