import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cv_arbiter import diagnostics, rng
from cv_arbiter.cli import main
from cv_arbiter.estimators import PROCEDURES
from cv_arbiter.scenarios import _SCENARIOS
from cv_arbiter.splits import SCHEDULES, SCHEMES


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", ["1e160", "1e-170"])
def test_prop1_is_right_at_extreme_noise_scales(capsys, sigma):
    # squared draws of this scale overflow or underflow; the margin is
    # scored on the standardized draws, so the answer must not move
    rc = main(["prop1", "--n", "100", "--n1", "50", "--reps", "20000", "--sigma", sigma])
    assert rc == 0
    payload = json.loads(_capture(capsys))
    ref = payload["f_reference"]
    se = (ref * (1 - ref) / 20000) ** 0.5
    assert abs(payload["selection_prob"] - ref) <= 4 * se


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


@pytest.mark.parametrize("scale, procs", [(1e300, "poly:1,poly:3"), (1e-300, "poly:1,spline")])
def test_select_disqualifies_a_fit_that_overflows_at_extreme_x(tmp_path, capfd, scale, procs):
    # x^3 overflows at |x| ~ 1e300 and the spline penalty's divided
    # differences at |x| ~ 1e-300; each fit is disqualified, quietly
    x, y = scale * np.linspace(1.0, 2.0, 40), np.sin(np.arange(40.0))
    path = tmp_path / "extreme.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    rc = main([
        "select", "--data", str(path), "--procs", procs,
        "--scheme", "kfold-a:5", "--schedule", "ratio:5:5", "--seed", "0",
    ])
    out = capfd.readouterr()
    assert rc == 0, out.err
    assert out.err == ""
    report = json.loads(out.out)
    assert report["winner"] == "poly:1"
    assert list(report["disqualified"]) == procs.split(",")[1:]
    assert report["disqualified"][procs.split(",")[1]].startswith("RankDeficient")


@pytest.mark.parametrize("procs", ["poly:1,poly:2", "poly:2,poly:1"])
def test_select_names_no_winner_when_every_criterion_overflows(tmp_path, capsys, procs):
    # every procedure's squared errors of 1e200 noise overflow; tied at
    # inf, whichever procedure is listed first would win
    s = rng.stream("select-criterion-overflow")
    x, y = rng.uniforms(s, 60), 1e200 * rng.normals(s, 60)
    path = tmp_path / "huge-noise.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    rc = main(["select", "--data", str(path), "--procs", procs, "--scheme", "kfold-a:5"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("OverflowRisk") == 2


def test_select_on_extreme_x_prints_no_float_warnings(tmp_path):
    # at |x| ~ 1e200 the spline and local linear arithmetic overflows;
    # each fit still ends finite or in a package error, so stderr stays
    # empty (in a fresh process, where no test harness records warnings)
    s = rng.stream("select-extreme-x-quietly")
    x, y = 1e200 * rng.uniforms(s, 60), rng.normals(s, 60)
    path = tmp_path / "huge-x.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cv_arbiter.cli", "select", "--data", str(path),
         "--procs", "poly:1,spline,loclin:auto,loclin:0.3", "--scheme", "kfold-a:5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "averaged": {
            "loclin:0.3": 31.48908688334596, "loclin:auto": None,
            "poly:1": 15.340661914745713, "spline": None,
        },
        "disqualified": {
            "loclin:auto": "BandwidthTooSmall: no bandwidth on the grid supports delete-1 fits",
            "spline": "RankDeficient: spline penalty is rank deficient beyond its null space",
        },
        "n": 60, "n1": 48, "schedule": "ratio:5:5", "scheme": "kfold-a:5", "seed": 0,
        "selected": 0, "splits": 5,
        "votes": {"loclin:0.3": 1, "loclin:auto": 0, "poly:1": 4, "spline": 0},
        "winner": "poly:1",
    }


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


def test_prop1_answers_an_overflowing_mu_term_exactly(capsys):
    # mu / sigma = 1e200: the mean model wins every replication
    rc = main(["prop1", "--mu", "1", "--sigma", "1e-200", "--n", "20", "--n1", "10",
               "--reps", "100"])
    assert rc == 0
    assert json.loads(_capture(capsys))["selection_prob"] == 1.0


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


def test_cli_import_loads_no_unused_heavy_modules():
    # scipy.stats and the process-pool modules cost start-up time and
    # memory in every command; only a pooled run may load the pool
    code = ("import sys, cv_arbiter.cli; print(' '.join(m for m in "
            "('scipy.stats', 'multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# --- argv property: any argv exits 0, 2 or 3, never with a traceback -------

PROC_IDS = ["poly:1", "poly:2", "zero", "mean", "spline", "loclin:auto", "loclin:0.3"]
SCHEME_IDS = ["single", "rlt:3", "rsv:2", "kfold-a:2", "kfold-v:3", "exhaustive-a", "exhaustive-v"]
SCHEDULE_IDS = ["ratio:5:5", "ratio:9:1", "est-dom", "eval-dom", "n1:4"]
CASE_IDS = ["case1", "case2", "case3"]
# grids stay below 10 points, so even an exhaustive plan has at most C(9, 4)
# splits; select reads 20 rows, its fewest, and draws no exhaustive plan
SIZES = ["2", "5", "9"]
RANDOM_SCHEME_IDS = [i for i in SCHEME_IDS if not i.startswith("exhaustive")]
# diagnose predicts at 100,000 points per probe, too slow for the local linear fit
QUICK_PROC_IDS = [i for i in PROC_IDS if not i.startswith("loclin")]
TABLE = {
    "procedures": ["poly:1", "mean"], "master_seed": 1,
    "rows": [{"case": "case1", "n": 20, "n1": 10, "n2": 10, "schedule": "ratio:5:5",
              "scheme": "single", "reps": 2, "winners": [0, -1], "disqualified": {"mean": 1},
              "excluded": False, "note": "", "error": None}],
}


def test_argv_ids_cover_every_table_row():
    for ids, table in ((PROC_IDS, PROCEDURES), (SCHEME_IDS, SCHEMES),
                       (SCHEDULE_IDS, SCHEDULES), (CASE_IDS, _SCENARIOS)):
        assert {i.split(":")[0] for i in ids} == set(table)


def _mutated(ids):
    valid = st.sampled_from(ids)
    return st.one_of(
        st.just(""),
        st.tuples(valid, st.sampled_from([":", ":0", ":-1", ":nan", ":inf", ":1:1", "x"])).map("".join),
        st.tuples(valid, st.integers(0, 8)).map(lambda t: t[0][:t[1]]),
        valid.map(str.upper),
    )


def _comma(ids, min_size=1, max_size=2):
    return st.lists(ids, min_size=min_size, max_size=max_size).map(",".join)


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds).map(repr)


BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "", "x"])
BAD_INTS = st.sampled_from(["0", "-1", "", "x", "2.5"])
SEEDS = st.integers(0, 2**70).map(str)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _with_one_fault(draw, valid, bad):
    """A dict drawn from ``valid``, then half the time one entry swapped for
    a draw from ``bad`` (a None draw drops it)."""
    values = {key: draw(strategy) for key, strategy in valid.items()}
    key = draw(st.sampled_from([None] * len(bad) + sorted(bad)))
    if key is not None:
        values[key] = draw(bad[key])
    return {k: v for k, v in values.items() if v is not None}


def _argv(command, valid, bad):
    def build(values):
        argv = [command]
        for flag, value in values.items():
            for v in value if isinstance(value, list) else [value]:
                # --flag=value, so argparse reads "-1e-300" as a value, not an option
                argv.append(f"--{flag.replace('_', '-')}" + ("" if v is True else f"={v}"))
        return argv, None
    return _with_one_fault(valid, bad).map(build)


def _optional(strategy):
    return st.none() | strategy


@st.composite
def _simulate(draw):
    ids = {"cases": CASE_IDS, "procedures": PROC_IDS, "schemes": SCHEME_IDS, "schedules": SCHEDULE_IDS}
    valid = {k: st.lists(st.sampled_from(v), min_size=1, max_size=2) for k, v in ids.items()}
    valid |= {"n_grid": st.lists(st.sampled_from([2, 5, 9]), min_size=1, max_size=2),
              "reps": st.sampled_from([1, 2]), "master_seed": st.integers(0, 2**64),
              "threads": st.just(1)}
    bad = {k: st.lists(_mutated(v), max_size=2) | JSON_VALUES for k, v in ids.items()}
    bad |= {"n_grid": st.lists(st.sampled_from([0, -1, "9", 2.5, True])) | JSON_VALUES,
            "reps": st.sampled_from([0, -1, "1", 1.5, None]),
            "master_seed": st.sampled_from([-1.5, "x", None, True]),
            "threads": st.sampled_from([0, -1, "1", None])}
    config = draw(_with_one_fault(valid, bad))
    flags = draw(st.sampled_from([[], ["--threads", "1"], ["--threads", "0"], ["--threads", "x"]]))
    return ["simulate", "--config", "{dir}/config.json", "--out", "{dir}/table"] + flags, config


@st.composite
def _plot(draw):
    table = json.loads(json.dumps(TABLE))
    if draw(st.booleans()):
        target = draw(st.sampled_from([table, table["rows"][0]]))
        target[draw(st.sampled_from(sorted(target)))] = draw(JSON_VALUES)
    path = draw(st.sampled_from(["{dir}/table.json"] * 3 + ["{dir}/missing.json", "{dir}/data.csv"]))
    return ["plot", "--in", path, "--out", "{dir}/plots"], table


ARGV = st.one_of(
    _simulate(),
    _plot(),
    _argv("reproduce", {
        "case": st.sampled_from(["1", "2", "3"]),
        "scale": _optional(st.sampled_from(["desk", "full"])),
        "seed": _optional(SEEDS),
        "threads": st.just("1"),
        "reps": st.sampled_from(["1", "2"]),
        "schemes": _comma(st.sampled_from(SCHEME_IDS)),
        "ratios": _optional(_comma(st.sampled_from(SCHEDULE_IDS), max_size=1)),
        "n_grid": _comma(st.sampled_from(SIZES)),
    }, {
        "case": st.sampled_from(["4", ""]), "scale": st.just("x"), "seed": BAD_INTS,
        "threads": BAD_INTS, "reps": BAD_INTS, "schemes": _comma(_mutated(SCHEME_IDS), 0),
        "ratios": _comma(_mutated(SCHEDULE_IDS), 0), "n_grid": _comma(BAD_INTS, 0),
    }),
    _argv("select", {
        "data": st.just("{dir}/data.csv"),
        "procs": _comma(st.sampled_from(PROC_IDS), max_size=3),
        "scheme": _optional(st.sampled_from(RANDOM_SCHEME_IDS)),
        "schedule": _optional(st.sampled_from(SCHEDULE_IDS)),
        "seed": _optional(SEEDS),
    }, {
        "data": st.sampled_from(["{dir}/bad.csv", "{dir}/missing.csv", None]),
        "procs": _comma(_mutated(PROC_IDS), 0, 3), "scheme": _mutated(SCHEME_IDS),
        "schedule": _mutated(SCHEDULE_IDS), "seed": BAD_INTS,
    }),
    _argv("prop1", {
        "n": st.sampled_from(SIZES + ["40"]), "n1": st.sampled_from(["1", "2"]),
        "mu": _optional(_floats()), "sigma": _optional(_floats(min_value=0.0)),
        "reps": st.sampled_from(["1", "50"]), "seed": _optional(SEEDS),
        "verify": st.sampled_from([None, True]),
    }, {
        "n": BAD_INTS, "n1": BAD_INTS, "mu": BAD_NUMBERS,
        "sigma": BAD_NUMBERS | _floats(max_value=-1e-300), "reps": BAD_INTS, "seed": BAD_INTS,
    }),
    _argv("diagnose", {
        "proc": st.lists(st.sampled_from(QUICK_PROC_IDS), min_size=1, max_size=2),
        "case": _optional(st.sampled_from(CASE_IDS)),
        "n": st.sampled_from(["10", "30"]), "reps": st.just("50"),
        "seed": _optional(SEEDS), "c": _optional(_floats(min_value=1e-300)),
        "alpha": _optional(_floats(min_value=1e-300)),
    }, {
        "proc": st.lists(_mutated(PROC_IDS), max_size=2), "case": _mutated(CASE_IDS),
        "n": BAD_INTS, "reps": BAD_INTS, "c": BAD_NUMBERS | _floats(max_value=0.0),
        "alpha": BAD_NUMBERS | _floats(max_value=0.0),
    }),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            rc = exc.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    x = np.linspace(0, 1, 20)
    (root / "data.csv").write_text("".join(f"{a},{np.sin(7 * a)}\n" for a in x))
    (root / "bad.csv").write_text("0.1,0.2\n0.3\n")
    return root


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=ARGV)
def test_any_argv_exits_0_2_or_3_without_a_traceback(argv_dir, case):
    argv, payload = case
    argv = [a.format(dir=argv_dir) for a in argv]
    name = "config.json" if argv[0] == "simulate" else "table.json"
    if payload is not None:
        (argv_dir / name).write_text(json.dumps(payload))
    rc, err = _run(argv)
    assert rc in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if argv[0] == "simulate" and rc != 2:
        # plot reads any table simulate wrote; it refuses only one with no
        # plottable row (every cell failed or excluded)
        rc, err = _run(["plot", "--in", f"{argv_dir}/table.json", "--out", f"{argv_dir}/plots"])
        assert rc == 0 or (rc == 2 and "no rows to plot" in err), err
