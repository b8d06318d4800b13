import json
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cv_arbiter.errors import ConfigError, ParseError, SampleTooSmall, UnknownFunction
from cv_arbiter.harness import (
    CellResult,
    ExperimentConfig,
    FrequencyTable,
    load_xy_csv,
    reproduce_case,
    run_experiment,
    select_from_csv,
    study_exclusion,
)
from cv_arbiter import scenarios
from cv_arbiter.scenarios import Scenario, register_scenario, resolve_scenario


def _small_config(**overrides):
    base = dict(
        cases=["case1"],
        procedures=["poly:1", "poly:2"],
        schemes=["single", "rlt:5"],
        schedules=["ratio:5:5"],
        n_grid=[60],
        reps=4,
        master_seed=7,
        threads=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_round_trips_through_json(tmp_path):
    config = _small_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = ExperimentConfig.from_file(str(path))
    assert loaded.to_dict() == config.to_dict()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        _small_config(procedures=["poly:x"]).validate()
    with pytest.raises(ConfigError):
        _small_config(cases=["case7"]).validate()
    with pytest.raises(ConfigError):
        _small_config(schemes=["jackknife"]).validate()
    with pytest.raises(ConfigError, match="schemes must not be empty"):
        _small_config(schemes=[]).validate()
    with pytest.raises(ConfigError):
        _small_config(reps=0).validate()
    with pytest.raises(ConfigError):
        _small_config(n_grid=[]).validate()
    with pytest.raises(ConfigError):
        _small_config(threads=0).validate()
    with pytest.raises(ConfigError):
        _small_config(output=5).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"cases": []})


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool)


_WELL_TYPED = {
    **dict.fromkeys(
        ("cases", "procedures", "schemes", "schedules"),
        lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v),
    ),
    "n_grid": lambda v: isinstance(v, list) and all(_is_count(i) for i in v),
    "reps": _is_count,
    "master_seed": _is_count,
    "threads": lambda v: _is_count(v) or v == "auto",
    "output": lambda v: v is None or isinstance(v, str),
}
_JSON_SCALARS = st.one_of(
    st.booleans(), st.floats(), st.just(float("nan")), st.text(max_size=6), st.none(), st.integers()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_WELL_TYPED)), _JSON_VALUES)
def test_config_with_one_mistyped_field_raises_config_error(field, value):
    assume(not _WELL_TYPED[field](value))
    payload = _small_config().to_dict() | {field: value}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload).validate()


@pytest.fixture
def scenario_table(monkeypatch):
    """A private copy of the scenario table, so registrations do not leak."""
    monkeypatch.setattr(scenarios, "_SCENARIOS", dict(scenarios._SCENARIOS))


def test_zero_noise_tiebreak_gives_first_perfect_fit(scenario_table):
    # poly:1 and poly:2 both fit noiseless linear data exactly; the tie
    # rule hands every replication to the first index
    register_scenario("case1-noiseless", replace(resolve_scenario("case1"), sigma=0.0))
    config = _small_config(cases=["case1-noiseless"], reps=6)
    table = run_experiment(config)
    for row in table.rows:
        assert row.frequencies(table.procedures)["poly:1"] == 1.0


def test_frequencies_sum_to_one_and_tally_winners():
    config = _small_config(cases=["case2"], reps=10, schemes=["rsv:5"])
    table = run_experiment(config)
    (row,) = table.rows
    freqs = row.frequencies(table.procedures)
    assert sum(freqs.values()) == pytest.approx(1.0)
    assert all(0.0 <= v <= 1.0 for v in freqs.values())
    counts = np.bincount(row.winners, minlength=2)
    assert freqs["poly:1"] == counts[0] / 10


def test_threads_do_not_change_output_bytes():
    config1 = _small_config(
        cases=["case1", "case3"],
        procedures=["poly:1", "poly:2", "spline"],
        n_grid=[60, 100],
        schemes=["single", "rlt:5", "rsv:5"],
        reps=4,
        threads=1,
    )
    config8 = _small_config(
        cases=["case1", "case3"],
        procedures=["poly:1", "poly:2", "spline"],
        n_grid=[60, 100],
        schemes=["single", "rlt:5", "rsv:5"],
        reps=4,
        threads=8,
    )
    assert run_experiment(config1).to_csv() == run_experiment(config8).to_csv()


def test_lambda_scenario_registered_at_run_time_runs_on_workers(scenario_table):
    # the workers inherit the scenario table through fork: nothing is pickled
    register_scenario("sine", Scenario(lambda x: np.sin(2 * np.pi * x), sigma=0.3, best="spline"))
    config = _small_config(cases=["sine"], procedures=["poly:1", "spline"], reps=4)
    one = run_experiment(config).to_csv()
    assert run_experiment(replace(config, threads=2)).to_csv() == one
    assert multiprocessing.active_children() == []


def test_worker_exception_propagates_and_no_worker_outlives_the_run(monkeypatch):
    def broken(*args):
        raise RuntimeError("not a package error")

    monkeypatch.setattr("cv_arbiter.harness.run_selection", broken)
    with pytest.raises(RuntimeError, match="not a package error"):
        run_experiment(_small_config(threads=2))
    assert multiprocessing.active_children() == []


def test_replication_streams_do_not_depend_on_grid_shape():
    # a cell's winners are identical whether or not other cells run
    wide = _small_config(cases=["case1", "case2"], n_grid=[60, 80], reps=3)
    narrow = _small_config(cases=["case2"], n_grid=[80], reps=3)
    by_key = {
        (r.case, r.n, r.schedule, r.scheme): r.winners for r in run_experiment(wide).rows
    }
    for row in run_experiment(narrow).rows:
        assert row.winners == by_key[(row.case, row.n, row.schedule, row.scheme)]


def test_cell_error_recorded_not_raised():
    config = _small_config(procedures=["spline"], schedules=["n1:5"], reps=2)
    table = run_experiment(config)
    assert table.has_errors
    for row in table.rows:
        assert row.error and "AllProceduresFailed" in row.error
        assert all(w == -1 for w in row.winners)
        assert np.isnan(list(row.frequencies(table.procedures).values())[0])


def test_infeasible_kfold_cell_excluded_siblings_run():
    config = _small_config(schemes=["kfold-a:80"], n_grid=[60, 100], reps=2)
    table = run_experiment(config)
    small, large = table.rows
    assert small.excluded and "kfold r=80 exceeds n=60" in small.note
    assert small.error and small.winners == [] and small.reps == 0
    assert not large.excluded and large.error is None
    assert all(w >= 0 for w in large.winners)
    assert table.has_errors


def test_exhaustive_cell_above_cap_excluded_siblings_run():
    # C(60, 30) is far above EXHAUSTIVE_CAP; C(10, 5) = 252 is not.
    config = _small_config(schemes=["exhaustive-a", "single"], n_grid=[10, 60], reps=3)
    table = run_experiment(config)
    cells = {(r.n, r.scheme): r for r in table.rows}
    big = cells[(60, "exhaustive-a")]
    assert big.excluded and big.reps == 0 and big.winners == []
    assert big.error and "ExhaustiveTooLarge" in big.error and "exceeds" in big.note
    for key in ((10, "exhaustive-a"), (10, "single"), (60, "single")):
        assert not cells[key].excluded and cells[key].error is None
        assert all(w >= 0 for w in cells[key].winners)
    assert table.has_errors


@pytest.mark.parametrize("exc", [ValueError("bad split"), np.linalg.LinAlgError("SVD")])
def test_replication_value_and_linalg_errors_recorded(monkeypatch, exc):
    def failing(*args):
        raise exc

    monkeypatch.setattr("cv_arbiter.harness.run_selection", failing)
    table = run_experiment(_small_config(reps=2))
    for row in table.rows:
        assert row.error.startswith(type(exc).__name__)
        assert row.winners == [-1, -1]


def test_disqualification_counts_surface_in_table():
    # spline cannot train on 5 points; others still compete
    config = _small_config(procedures=["spline", "poly:1"], schedules=["n1:5"], reps=3)
    table = run_experiment(config)
    for row in table.rows:
        assert row.error is None
        assert row.disqualified.get("spline") == 3
        assert row.frequencies(table.procedures)["poly:1"] == 1.0


def test_csv_layout():
    table = run_experiment(_small_config(reps=2))
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "case,n,n1,n2,schedule,scheme,procedure,freq,reps,seed"
    # one row per cell per procedure
    assert len(lines) == 1 + len(table.rows) * len(table.procedures)
    first = lines[1].split(",")
    assert first[0] == "case1" and first[1] == "60" and first[2] == "30"


def test_study_exclusions():
    assert study_exclusion("case3", "ratio:3:7", 400) is not None
    assert study_exclusion("case3", "ratio:5:5", 100) is not None
    assert study_exclusion("case3", "ratio:5:5", 400) is None
    assert study_exclusion("case2", "ratio:1:9", 100) is not None
    assert study_exclusion("case2", "ratio:1:9", 400) is None
    assert study_exclusion("case2", "ratio:3:7", 100) is not None
    assert study_exclusion("case2", "ratio:3:7", 200) is None
    assert study_exclusion("case1", "ratio:9:1", 100) is None


def test_reproduce_case_marks_excluded_cells():
    table = reproduce_case(3, scale="desk", schemes=["single"], reps=1)
    keys = {(r.schedule, r.n): r for r in table.rows}
    assert set(s for s, _ in keys) == {"ratio:9:1", "ratio:5:5"}
    assert keys[("ratio:5:5", 100)].excluded
    assert not keys[("ratio:5:5", 400)].excluded
    assert not keys[("ratio:9:1", 100)].excluded
    excluded = keys[("ratio:5:5", 100)]
    assert excluded.reps == 0 and excluded.winners == []
    with pytest.raises(ConfigError):
        reproduce_case(9)
    with pytest.raises(ConfigError):
        reproduce_case(1, scale="huge")


def test_table_json_round_trip(tmp_path):
    table = run_experiment(_small_config(reps=2))
    csv_path, json_path = table.write(str(tmp_path / "out"))
    with open(json_path) as fh:
        loaded = FrequencyTable.from_dict(json.load(fh))
    assert loaded.to_csv() == table.to_csv()
    with open(csv_path) as fh:
        assert fh.read() == table.to_csv()


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [1],
        "table",
        {"procedures": ["poly:1"], "master_seed": 1},  # no rows
        {"procedures": ["poly:1"], "master_seed": 1, "rows": [], "extra": 0},
        {"procedures": ["poly:1"], "master_seed": 1, "rows": [1]},
        {"procedures": ["poly:1"], "master_seed": 1, "rows": [{"case": "case1"}]},
        {"procedures": ["poly:1"], "master_seed": 1, "rows": [{
            "case": "case1", "n": 4, "n1": 2, "n2": 2, "schedule": "ratio:5:5",
            "scheme": "single", "reps": 0, "colour": "red",
        }]},
    ],
)
def test_table_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(ConfigError, match="bad table fields"):
        FrequencyTable.from_dict(payload)


_ROW = {
    "case": "case1", "n": 4, "n1": 2, "n2": 2, "schedule": "ratio:5:5", "scheme": "single",
    "reps": 2, "winners": [0, -1], "disqualified": {"poly:1": 1}, "excluded": False,
    "note": "", "error": None,
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("winners", "ab"),
        ("winners", [0.5]),
        ("winners", [True]),
        ("winners", [2]),  # the table names two procedures
        ("disqualified", {"poly:1": "1"}),
        ("disqualified", [["poly:1", 1]]),
        ("n", "4"),
        ("reps", 2.0),
        ("excluded", 1),
        ("case", 1),
        ("note", None),
        ("error", 5),
    ],
)
def test_table_from_dict_rejects_mistyped_row_fields(field, value):
    payload = {"procedures": ["poly:1", "poly:2"], "master_seed": 1,
               "rows": [_ROW | {field: value}]}
    with pytest.raises(ConfigError, match=f"bad table fields: row 0: {field} must be"):
        FrequencyTable.from_dict(payload)


@pytest.mark.parametrize("overrides", [{"procedures": "poly:1"}, {"master_seed": "1"}])
def test_table_from_dict_rejects_mistyped_table_fields(overrides):
    payload = {"procedures": ["poly:1"], "master_seed": 1, "rows": []} | overrides
    with pytest.raises(ConfigError, match="bad table fields"):
        FrequencyTable.from_dict(payload)


@st.composite
def _tables(draw):
    procedures = draw(st.lists(st.text(max_size=8), min_size=1, max_size=4))
    text = st.text(max_size=10)
    counts = st.integers(0, 10**6)
    row = st.builds(
        CellResult,
        case=text, n=counts, n1=counts, n2=counts, schedule=text, scheme=text, reps=counts,
        winners=st.lists(st.integers(-1, len(procedures) - 1), max_size=12),
        disqualified=st.dictionaries(text, counts, max_size=3),
        excluded=st.booleans(), note=text, error=st.none() | text,
    )
    return FrequencyTable(procedures, draw(st.integers(0, 2**63 - 1)),
                          draw(st.lists(row, max_size=4)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_tables())
def test_table_dict_round_trip_property(table):
    loaded = FrequencyTable.from_dict(json.loads(json.dumps(table.to_dict())))
    assert loaded == table
    assert loaded.to_csv() == table.to_csv()


def test_register_scenario_rejects_registered_ids(scenario_table):
    with pytest.raises(ValueError, match="already registered"):
        register_scenario("case1", replace(resolve_scenario("case1"), sigma=0.0))
    assert resolve_scenario("case1").sigma == 0.3
    register_scenario("case1-quiet", replace(resolve_scenario("case1"), sigma=0.1))
    with pytest.raises(ValueError, match="already registered"):
        register_scenario("case1-quiet", resolve_scenario("case2"))
    assert resolve_scenario("case1-quiet").sigma == 0.1


def test_registered_scenarios_do_not_leak_between_tests():
    # the registrations above went into a private copy of the table
    for name in ("case1-noiseless", "case1-quiet"):
        with pytest.raises(UnknownFunction):
            resolve_scenario(name)


# --- select on user data ------------------------------------------------------------


def _write_csv(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_select_perfect_line_wins_every_vote(tmp_path):
    x = np.linspace(0.0, 1.0, 100)
    path = _write_csv(tmp_path, [f"{a},{1 + a}" for a in x])
    report = select_from_csv(path, ["poly:1", "spline"], "rsv:100", "ratio:5:5", seed=3)
    assert report["winner"] == "poly:1"
    assert report["votes"] == {"poly:1": 100, "spline": 0}
    assert report["n"] == 100 and report["n1"] == 50


def test_select_row_order_invariant_winner(tmp_path):
    g = np.random.default_rng(5)
    x = g.random(80)
    y = 1 + x + 0.3 * g.standard_normal(80)
    rows = [f"{a},{b}" for a, b in zip(x, y)]
    p1 = _write_csv(tmp_path, rows, "a.csv")
    perm = g.permutation(80)
    p2 = _write_csv(tmp_path, [rows[i] for i in perm], "b.csv")
    r1 = select_from_csv(p1, ["poly:1", "poly:2"], "rlt:40", "ratio:5:5", seed=11)
    r2 = select_from_csv(p2, ["poly:1", "poly:2"], "rlt:40", "ratio:5:5", seed=11)
    assert r1["winner"] == r2["winner"]


def test_select_parse_error_names_line(tmp_path):
    rows = [f"{i / 30},{i / 30}" for i in range(30)]
    rows[6] = "a,b"  # line 7
    path = _write_csv(tmp_path, rows)
    with pytest.raises(ParseError) as err:
        select_from_csv(path, ["poly:1"], "single", "ratio:5:5", seed=0)
    assert err.value.line == 7
    path3 = _write_csv(tmp_path, ["0.1,0.2,0.3"] + rows[:25], name="wide.csv")
    with pytest.raises(ParseError) as err:
        load_xy_csv(path3)
    assert err.value.line == 1


def test_select_requires_twenty_rows(tmp_path):
    path = _write_csv(tmp_path, [f"{i / 10},{i / 10}" for i in range(10)])
    with pytest.raises(SampleTooSmall):
        select_from_csv(path, ["poly:1"], "single", "ratio:5:5", seed=0)


def test_select_rejects_unknown_ids(tmp_path):
    path = _write_csv(tmp_path, [f"{i / 30},{i / 30}" for i in range(30)])
    with pytest.raises(ConfigError):
        select_from_csv(path, ["poly:1"], "single", "fifty-fifty", seed=0)
