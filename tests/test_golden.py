"""Golden pins: sha256 digests of the bytes the harness, ``select``,
``diagnose`` and the public fits produce on small fixed inputs.

A refactor that changes no behaviour must leave every digest unchanged.
The grid mixes every procedure family, the single split, averaging,
voting, k-fold and exhaustive schemes, disqualified procedures and
excluded cells, and runs in a few seconds.
"""

import hashlib
import json

from cv_arbiter import rng
from cv_arbiter.diagnostics import diagnostics_report
import numpy as np

from cv_arbiter.estimators import ProcedureSpec, fit_procedure
from cv_arbiter.harness import ExperimentConfig, run_experiment, select_from_csv
from cv_arbiter.scenarios import gen_sample, resolve_scenario
from cv_arbiter.selection import run_selection
from cv_arbiter.splits import SelectionScheme, SplitSchedule, estimation_size

GRID_CSV = "457d706055acd3575d729a99a46f23e90ac0b454887eba8c262a4f39c94d1a23"
GRID_JSON = "966f3ec653e3d3c6afabb256bae06d6b5c67c17e9ed8417a677c52305da88ee4"
SELECT_REPORT = "04d6157b937fea84d875dffd32d0a545e4cfdc439fe27f51081e1b2c6ac300e9"
DIAGNOSE_REPORT = "9e90a43f7d6fc1a5a1f7d81c3eff1b7817f54e79887f71e409a4b7b0790675cf"
SELECTION_PLANS = "ae3352fe26811986718e794cb6c58c99fa7d5feef01fe2b117125bf589830059"
SELECTION_DECISIONS = "8f14afa8e0ed5c372a2bb373d5e743d957fe1e4c6ed11dff03d6ad73bfc7c5c9"
PUBLIC_FITS = {
    "poly:2": "1081d32a9d4431d0bf7cf14d7789100f6e973178f5a4b52fc25d27af0a437f38",
    "zero": "91ed5b584731a345cc450deb3345084f3d5cfa911c9ce1c4fb8698bf38c4c912",
    "mean": "5d07aecee4af67cd2a42cb4f03e9bcf7d3f45ad05729b1f6f0e9b7f1875c5fab",
    "spline": "be7022a161fe641fb5ecad8971d52bd807b79bbb166c49faa6117706d6c157d7",
    "loclin:0.3": "72d5cbd729e8deb1ce8c45e76792db96689aad350be70c3b0543c79c6aef1a11",
    "loclin:auto": "5a8f2a4a7cff36614b8a71c86dcfe9b3b7444b935743b34526d464128a2a2243",
}

SCHEMES = ["single", "rlt:5", "rsv:5", "kfold-a:3", "kfold-v:3", "exhaustive-a", "exhaustive-v"]
SCHEDULES = ["ratio:3:2", "est-dom", "eval-dom", "n1:4"]


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _json(payload: dict) -> str:
    # the layout the CLI prints
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_golden_grid_table(tmp_path):
    config = ExperimentConfig(
        cases=["case1", "case3", "mean(1)"],
        procedures=["poly:1", "poly:2", "spline", "zero", "mean", "loclin:0.3", "loclin:auto"],
        schemes=["single", "rlt:4", "rsv:4", "kfold-v:3", "exhaustive-a"],
        schedules=["ratio:5:5", "n1:6"],
        n_grid=[9, 40],
        reps=2,
        master_seed=7,
        threads=2,
    )
    table = run_experiment(config)
    assert sum(row.excluded for row in table.rows) == 6
    assert any(row.disqualified for row in table.rows)
    csv_path, json_path = table.write(str(tmp_path / "golden"))
    with open(csv_path, "rb") as fh:
        assert fh.read() == table.to_csv().encode()
    assert _sha(table.to_csv()) == GRID_CSV
    with open(json_path, "rb") as fh:
        assert _sha(fh.read()) == GRID_JSON


def test_golden_select_report(tmp_path):
    sample = gen_sample(resolve_scenario("case3"), 80, rng.stream("golden-select"))
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(sample.x, sample.y)))
    procs = ["poly:1", "poly:2", "spline", "loclin:auto", "poly:45"]  # poly:45 is disqualified
    report = select_from_csv(str(path), procs, "rsv:6", "ratio:5:5", 3)
    assert _sha(_json(report)) == SELECT_REPORT


def test_golden_diagnostics_report():
    report = diagnostics_report(
        ["poly:1", "spline"], "case2", resolve_scenario("case2"), 60, 50, seed=5,
        norm_draws=2000,
    )
    assert _sha(_json(report.to_dict())) == DIAGNOSE_REPORT


def test_golden_selection_every_scheme_and_schedule():
    # every scheme kind x every schedule kind through run_selection: the
    # criteria matrix, votes, winner and estimation size of each pair.
    # The decisions digest leaves the criteria bytes out, so a change that
    # moves criteria by rounding alone shows as one digest, not both.
    sample = gen_sample(resolve_scenario("case2"), 10, rng.stream("golden-plans"))
    procs = [ProcedureSpec.parse(p) for p in ("mean", "poly:1", "poly:2")]
    plans, decisions = hashlib.sha256(), hashlib.sha256()
    for scheme_id in SCHEMES:
        for schedule_id in SCHEDULES:
            scheme, schedule = SelectionScheme.parse(scheme_id), SplitSchedule.parse(schedule_id)
            outcome = run_selection(
                procs, sample, schedule, scheme, rng.stream("golden-plans", scheme_id, schedule_id)
            )
            votes = outcome.votes.astype("<i8").tobytes()
            pair = (f"{scheme_id} {schedule_id} {outcome.selected} "
                    f"{estimation_size(sample.n, schedule, scheme)};".encode())
            plans.update(outcome.per_split_criteria.tobytes())
            for digest in (plans, decisions):
                digest.update(votes)
                digest.update(pair)
    assert decisions.hexdigest() == SELECTION_DECISIONS
    assert plans.hexdigest() == SELECTION_PLANS


def test_golden_public_fits():
    # every family through fit_procedure on one sample, one digest each:
    # predictions on a grid that reaches past the data, dof, lam and
    # coefficients
    sample = gen_sample(resolve_scenario("case3"), 60, rng.stream("golden-fits"))
    grid = np.linspace(-0.1, 1.1, 241)
    digests = {}
    for proc_id in PUBLIC_FITS:
        model = fit_procedure(ProcedureSpec.parse(proc_id), sample)
        digest = hashlib.sha256(np.asarray(model.predict(grid), dtype="<f8").tobytes())
        coefs = model.coefficients
        digest.update(f"{proc_id} {model.dof!r} {model.lam!r} {model.label};".encode())
        digest.update(b"-" if coefs is None else np.asarray(coefs, dtype="<f8").tobytes())
        digests[proc_id] = digest.hexdigest()
    assert digests == PUBLIC_FITS
