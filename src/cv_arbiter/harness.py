"""Experiment engine: scenario x procedure x scheme x schedule x n grids,
seeded parallel replications, and selection-frequency tables.

Every replication's streams are keyed by
(master_seed, case, n, schedule, scheme, rep), so results are
independent of execution order and worker count; tables serialize to
CSV (one row per cell and procedure) and to a JSON mirror carrying
per-replication winners for audit.

Replications run on forked worker processes: the fits are small LAPACK
calls that hold the GIL, so threads would share one core.  The workers
inherit the scenarios, the parsed procedures and the master seed
through fork, so nothing but each task's plain values is pickled, and a
scenario with a lambda, or one registered at run time, works at any
worker count.  They also inherit the parent's one-thread OpenBLAS pin.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng
from .blas import single_threaded, usable_cores
from .errors import (
    ConfigError,
    CvArbiterError,
    ExhaustiveTooLarge,
    ParseError,
    SampleTooSmall,
)
from .estimators import ProcedureSpec
from .scenarios import Sample, Scenario, gen_sample, resolve_scenario
from .selection import run_selection
from .splits import SelectionScheme, SplitSchedule, estimation_size

DEFAULT_MASTER_SEED = 42

STUDY_PROCEDURES = ["poly:1", "poly:2", "spline"]
STUDY_SCHEMES = ["single", "rlt:100", "rsv:100"]
STUDY_RATIOS = ["ratio:9:1", "ratio:5:5", "ratio:3:7", "ratio:1:9"]
STUDY_N_FULL = [100, 200, 400, 800, 1600]
STUDY_N_DESK = [100, 400, 1600]
MIN_SPLINE_TRAIN = 40  # study grid drops eval-heavy cells below this estimation size


@dataclass
class ExperimentConfig:
    """A full experiment grid; round-trips losslessly through JSON."""

    cases: list[str]
    procedures: list[str]
    schemes: list[str]
    schedules: list[str]
    n_grid: list[int]
    reps: int
    master_seed: int = DEFAULT_MASTER_SEED
    threads: int | str = "auto"
    output: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(f"bad config fields: {exc}") from None

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(payload)

    def validate(self) -> None:
        """Type-check the fields, resolve every id against its registry;
        raise ConfigError."""
        for name in ("cases", "procedures", "schemes", "schedules"):
            ids = getattr(self, name)
            if not isinstance(ids, (list, tuple)) or not all(isinstance(i, str) for i in ids):
                raise ConfigError(f"{name} must be a list of id strings")
            if not ids:
                raise ConfigError(f"{name} must not be empty")
        if not _is_int(self.reps) or self.reps < 1:
            raise ConfigError("reps must be an integer >= 1")
        if not isinstance(self.n_grid, (list, tuple)) or not self.n_grid:
            raise ConfigError("n_grid must be a nonempty list")
        if not all(_is_int(n) and n >= 2 for n in self.n_grid):
            raise ConfigError("grid sizes must be integers >= 2")
        try:
            for c in self.cases:
                resolve_scenario(c)
            for p in self.procedures:
                ProcedureSpec.parse(p)
            for s in self.schemes:
                SelectionScheme.parse(s)
            for s in self.schedules:
                SplitSchedule.parse(s)
        except (CvArbiterError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if self.threads != "auto" and (not _is_int(self.threads) or self.threads < 1):
            raise ConfigError("threads must be a positive integer or 'auto'")
        if not _is_int(self.master_seed):
            raise ConfigError("master_seed must be an integer")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError("output must be a path prefix string or null")


def _is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true is no count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _cell_checks(n_procs: int) -> list[tuple[str, str, object]]:
    """(field, expected kind, predicate) for each ``CellResult`` field."""
    def is_str(v):
        return isinstance(v, str)

    def is_winners(v):
        return isinstance(v, list) and all(_is_int(w) and -1 <= w < n_procs for w in v)

    def is_counts(v):
        return isinstance(v, dict) and all(is_str(k) and _is_int(c) for k, c in v.items())

    return [
        *((name, "a string", is_str) for name in ("case", "schedule", "scheme", "note")),
        *((name, "an integer", _is_int) for name in ("n", "n1", "n2", "reps")),
        ("winners", f"a list of procedure indexes in [-1, {n_procs})", is_winners),
        ("disqualified", "an object of integer counts", is_counts),
        ("excluded", "a bool", lambda v: isinstance(v, bool)),
        ("error", "a string or null", lambda v: v is None or is_str(v)),
    ]


@dataclass
class CellResult:
    """Tallies for one (case, n, schedule, scheme) grid cell."""

    case: str
    n: int
    n1: int
    n2: int
    schedule: str
    scheme: str
    reps: int
    winners: list[int] = field(default_factory=list)  # -1 marks a failed rep
    disqualified: dict[str, int] = field(default_factory=dict)
    excluded: bool = False
    note: str = ""
    error: str | None = None

    def frequencies(self, procedures: list[str]) -> dict[str, float]:
        valid = [w for w in self.winners if w >= 0]
        if not valid:
            return {p: float("nan") for p in procedures}
        counts = np.bincount(valid, minlength=len(procedures))
        return {p: counts[j] / len(valid) for j, p in enumerate(procedures)}


@dataclass
class FrequencyTable:
    """Selection frequencies over a whole experiment grid."""

    procedures: list[str]
    master_seed: int
    rows: list[CellResult] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return any(r.error for r in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["case", "n", "n1", "n2", "schedule", "scheme", "procedure", "freq", "reps", "seed"]
        )
        for row in self.rows:
            freqs = row.frequencies(self.procedures)
            valid = sum(1 for w in row.winners if w >= 0)
            for proc in self.procedures:
                writer.writerow(
                    [
                        row.case, row.n, row.n1, row.n2, row.schedule, row.scheme,
                        proc,
                        "nan" if not np.isfinite(freqs[proc]) else f"{freqs[proc]:.6f}",
                        valid,
                        self.master_seed,
                    ]
                )
        return buf.getvalue()

    def to_dict(self) -> dict:
        """Every field, plus each row's frequencies (None without a winner)."""
        d = asdict(self)
        for row, cell in zip(d["rows"], self.rows):
            row["frequencies"] = {
                k: (None if not np.isfinite(v) else v)
                for k, v in cell.frequencies(self.procedures).items()
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FrequencyTable":
        """Invert ``to_dict``; raise ConfigError on a malformed payload."""
        try:
            rows = [
                CellResult(**{k: v for k, v in r.items() if k != "frequencies"})
                for r in d["rows"]
            ]
            table = cls(**(d | {"rows": rows}))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad table fields: {exc}") from None
        if not (_is_str_list(table.procedures) and _is_int(table.master_seed)):
            raise ConfigError("bad table fields: procedures must be a list of strings "
                              "and master_seed an integer")
        n_procs = len(table.procedures)
        checks = _cell_checks(n_procs)
        for i, row in enumerate(table.rows):
            for name, kind, ok in checks:
                if not ok(getattr(row, name)):
                    raise ConfigError(f"bad table fields: row {i}: {name} must be {kind}")
        return table

    def write(self, prefix: str) -> tuple[str, str]:
        """Write <prefix>.csv and <prefix>.json; returns the two paths."""
        os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
        csv_path, json_path = prefix + ".csv", prefix + ".json"
        with open(csv_path, "w", newline="") as fh:
            fh.write(self.to_csv())
        with open(json_path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return csv_path, json_path


def _one_replication(task, grid) -> tuple[int, int, int, dict[str, int] | None, str | None]:
    """Run one seeded replication; returns (cell_idx, rep, winner, dq, error).

    ``grid`` is (scenarios by case id, parsed procedures, master seed).
    """
    cell_idx, rep, case_id, n, schedule, scheme = task
    scenarios, procs, master_seed = grid
    key = (master_seed, case_id, n, schedule.id, scheme.id, rep)
    try:
        sample = gen_sample(scenarios[case_id], n, rng.stream(*key, "sample"))
        outcome = run_selection(procs, sample, schedule, scheme, rng.stream(*key, "splits"))
        dq = {procs[j].id: 1 for j in outcome.disqualified}
        return cell_idx, rep, outcome.selected, dq, None
    except (CvArbiterError, ValueError, np.linalg.LinAlgError) as exc:
        return cell_idx, rep, -1, None, f"{type(exc).__name__}: {exc}"


_worker_grid: tuple | None = None  # set in each forked pool worker, never in the parent


def _init_worker(grid: tuple) -> None:
    global _worker_grid
    _worker_grid = grid


def _pooled_replication(task):
    return _one_replication(task, _worker_grid)


def _run_replications(tasks: list, grid: tuple, workers: int) -> list:
    """Every task's result, in task order, on ``min(workers, len(tasks))``
    forked processes, or inline when that is 1 or fork is unavailable.

    The workers receive ``grid`` through fork, unpickled.  The pool is
    shut down, and its workers joined, before this returns or raises.
    """
    workers = min(workers, len(tasks))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_one_replication(task, grid) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(grid,),
    ) as pool:
        return list(pool.map(_pooled_replication, tasks))


def run_experiment(config: ExperimentConfig, exclude=None) -> FrequencyTable:
    """Run the full grid; deterministic given master_seed for any worker count.

    ``exclude(case_id, schedule_id, n) -> reason or None`` marks cells
    excluded instead of running them.  A cell the scheme cannot split
    (k-fold r > n, or an exhaustive plan above EXHAUSTIVE_CAP splits) is
    excluded with an error.  Per-replication failures
    are recorded in the cell (winner -1, error note) and never abort
    sibling cells.  Any other exception in a replication propagates,
    after the worker processes have exited.
    """
    config.validate()
    procs = [ProcedureSpec.parse(p) for p in config.procedures]
    scenarios = {c: resolve_scenario(c) for c in config.cases}

    cells: list[CellResult] = []
    tasks = []
    for case_id in config.cases:
        for n in map(int, config.n_grid):
            for schedule_id in config.schedules:
                schedule = SplitSchedule.parse(schedule_id)
                for scheme_id in config.schemes:
                    scheme = SelectionScheme.parse(scheme_id)
                    try:
                        n1, error = estimation_size(n, schedule, scheme), None
                    except (ValueError, ExhaustiveTooLarge) as exc:  # cannot split n points
                        n1, error = 0, f"{type(exc).__name__}: {exc}"
                    reason = error or (exclude(case_id, schedule_id, n) if exclude else None)
                    cell = CellResult(
                        case=case_id, n=n, n1=n1, n2=n - n1,
                        schedule=schedule_id, scheme=scheme_id,
                        reps=0 if reason else config.reps,
                        excluded=bool(reason), note=reason or "", error=error,
                    )
                    cell_idx = len(cells)
                    cells.append(cell)
                    if reason:
                        continue
                    for rep in range(config.reps):
                        tasks.append((cell_idx, rep, case_id, n, schedule, scheme))
                    cell.winners = [-1] * config.reps

    workers = usable_cores() if config.threads == "auto" else config.threads
    with single_threaded():  # forked workers inherit the pin
        results = _run_replications(tasks, (scenarios, procs, config.master_seed), workers)

    # Assemble by (cell, rep) index: output independent of scheduling.
    for cell_idx, rep, winner, dq, err in results:
        cell = cells[cell_idx]
        cell.winners[rep] = winner
        if dq:
            for label, k in dq.items():
                cell.disqualified[label] = cell.disqualified.get(label, 0) + k
        if err and not cell.error:
            cell.error = err

    table = FrequencyTable(procedures=[p.id for p in procs], master_seed=config.master_seed)
    table.rows = cells
    return table


def study_exclusion(case_id: str, schedule_id: str, n: int) -> str | None:
    """Grid exclusions for the benchmark study.

    Case 3 only runs the two estimation-heavy ratios and drops its two
    smallest sizes at 5:5; eval-heavy ratios (3:7, 1:9) are dropped
    wherever the estimation half falls below MIN_SPLINE_TRAIN points.
    """
    if case_id == "case3":
        if schedule_id not in ("ratio:9:1", "ratio:5:5"):
            return "ratio not part of the case-3 grid"
        if schedule_id == "ratio:5:5" and n < 400:
            return "sizes below 400 dropped at 5:5 for case 3"
    if schedule_id in ("ratio:3:7", "ratio:1:9"):
        n1 = SplitSchedule.parse(schedule_id).resolve(int(n))
        if n1 < MIN_SPLINE_TRAIN:
            return f"estimation size {n1} < {MIN_SPLINE_TRAIN}; spline tuning unreliable"
    return None


def reproduce_case(
    case_id,
    scale: str = "desk",
    ratios: list[str] | None = None,
    schemes: list[str] | None = None,
    n_grid: list[int] | None = None,
    reps: int | None = None,
    master_seed: int = DEFAULT_MASTER_SEED,
    threads: int | str = "auto",
) -> FrequencyTable:
    """Run the benchmark study grid for one case.

    ``scale='full'`` uses sizes 100..1600 with 200 replications;
    ``scale='desk'`` trims to {100, 400, 1600} and 100 replications.
    ``ratios``/``schemes``/``n_grid``/``reps`` restrict the grid further
    (restrictions do not change any replication's stream); only None
    means the default, so an empty list or 0 reps raises ConfigError.
    """
    case_key = f"case{case_id}" if str(case_id) in {"1", "2", "3"} else str(case_id)
    if case_key not in ("case1", "case2", "case3"):
        raise ConfigError(f"reproduce expects case 1, 2 or 3; got {case_id!r}")
    if scale not in ("desk", "full"):
        raise ConfigError(f"scale must be 'desk' or 'full', got {scale!r}")
    default_ratios = STUDY_RATIOS if case_key != "case3" else ["ratio:9:1", "ratio:5:5"]
    config = ExperimentConfig(
        cases=[case_key],
        procedures=list(STUDY_PROCEDURES),
        schemes=list(STUDY_SCHEMES if schemes is None else schemes),
        schedules=list(default_ratios if ratios is None else ratios),
        n_grid=list(
            (STUDY_N_DESK if scale == "desk" else STUDY_N_FULL) if n_grid is None else n_grid
        ),
        reps=(100 if scale == "desk" else 200) if reps is None else reps,
        master_seed=master_seed,
        threads=threads,
    )
    return run_experiment(config, exclude=study_exclusion)


def load_xy_csv(path: str) -> Sample:
    """Parse a strict two-column numeric CSV into a Sample.

    Whitespace-only lines are skipped; any other malformed line raises
    ParseError carrying its 1-based line number.
    """
    xs, ys = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected two comma-separated columns, got {len(parts)}", lineno)
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise ParseError(f"non-numeric value in {stripped!r}", lineno) from None
            if not (np.isfinite(x) and np.isfinite(y)):
                raise ParseError("non-finite value", lineno)
            xs.append(x)
            ys.append(y)
    if len(xs) < 20:
        raise SampleTooSmall(f"need at least 20 rows, got {len(xs)}")
    return Sample(x=np.array(xs), y=np.array(ys))


def select_from_csv(
    path: str,
    proc_ids: list[str],
    scheme_id: str,
    schedule_id: str,
    seed: int,
) -> dict:
    """Apply the selection engine to user data; returns a JSON-ready report."""
    sample = load_xy_csv(path)
    try:
        procs = [ProcedureSpec.parse(p) for p in proc_ids]
        scheme = SelectionScheme.parse(scheme_id)
        schedule = SplitSchedule.parse(schedule_id)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    n1 = estimation_size(sample.n, schedule, scheme)
    stream = rng.stream(seed, "select", scheme.id, schedule.id, sample.n)
    with single_threaded():
        outcome = run_selection(procs, sample, schedule, scheme, stream)
    labels = [p.id for p in procs]
    return {
        "selected": outcome.selected,
        "winner": labels[outcome.selected],
        "votes": {labels[j]: int(v) for j, v in enumerate(outcome.votes)},
        "averaged": {
            labels[j]: (None if not np.isfinite(v) else v)
            for j, v in enumerate(outcome.averaged)
        },
        "disqualified": {labels[j]: msg for j, msg in outcome.disqualified.items()},
        "n": sample.n,
        "n1": n1,
        "splits": len(outcome.per_split_criteria),
        "scheme": scheme_id,
        "schedule": schedule_id,
        "seed": seed,
    }
