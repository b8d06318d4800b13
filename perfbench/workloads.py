"""The benchmark's four workloads.

Each workload draws its inputs from a seed, names the ``cv_arbiter.cli``
calls one body makes, and gates the outputs of those calls against
references pinned in ``references.json``.  Stdlib only: the program is
imported in the child processes, never here.

The seed selects one of ``INPUT_SETS`` input sets (``seed % INPUT_SETS``)
so that every input a run can receive has pinned reference outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

INPUT_SETS = 16

GRID_AXES = {
    "cases": ["case1", "case2", "case3"],
    "procedures": ["poly:1", "poly:2", "spline"],
    "schemes": ["single", "rlt:100", "rsv:100"],
    "schedules": ["ratio:9:1", "ratio:5:5"],
}
SELECT_PROCS = "poly:1,poly:2,spline,loclin:auto"
SELECT_SCHEME = "kfold-a:5"
DIAGNOSE_PROCS = ["poly:2", "spline"]
REL_TOL = 1e-9
PROP1_SIGMAS = 4.0


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def derive_seed(input_set: int, label: str) -> int:
    """A 31-bit seed for one consumer of one input set."""
    digest = hashlib.sha256(f"perfbench|{label}|{input_set}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def close(a, b, rel: float = REL_TOL) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b or a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return True
        if not (math.isfinite(a) and math.isfinite(b)):
            return False
        return abs(a - b) <= rel * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rel) for x, y in zip(a, b))
    return a == b


def _parse_json(call: dict):
    if call.get("rc") != 0:
        return None
    try:
        return json.loads(call["stdout"])
    except (KeyError, ValueError):
        return None


@dataclass
class Plan:
    """One workload body, ready to run from the checkout root."""

    workdir: str
    calls: list[list[str]]
    validate: dict
    workers: int
    ops: int
    config_hash: str
    meta: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of one body's gates."""

    failed: int
    work: float
    summary: dict
    notes: list[str]


class Workload:
    name = ""

    def prepare(self, input_set: int, workdir: str, smoke: bool) -> Plan:
        raise NotImplementedError

    def reset(self, plan: Plan) -> None:
        """Remove a previous body's outputs so no stale file can pass a gate."""

    def summarize(self, plan: Plan, calls: list[dict]) -> dict:
        raise NotImplementedError

    def gate(self, plan: Plan, summary: dict, reference: dict | None) -> Verdict:
        raise NotImplementedError

    def pinned(self, summary: dict) -> dict:
        """The part of a passing body's summary that references.json pins."""
        raise NotImplementedError


class GridWorkload(Workload):
    """``simulate`` then ``plot`` on a generated harness config."""

    def __init__(self, name, n_grid, reps, workers, smoke_n_grid, smoke_schemes):
        self.name = name
        self.n_grid, self.reps, self.workers = n_grid, reps, workers
        self.smoke_n_grid, self.smoke_schemes = smoke_n_grid, smoke_schemes

    def prepare(self, input_set, workdir, smoke):
        os.makedirs(workdir, exist_ok=True)
        workers = self.workers()
        config = dict(GRID_AXES)
        if smoke:
            config["schemes"] = list(self.smoke_schemes)
        config.update(
            n_grid=list(self.smoke_n_grid if smoke else self.n_grid),
            reps=1 if smoke else self.reps,
            master_seed=derive_seed(input_set, "grid"),
            threads=workers,
            output=os.path.join(workdir, "table"),
        )
        text = json.dumps(config, indent=1, sort_keys=True) + "\n"
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w") as fh:
            fh.write(text)
        cells = 1
        for key in ("cases", "schemes", "schedules", "n_grid"):
            cells *= len(config[key])
        return Plan(
            workdir=workdir,
            calls=[
                ["simulate", "--config", config_path],
                ["plot", "--in", config["output"] + ".json", "--out", os.path.join(workdir, "plots")],
            ],
            validate={"kind": "grid", "config": config_path},
            workers=workers,
            ops=cells * config["reps"],
            config_hash=sha256_bytes(text.encode()),
            meta={"table": config["output"], "plots": os.path.join(workdir, "plots")},
        )

    def reset(self, plan):
        for suffix in (".csv", ".json"):
            path = plan.meta["table"] + suffix
            if os.path.exists(path):
                os.remove(path)
        shutil.rmtree(plan.meta["plots"], ignore_errors=True)

    def summarize(self, plan, calls):
        table = plan.meta["table"]
        summary = {"rcs": [c.get("rc") for c in calls], "csv_sha256": None, "failed_reps": None}
        if os.path.exists(table + ".csv"):
            summary["csv_sha256"] = sha256_file(table + ".csv")
        if os.path.exists(table + ".json"):
            with open(table + ".json") as fh:
                rows = json.load(fh)["rows"]
            failed = 0
            for row in rows:
                bad = sum(1 for w in row["winners"] if w < 0)
                failed += bad if bad or not row.get("error") else 1
            summary["failed_reps"] = failed
        plots = plan.meta["plots"]
        summary["plots"] = len(os.listdir(plots)) if os.path.isdir(plots) else 0
        return summary

    def gate(self, plan, summary, reference):
        notes = []
        if any(rc != 0 for rc in summary["rcs"]):
            notes.append(f"exit codes {summary['rcs']}")
        if summary["csv_sha256"] is None or summary["failed_reps"] is None:
            notes.append("frequency table missing")
        elif reference is not None and summary["csv_sha256"] != reference["csv_sha256"]:
            notes.append("frequency CSV differs from the pinned sha256")
        if summary["plots"] < 1:
            notes.append("plot wrote no panels")
        failed = plan.ops if notes else min(plan.ops, summary["failed_reps"])
        if summary["failed_reps"]:
            notes.append(f"{summary['failed_reps']} failed replications")
        return Verdict(failed, plan.ops - failed, summary, notes)

    def pinned(self, summary):
        return {"csv_sha256": summary["csv_sha256"]}


class SelectCsvWorkload(Workload):
    """``select`` on three generated two-column CSVs."""

    name = "select-csv"
    sizes = (1000, 2000, 4000)
    smoke_sizes = (200, 300, 400)

    @staticmethod
    def write_case3_csv(path: str, n: int, seed: int) -> None:
        """x ~ U(0,1), y = 1 + x - exp(-200 (x - 1/4)^2) + 0.3 z, as in case3."""
        gen = random.Random(seed)
        lines = []
        for _ in range(n):
            x = gen.random()
            y = 1.0 + x - math.exp(-200.0 * (x - 0.25) ** 2) + 0.3 * gen.gauss(0.0, 1.0)
            lines.append(f"{x!r},{y!r}\n")
        with open(path, "w") as fh:
            fh.write("".join(lines))

    def prepare(self, input_set, workdir, smoke):
        os.makedirs(workdir, exist_ok=True)
        seed = derive_seed(input_set, "select")
        calls, digest = [], hashlib.sha256()
        for n in self.smoke_sizes if smoke else self.sizes:
            path = os.path.join(workdir, f"case3_n{n}.csv")
            self.write_case3_csv(path, n, derive_seed(input_set, f"csv{n}"))
            argv = ["select", "--data", path, "--procs", SELECT_PROCS,
                    "--scheme", SELECT_SCHEME, "--seed", str(seed)]
            calls.append(argv)
            digest.update(json.dumps(argv).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
        return Plan(
            workdir=workdir,
            calls=calls,
            validate={"kind": "select", "procs": SELECT_PROCS.split(","),
                      "scheme": SELECT_SCHEME, "schedule": "ratio:5:5"},
            workers=1,
            ops=len(calls),
            config_hash=digest.hexdigest(),
        )

    def summarize(self, plan, calls):
        out = []
        for call in calls:
            report = _parse_json(call)
            out.append(None if report is None else {
                "n": report["n"], "winner": report["winner"], "averaged": report["averaged"],
            })
        return {"calls": out}

    def gate(self, plan, summary, reference):
        failed, work, notes = 0, 0, []
        refs = reference["calls"] if reference else [None] * len(summary["calls"])
        for got, ref in zip(summary["calls"], refs):
            if got is None:
                failed += 1
                notes.append("select call failed")
            elif ref is not None and got["winner"] != ref["winner"]:
                failed += 1
                notes.append(f"n={got['n']}: winner {got['winner']} != pinned {ref['winner']}")
            elif ref is not None and not close(got["averaged"], ref["averaged"]):
                failed += 1
                notes.append(f"n={got['n']}: averaged criteria differ from the pinned ones")
            else:
                work += got["n"]
        return Verdict(failed, work, summary, notes)

    def pinned(self, summary):
        return {"calls": summary["calls"]}


class ProbesWorkload(Workload):
    """The exact side: ``prop1 --verify`` at three sizes and one ``diagnose``."""

    name = "probes"
    prop1 = ((20, 10, 2_000_000), (100, 50, 2_000_000), (1000, 900, 200_000))
    smoke_prop1 = ((20, 10, 20_000), (100, 50, 20_000), (1000, 900, 2_000))
    diagnose = {"case": "case3", "n": 400, "reps": 200}
    smoke_diagnose = {"case": "case3", "n": 100, "reps": 50}

    def prepare(self, input_set, workdir, smoke):
        os.makedirs(workdir, exist_ok=True)
        calls = []
        for n, n1, reps in self.smoke_prop1 if smoke else self.prop1:
            calls.append(["prop1", "--n", str(n), "--n1", str(n1), "--reps", str(reps),
                          "--seed", str(derive_seed(input_set, "prop1")), "--verify"])
        diag = self.smoke_diagnose if smoke else self.diagnose
        argv = ["diagnose"]
        for proc in DIAGNOSE_PROCS:
            argv += ["--proc", proc]
        argv += ["--case", diag["case"], "--n", str(diag["n"]), "--reps", str(diag["reps"]),
                 "--seed", str(derive_seed(input_set, "diagnose"))]
        calls.append(argv)
        return Plan(
            workdir=workdir,
            calls=calls,
            validate={"kind": "probes", "procs": DIAGNOSE_PROCS, "case": diag["case"]},
            workers=1,
            ops=len(calls),
            config_hash=sha256_bytes(json.dumps(calls).encode()),
        )

    def summarize(self, plan, calls):
        return {
            "prop1": [_parse_json(c) for c in calls[:-1]],
            "diagnose": _parse_json(calls[-1]),
        }

    def gate(self, plan, summary, reference):
        failed, work, notes = 0, 0, []
        for payload in summary["prop1"]:
            if payload is None:
                failed += 1
                notes.append("prop1 call failed")
                continue
            p, reps = payload["f_reference"], payload["reps"]
            limit = PROP1_SIGMAS * math.sqrt(p * (1.0 - p) / reps)
            checks = payload.get("d_tilde_checks") or {}
            if abs(payload["selection_prob"] - p) > limit:
                failed += 1
                notes.append(f"prop1 n={payload['n']}: selection_prob off f_reference by > 4 SE")
            elif checks.get("signs_agree") is not True or not checks.get("worst_rel_error", 1.0) <= REL_TOL:
                failed += 1
                notes.append(f"prop1 n={payload['n']}: enumeration check failed: {checks}")
            else:
                work += reps * payload["n"]
        diag = summary["diagnose"]
        if diag is None:
            failed += 1
            notes.append("diagnose call failed")
        elif reference is not None and not close(diag, reference["diagnose"]):
            failed += 1
            notes.append("diagnose values differ from the pinned ones")
        return Verdict(failed, work, summary, notes)

    def pinned(self, summary):
        return {"diagnose": summary["diagnose"]}


WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(
            "grid-small",
            n_grid=[100, 400], reps=2, workers=usable_cores,
            smoke_n_grid=[100], smoke_schemes=["single", "rlt:5", "rsv:5"],
        ),
        GridWorkload(
            "grid-large",
            n_grid=[1600], reps=1, workers=lambda: 1,
            smoke_n_grid=[1600], smoke_schemes=["single"],
        ),
        SelectCsvWorkload(),
        ProbesWorkload(),
    )
}
