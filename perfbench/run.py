"""cv-arbiter benchmark: four workloads through ``cv_arbiter.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each body runs in a fresh interpreter
(``child.py``) with ``src`` on ``PYTHONPATH``.  A run repeats bodies until
``--seconds`` would be exceeded (at least ``MIN_BODIES``), sets up
``SETUP_SAMPLES`` times in all, and reports medians.  ``--trace 0``
reports the end-to-end metrics of untraced bodies; ``--trace 1`` runs one
untraced and one traced body and reports the per-layer metrics of the
traced one.  The last line of standard output is the result JSON; a
fuller record is written to ``.perfbench_out/``.

``--smoke`` runs all four workloads at tiny sizes, untraced and traced,
and checks every metric ``BENCHMARK.json`` names is present with its unit.

Stdlib only: numpy and the program are imported in the child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS, usable_cores  # noqa: E402

OUT_DIR = ".perfbench_out"  # relative to ROOT; listed in .gitignore
MIN_BODIES = 2
MAX_BODIES = 12
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s it is allowed
SMOKE_SEED = 0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def source_hash() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cv_arbiter")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Launches child interpreters for one workload plan within a deadline."""

    def __init__(self, plan, deadline: float):
        self.plan = plan
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.spec_path = os.path.join(ROOT, plan.workdir, "spec.json")
        self.spans_path = os.path.join(ROOT, plan.workdir, "spans.json")
        with open(self.spec_path, "w") as fh:
            json.dump({"root": ROOT, "calls": plan.calls, "validate": plan.validate,
                       "spans_path": self.spans_path}, fh)

    def launch(self, mode: str) -> dict | None:
        """Run one child; None when it fails or overruns the deadline."""
        result_path = os.path.join(ROOT, self.plan.workdir, f"result-{mode}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            return None
        t_launch = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), self.spec_path, mode,
                 repr(t_launch), result_path],
                cwd=ROOT, env=self.env, timeout=timeout,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} child overran the run deadline", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"perfbench: {mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}",
                  file=sys.stderr)
            return None
        with open(result_path) as fh:
            return json.load(fh)


def run_body(workload, plan, runner, reference, mode: str) -> dict:
    """One body in a fresh process, gated; returns its sample."""
    workload.reset(plan)
    started = time.monotonic()
    res = runner.launch(mode)
    elapsed = time.monotonic() - started
    if res is None:
        return {"ok": False, "failed": plan.ops, "work": 0, "elapsed_s": elapsed,
                "notes": ["child failed"], "summary": None}
    verdict = workload.gate(plan, workload.summarize(plan, res["calls"]), reference)
    return {
        "ok": True, "elapsed_s": elapsed, "setup_s": res["setup_s"], "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"], "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "failed": verdict.failed, "work": verdict.work, "notes": verdict.notes,
        "summary": verdict.summary, "setup_absent": res["setup_absent"],
        "call_walls": [round(c["wall_s"], 4) for c in res["calls"]],
        "trace": res.get("trace"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            pinning: bool = False) -> dict:
    """One benchmark run; returns the full record.

    ``pinning`` runs a single body without reference gates, for
    ``pin_references.py``.
    """
    workload = WORKLOADS[name]
    input_set = SMOKE_SEED if smoke else seed % INPUT_SETS
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    plan = workload.prepare(input_set, os.path.join(OUT_DIR, name), smoke)
    reference = None
    if not pinning:
        refs = load_references()
        reference = refs.get("smoke" if smoke else "full", {}).get(name, {}).get(str(input_set))
        if reference is None:
            fail(f"no pinned reference for {name} input set {input_set}")
    runner = Runner(plan, deadline)

    # The first interpreter compiles bytecode and warms the page cache;
    # users pay that once, so it is not a set-up sample.
    warm = runner.launch("manifest")
    if warm is None:
        fail("the program could not be imported and set up")

    bodies = []
    if trace:
        bodies.append(run_body(workload, plan, runner, reference, "body"))
        bodies.append(run_body(workload, plan, runner, reference, "traced"))
    else:
        body_start = time.monotonic()
        while len(bodies) < MAX_BODIES:
            bodies.append(run_body(workload, plan, runner, reference, "body"))
            if not bodies[-1]["ok"]:
                break
            spent = time.monotonic() - body_start
            typical = statistics.median(b["elapsed_s"] for b in bodies)
            if len(bodies) >= MIN_BODIES and spent + typical > seconds:
                break
            if smoke or pinning:
                break

    setups = [b["setup_s"] for b in bodies if b["ok"]]
    while len(setups) < (1 if smoke or pinning else SETUP_SAMPLES):
        res = runner.launch("setup")
        if res is None:
            break
        setups.append(res["setup_s"])

    attempted = sum(plan.ops for _ in bodies)
    failed = sum(b["failed"] for b in bodies)
    ok = [b for b in bodies if b["ok"]]
    metrics, notes = {}, {}
    if trace:
        untraced, traced = bodies
        if untraced["ok"] and traced["ok"]:
            with open(runner.spans_path) as fh:
                span_list = json.load(fh)["spans"]
            layer, notes = spans.layer_metrics(
                span_list, plan.workers, traced["wall_s"] - untraced["wall_s"],
                failed / attempted)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    elif ok and setups:
        med = lambda key: statistics.median(b[key] for b in ok)  # noqa: E731
        wall = med("wall_s")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "throughput": {"value": statistics.median(b["work"] / b["wall_s"] for b in ok),
                           "unit": "1/s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }

    manifest = {
        "commit": git_commit(),
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "harness_workers": plan.workers,
        "workload": name,
        "seed": seed,
        "input_set": input_set,
        "config_hash": plan.config_hash,
        "smoke": smoke,
        **warm["manifest"],
    }
    return {
        "manifest": manifest,
        "setup_samples_s": setups,
        "bodies": bodies,
        "notes": notes,
        "elapsed_s": time.monotonic() - started,
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def report(record: dict) -> None:
    """Human-readable lines; the result JSON is printed last by the caller."""
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    for i, b in enumerate(record["bodies"]):
        if b["ok"]:
            print(f"body {i}: wall {b['wall_s']:.4f} s, cpu {b['cpu_s']:.4f} s, "
                  f"rss {b['peak_rss_mb']:.1f} MB, set-up {b['setup_s']:.4f} s, "
                  f"calls {b['call_walls']}, failed {b['failed']}"
                  + (f" ({'; '.join(b['notes'])})" if b["notes"] else ""))
        else:
            print(f"body {i}: FAILED ({'; '.join(b['notes'])})")
        trace = b.get("trace")
        if trace and trace["absent"]:
            print(f"body {i}: traced names absent: {', '.join(trace['absent'])}")
        if b.get("setup_absent"):
            print(f"body {i}: set-up names absent: {', '.join(b['setup_absent'])}")
    print(f"set-up samples (s): {[round(s, 4) for s in record['setup_samples_s']]}")
    for name, m in sorted(record["result"]["metrics"].items()):
        note = record["notes"].get(name)
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f"  [{note}]" if note else ""))


def save(record: dict, tag: str) -> None:
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    with open(os.path.join(ROOT, OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def smoke() -> int:
    """Tiny sizes, all workloads, both modes; every declared metric present."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            record = measure(name, SMOKE_SEED, 1.0, trace, smoke=True)
            save(record, f"smoke-{name}-trace{int(trace)}")
            result = record["result"]
            wanted = declared["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            for metric in wanted:
                have = got.get(metric["name"])
                if have is None:
                    problems.append(f"{name} trace={int(trace)}: {metric['name']} missing")
                elif have["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} unit {have['unit']} "
                                    f"!= {metric['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{name} trace={int(trace)}: undeclared {sorted(extra)}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: failed "
                                f"{result['failed']}/{result['attempted']}")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"failed {result['failed']}/{result['attempted']}, "
                  f"{record['elapsed_s']:.1f} s")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)  # workload paths are relative to the checkout root
    if not os.path.isfile(os.path.join(ROOT, "src", "cv_arbiter", "cli.py")):
        fail(f"no cv_arbiter sources under {ROOT}/src; run from a checkout of the repository")
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    save(record, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
