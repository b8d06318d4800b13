"""Regenerate ``references.json``: the pinned outputs the gates compare to.

    python3 perfbench/pin_references.py

Runs one untraced body of every workload for every input set, and one at
smoke size, and records the outputs the gates pin.  Run it only when the
benchmark's inputs change; a change to the program must pass the gates
against the references as they stand.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import INPUT_SETS, WORKLOADS


def pin(name: str, input_set: int, smoke: bool) -> dict:
    record = run.measure(name, input_set, 60.0, trace=False, smoke=smoke, pinning=True)
    body = record["bodies"][0]
    if not body["ok"] or body["failed"]:
        sys.exit(f"{name} input set {input_set}: body failed: {body['notes']}")
    print(f"{name} input set {input_set}{' (smoke)' if smoke else ''}: "
          f"{body['wall_s']:.2f} s", flush=True)
    return WORKLOADS[name].pinned(body["summary"])


def main() -> int:
    os.chdir(run.ROOT)  # workload paths are relative to the checkout root
    names = sys.argv[1:] or list(WORKLOADS)
    path = os.path.join(run.HERE, "references.json")
    refs = {"smoke": {}, "full": {}}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    for name in names:
        refs["smoke"][name] = {str(run.SMOKE_SEED): pin(name, run.SMOKE_SEED, smoke=True)}
        refs["full"][name] = {str(i): pin(name, i, smoke=False) for i in range(INPUT_SETS)}
        with open(path, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
