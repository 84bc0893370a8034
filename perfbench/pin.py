"""Pin the benchmark's expected outputs and write its definition files.

    python3 perfbench/pin.py

Run from the repository root.  For every workload and every seed in
``0 .. PIN_SEEDS-1`` it runs one untraced operation (``procs-2w`` on the serial
engine, so that its pinned digest *is* the serial digest) and records:

* the sha256 of the canonical ``RunResult.summary()`` per (workload, seed);
* each run's simulated end time against its last arrival time, the evidence
  that a workload runs below saturation (the backlog drains within a few
  time units of the last arrival).

It writes ``perfbench/pinned.json`` with what is derived from runs and
configurations: the digests, the saturation evidence and each workload's
canonical configuration.  Why a workload was chosen and the layers it
loads and bypasses stay in ``workloads.py``; each metric's definition and
target stays in ``metrics.py``.  It also regenerates ``BENCHMARK.json``
from those two modules.  Re-pin only when a change is meant to alter
simulation outputs.
"""

from __future__ import annotations

import concurrent.futures
import json
import sys

from metrics import END_TO_END, PER_LAYER
from run import HERE, ROOT, Checker, op_command, run_op
from workloads import BENCHMARKED, WORKLOADS, build

#: Seconds one measured run lasts (``BENCHMARK.json`` ``run_seconds``).
#: Host speed drifts over minutes on small shared VMs, so runs are as long
#: as the benchmark's total time limit allows for two workloads.
RUN_SECONDS = 55
#: Longest one pinning operation may take.
PIN_TIMEOUT_S = 300.0
#: Seeds pinned per workload: ``0 .. PIN_SEEDS-1``.
PIN_SEEDS = 64
#: Pinning operations run at once (one per CPU of a 2-CPU machine).
PIN_JOBS = 2


def benchmark_definition() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name].why} for name in BENCHMARKED],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _definition) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _layer, _metric, _workload) in PER_LAYER.items()
        ],
    }


def workload_record(name: str) -> dict:
    """One workload's configuration, in canonical form."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.store.keys import canonical_value

    system, workload, dynamic = build(name, seed=0)
    return {
        "dynamic_selection": dynamic,
        "selection_mode": "cumulative" if dynamic else None,
        "seeds": "SystemConfig.seed = seed, WorkloadConfig.seed = seed + 1",
        "system": canonical_value(system),
        "workload": canonical_value(workload),
    }


def main() -> int:
    jobs = [(name, seed) for name in WORKLOADS for seed in range(PIN_SEEDS)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=PIN_JOBS) as pool:
        futures = {
            job: pool.submit(
                run_op,
                op_command(job[0], job[1], serial=WORKLOADS[job[0]].parallel),
                timeout=PIN_TIMEOUT_S,
            )
            for job in jobs
        }
        results = {job: future.result() for job, future in futures.items()}

    digests = {name: {} for name in WORKLOADS}
    saturation = {name: {} for name in WORKLOADS}
    for (name, seed), result in results.items():
        if not Checker(seed, {"digests": {}}).check(name, result):
            print(f"pin: {name} seed {seed} failed: {result}", file=sys.stderr)
            return 1
        digests[name][str(seed)] = result["digest"]
        saturation[name][str(seed)] = {
            "end_time": result["end_time"],
            "last_arrival": result["last_arrival"],
        }
    pinned = {
        "digests": digests,
        "digest_of": (
            "sha256 of json.dumps(RunResult.summary(), sort_keys=True, "
            "separators=(',', ':')); procs-2w's are the serial engine's"
        ),
        "saturation": {
            name: {
                "max_drain_after_last_arrival": max(
                    s["end_time"] - s["last_arrival"] for s in per_seed.values()
                ),
                "per_seed": per_seed,
            }
            for name, per_seed in saturation.items()
        },
        "workloads": {name: workload_record(name) for name in WORKLOADS},
    }
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(benchmark_definition(), indent=2) + "\n", encoding="utf-8"
    )
    print(f"pinned {len(jobs)} digests; wrote {HERE / 'pinned.json'} and BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
