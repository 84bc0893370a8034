"""One-shot, ungated scale probe: each workload at 1x and at 10x its length.

    python3 perfbench/scale_probe.py

Run from the repository root.  Runs every workload (seed ``SEED``) once at
its benchmark length and once at ``FACTOR`` times that length, each in a fresh process,
and writes ``perfbench/scale_probe.json``: the ``txn_per_s`` ratio (10x over
1x), the ``peak_rss_mib`` ratio, and the exception type of any run that
failed.  A flat system reads ratios near 1.0.  Single runs on a noisy
machine: read the ratios as orders of magnitude, not as gates.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from run import HERE, op_command, run_op
from workloads import WORKLOADS

#: A 10x run may take minutes; it is killed after this long.
PROBE_TIMEOUT_S = 900.0
#: The benchmark seed every probe run uses.
SEED = 0
#: How many times its benchmark length a workload runs in the scaled run.
FACTOR = 10


def machine() -> dict:
    """The hardware and interpreter the probe ran on."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "system": platform.system(),
    }


def summarise(result: dict) -> dict:
    """The fields of one operation the probe records."""
    if not result.get("ok"):
        return {
            "failed": result.get("error"),
            "detail": result.get("detail"),
            "elapsed_s": result["elapsed"],
        }
    return {
        "txn_per_s": result["committed"] / result["wall_s"],
        "wall_s": result["wall_s"],
        "peak_rss_mib": result["peak_rss_mib"],
        "committed": result["committed"],
        "serializable": result["serializable"],
        "atomic": result["atomic"],
    }


def main() -> int:
    rows = {}
    for name, spec in WORKLOADS.items():
        row = {"length_1x": spec.length, "length_scaled": spec.length * FACTOR}
        for key, length in (("run_1x", spec.length), ("run_scaled", spec.length * FACTOR)):
            result = run_op(op_command(name, SEED, length=length), timeout=PROBE_TIMEOUT_S)
            row[key] = summarise(result)
            print(f"{name} at {length}: {row[key]}", file=sys.stderr, flush=True)
        small, big = row["run_1x"], row["run_scaled"]
        if "failed" not in small and "failed" not in big:
            row["txn_per_s_ratio"] = big["txn_per_s"] / small["txn_per_s"]
            row["peak_rss_ratio"] = big["peak_rss_mib"] / small["peak_rss_mib"]
        rows[name] = row
    record = {"seed": SEED, "factor": FACTOR, "machine": machine(), "workloads": rows}
    (HERE / "scale_probe.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    ratios = ("txn_per_s_ratio", "peak_rss_ratio")
    print(json.dumps({name: {key: row.get(key) for key in ratios} for name, row in rows.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
