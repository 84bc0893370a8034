"""The repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each operation is one whole simulator run
in a fresh Python process (``op.py``), one at a time: a closed loop with
one client.  Operations repeat the same input (fixed by ``--seed``) until
``--seconds`` have been measured, with at least ``MIN_OPS`` of them, and
every metric is the median over the run's operations.

``--trace 0`` reports the end-to-end metrics of ``metrics.END_TO_END``.
``--trace 1`` runs cycles of (untraced, traced, tracemalloc[, serial
reference]) operations of the workload and of each configuration traced
with it (``Workload.traced_with``), and reports ``metrics.PER_LAYER``; the
traced operations of the first cycle write their spans as Chrome Trace
Event JSON to ``perfbench/out/<configuration>.trace.json``.

Every operation's output is checked: the run must raise nothing, finish in
time, commit every submitted transaction, be serializable and atomic, and
its summary digest must equal the digest pinned in ``pinned.json`` for the
(workload, seed) pair.  For a seed with no pinned digest the operations of
the run must agree with each other.  ``procs-2w``'s digest must also equal
the serial engine's for the same model and seed (pinned, or computed by a
serial reference operation).  A failed check fails the operation; the
failures and their exception types are printed before the result line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every operation passed, 1 when one failed, and 2 (with no result
line) when the benchmark cannot run at all, e.g. outside a checkout that
holds the program's sources.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, per
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Operations per run, at the least, so that every metric is a median.
MIN_OPS = 3
#: How long a run may last past ``--seconds``: the warm-up plus the
#: operation (or trace cycle) in flight when ``--seconds`` run out.  An
#: operation still running then is killed and counted failed.
OVERRUN_S = 90.0
#: Transactions in the untimed warm-up operation (compiles every module).
WARMUP_LENGTH = 20


def op_command(workload, seed, mode="plain", *, serial=False, trace_out=None, length=None):
    """The command line of one operation."""
    cmd = [sys.executable, str(HERE / "op.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--mode", mode]
    if serial:
        cmd.append("--serial")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if length is not None:
        cmd += ["--length", str(length)]
    return cmd


def _reap_group(pgid: int) -> None:
    """Kill anything left in an operation's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_op(cmd, timeout: float) -> dict:
    """Run one operation in a fresh process; its parsed result or a failure."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        detail = f"exceeded {timeout:.0f} s"
        return {"ok": False, "error": "Timeout", "detail": detail, "elapsed": timeout}
    finally:
        _reap_group(proc.pid)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        result = {"ok": False, "error": "NoResult", "detail": tail[0][:300]}
    if proc.returncode != 0 and result.get("ok"):
        result = {"ok": False, "error": "ExitCode", "detail": str(proc.returncode)}
    result["elapsed"] = time.monotonic() - started
    return result


class Checker:
    """Output checks of every operation of one run (see the module docstring)."""

    def __init__(self, seed: int, pinned: dict) -> None:
        self.seed = seed
        self.digests = pinned["digests"]
        #: Workload -> the digest every operation of it must produce.  A
        #: parallel workload's pinned digest is the serial engine's, so
        #: matching it is also the serial-equality check.
        self.expected = {}
        self.failures = collections.Counter()
        self.attempted = 0

    def pinned(self, workload: str) -> bool:
        """Whether the seed has a pinned digest for ``workload``."""
        return str(self.seed) in self.digests.get(workload, {})

    def check(self, workload: str, result: dict) -> bool:
        """Count ``result`` as attempted; True when it passes every check."""
        self.attempted += 1
        problem = self._problem(workload, result)
        if problem is not None:
            self.failures[problem] += 1
            print(f"operation failed: {problem}: {result.get('detail', '')}", file=sys.stderr)
            return False
        return True

    def _problem(self, workload: str, result: dict):
        if not result.get("ok"):
            return result.get("error", "Unknown")
        if not result["serializable"]:
            return "NotSerializable"
        if not result["atomic"]:
            return "NotAtomic"
        if not result["committed"] == result["submitted"] == result["length"]:
            return "NotAllCommitted"
        if workload not in self.expected:
            pinned = self.digests.get(workload, {}).get(str(self.seed))
            self.expected[workload] = pinned or result["digest"]
        if result["digest"] != self.expected[workload]:
            if WORKLOADS[workload].parallel and not result["serial"]:
                return "SerialDigestMismatch"
            if self.pinned(workload):
                return "DigestMismatch"
            return "DigestDiffersBetweenOperations"
        if WORKLOADS[workload].parallel and not result["serial"]:
            if result["engine_stats"].get("backend") != "process":
                return "ProcessBackendFellBack"
        return None


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(plain: list) -> dict:
    """The end-to-end metrics from the passing untraced operations."""
    return {
        "txn_per_s": median(r["committed"] / r["wall_s"] for r in plain),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in plain),
        "setup_s": median(r["setup_s"] for r in plain),
    }


def per_layer(cycles: list) -> dict:
    """The per-layer metrics of one workload from passing cycles of its
    (plain, trace, mem[, serial]) operations."""
    plain = [c["plain"] for c in cycles]
    traced = [c["trace"]["layers"] for c in cycles]
    counts = [r["counts"] for r in plain]
    engine = [r["engine_stats"] for r in plain]
    values = {name: median(t[name] for t in traced) for name in traced[0]}
    values.update({name: median(c[name] for c in counts) for name in counts[0]})
    values["sim.events_per_s"] = median(r["counts"]["sim.events"] / r["sim_s"] for r in plain)
    values["system.build_s"] = median(r["build_s"] for r in plain)
    values["system.load_s"] = median(r["load_s"] for r in plain)
    values["workload.generate_s"] = median(r["generate_s"] for r in plain)
    values["parallel.windows"] = median(e.get("windows", 0) for e in engine)
    values["parallel.events_per_window"] = median(
        per(e.get("events_total", 0), e.get("windows", 0)) for e in engine
    )
    values["parallel.bytes_per_event"] = median(
        per(e.get("bytes_shipped", 0) + e.get("bytes_received", 0), e.get("events_total", 0))
        for e in engine
    )
    values["parallel.worker_idle_share"] = median(
        per(e.get("worker_idle_seconds", 0), e.get("workers", 0) * r["sim_s"])
        for e, r in zip(engine, plain)
    )
    values["parallel.speedup_vs_serial"] = median(
        c["serial"]["wall_s"] / c["plain"]["wall_s"] if "serial" in c else 0.0 for c in cycles
    )
    values["mem.py_peak_mib"] = median(c["mem"]["py_peak_mib"] for c in cycles)
    values["trace.overhead"] = median(c["trace"]["call_s"] / c["plain"]["call_s"] for c in cycles)
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return values


def measure(args, checker: Checker, deadline: float) -> dict:
    """Run operations for ``args.seconds``; the metric values, or None."""
    start = time.monotonic()
    durations = []
    traced = (args.workload,) + (WORKLOADS[args.workload].traced_with if args.trace else ())

    def op(*mode, workload=args.workload, **options):
        cmd = op_command(workload, args.seed, *mode, **options)
        return run_op(cmd, timeout=max(1.0, deadline - time.monotonic()))

    def more(minimum: int) -> bool:
        """Whether to start another operation (or cycle of operations)."""
        now = time.monotonic()
        typical = median(durations)
        if now + typical >= deadline:
            return False
        return len(durations) < minimum or now - start + typical <= args.seconds

    for name in traced:
        if WORKLOADS[name].parallel and not checker.pinned(name):
            # Unpinned seed: the serial engine's digest of the same model first.
            checker.check(name, op(workload=name, serial=True))

    if not args.trace:
        passed = []
        while more(MIN_OPS):
            result = op()
            durations.append(result["elapsed"])
            if result.get("ok"):
                print(
                    f"operation {len(durations)}: wall {result['wall_s']:.3f} s, "
                    f"set-up {result['setup_s']:.3f} s",
                    file=sys.stderr,
                )
            if checker.check(args.workload, result):
                passed.append(result)
        return end_to_end(passed) if passed else None

    cycles = {name: [] for name in traced}
    while more(1):
        began = time.monotonic()
        for name in traced:
            trace_out = None if durations else HERE / "out" / f"{name}.trace.json"
            cycle = {
                "plain": op(workload=name),
                "trace": op("trace", workload=name, trace_out=trace_out),
                "mem": op("mem", workload=name),
            }
            if WORKLOADS[name].parallel:
                cycle["serial"] = op(workload=name, serial=True)
            if all([checker.check(name, result) for result in cycle.values()]):
                cycles[name].append(cycle)
        durations.append(time.monotonic() - began)
    if not all(cycles.values()):
        return None
    values = per_layer(cycles[args.workload])
    for name in traced[1:]:
        # A configuration traced with the workload contributes the metrics
        # of the layer that only it loads.
        own = per_layer(cycles[name])
        values.update({metric: own[metric] for metric in PER_LAYER if PER_LAYER[metric][4] == name})
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + OVERRUN_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    checker = Checker(args.seed, pinned)
    if not checker.pinned(args.workload):
        print(
            f"note: no pinned digest for ({args.workload}, seed {args.seed}); "
            "checking that the run's operations agree",
            file=sys.stderr,
        )
    warm_up = op_command(args.workload, args.seed, length=WARMUP_LENGTH)
    warm = run_op(warm_up, timeout=deadline - time.monotonic())
    if warm.get("ok"):
        values = measure(args, checker, deadline)
    else:
        checker.check(args.workload, warm)
        values = None
    table = PER_LAYER if args.trace else END_TO_END
    if values is None:
        values = {name: 0.0 for name in table}
    failed = sum(checker.failures.values())
    for problem, count in sorted(checker.failures.items()):
        print(f"failures: {problem} x{count} of {checker.attempted} operations")
    metrics = {name: {"value": values[name], "unit": table[name][0]} for name in table}
    result = {"correct": failed == 0, "attempted": checker.attempted, "failed": failed}
    print(json.dumps(dict(result, metrics=metrics)))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
