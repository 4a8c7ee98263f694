"""Spawning, correctness gate and reporting for the fleet-stack benchmark.

The driver is one process that runs one measured process at a time
(:mod:`benchmarks.suite.child`), reads the JSON record each prints, and
never imports the program itself.  Two entry points share it:

* :func:`main_suite` (``python -m benchmarks.suite --seed 1``): every
  workload, ``--repeats`` fresh processes each, interleaved round-robin
  across workloads, plus one traced process per workload; prints every
  metric with its unit and the per-layer table.
* :func:`main_contract` (``python3 benchmarks/suite/run.py --workload W
  --seed S --seconds T --trace 0|1``): one workload; with ``--trace 0``
  fresh processes until ``T`` seconds are used (at least three), with
  ``--trace 1`` pairs of one untraced and one traced process (at least
  one pair).  Each metric is the median over the processes, with host
  times scaled to reference seconds by the host factor each process
  sampled (:mod:`benchmarks.suite.hostspeed`).  The last
  line of stdout is one JSON object: ``correct``, ``attempted``,
  ``failed`` and the metrics named in ``BENCHMARK.json``.

Both exit non-zero when the correctness gate fails: a payload digest or
check value that differs between processes, a report that is not ok,
flagged devices that differ from the expected ones, or a shared-memory
segment left behind.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

from benchmarks.suite.workloads import WORKLOADS

SUITE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE = SUITE_DIR / "baseline.json"

#: Per-process limit; a hung run is killed with its whole process group.
CHILD_TIMEOUT_S = 150
#: A contract run with ``--trace 0`` takes the median of at least this
#: many fresh processes, and at most ``MAX_RUNS``.
MIN_RUNS = 3
MAX_RUNS = 30
#: Grace period for a finished run's stray descendants to exit.
REAP_GRACE_S = 10


class SuiteError(Exception):
    """A measured process failed to run or to report."""


def metric_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


# ---------------------------------------------------------------------------
# Running one measured process.

_PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt orphaned descendants (the resource tracker outlives its
    parent for a moment), so every process a run starts is waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int) -> None:
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.01)


def spawn(
    workload: str,
    seed: int,
    *,
    quick: bool = False,
    trace: bool = False,
    inject: bool = False,
) -> dict:
    """Run one fresh measured process; returns its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, "-m", "benchmarks.suite.child", workload,
            "--seed", str(seed)]
    argv += [flag for flag, on in (("--quick", quick), ("--trace", trace),
                                   ("--inject", inject)) if on]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv + ["--spawned-at", repr(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SuiteError(
            f"{workload}: run exceeded {CHILD_TIMEOUT_S}s and was killed"
        )
    finally:
        _reap_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise SuiteError(
            f"{workload}: run exited {proc.returncode}\n{tail}"
        )
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Metrics and the correctness gate.

#: How each end-to-end metric is read from one record.  Times are in
#: reference seconds: divided by the host factor the measured process
#: sampled over the same window (:mod:`benchmarks.suite.hostspeed`).
#: Host time and summed CPU are never mixed with simulated cycles.
END_TO_END = {
    "ops_per_s": lambda r: r["ops"] * r["host_call"] / r["wall_s"],
    "cpu_ms_per_op": lambda r: r["cpu_s"] / r["host_call"] * 1e3 / r["ops"],
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
    "setup_s": lambda r: r["setup_s"] / r["host_setup"],
}
#: The same, read as the host's clocks gave them; printed, not reported.
RAW = {
    "ops_per_s": lambda r: r["ops"] / r["wall_s"],
    "cpu_ms_per_op": lambda r: r["cpu_s"] * 1e3 / r["ops"],
    "setup_s": lambda r: r["setup_s"],
}


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile and sample count."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median,
                "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def gate(records: list[dict]) -> list[str]:
    """Everything that makes the runs of one workload incorrect."""
    problems = []
    for index, record in enumerate(records):
        label = "traced" if record["trace"] else f"run {index + 1}"
        problems += [
            f"{record['workload']} {label}: {problem}"
            for problem in record["problems"]
        ]
    name = records[0]["workload"]
    digests = sorted({record["payload"] for record in records})
    if len(digests) > 1:
        problems.append(
            f"{name}: payload digest differs across runs: {digests}"
        )
    checks = sorted({str(record["check"]) for record in records})
    if len(checks) > 1:
        problems.append(f"{name}: check value differs across runs: {checks}")
    return problems


def layer_values(traced: list[dict], untraced: list[dict]) -> dict:
    """Median per-layer table of traced records plus the trace's cost."""
    layers = {
        name: [statistics.median(r["layers"][name][0] for r in traced), unit]
        for name, (_value, unit) in traced[0]["layers"].items()
    }
    layers["trace.overhead_ratio"] = [
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced),
        "ratio",
    ]
    return layers


def _repeat(seconds: float, minimum: int, step) -> None:
    """Call ``step`` at least ``minimum`` times, then again only while
    even the slowest call so far would end inside ``seconds``."""
    started = time.monotonic()
    longest = 0.0
    for count in range(1, MAX_RUNS + 1):
        began = time.monotonic()
        step()
        done = time.monotonic()
        longest = max(longest, done - began)
        if count >= minimum and done - started + longest > seconds:
            return


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _raw_line(records: list[dict]) -> str:
    """Median host factor and the medians the host's clocks read."""
    raw = ", ".join(
        f"{name} {_fmt(statistics.median(read(r) for r in records))}"
        for name, read in RAW.items()
    )
    factor = statistics.median(r["host_call"] for r in records)
    return f"  host factor {_fmt(factor)}; unscaled medians: {raw}"


# ---------------------------------------------------------------------------
# python3 benchmarks/suite/run.py --workload W --seed S --seconds T --trace 0|1


def _result(correct: bool, records: list[dict], metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main_contract(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="One measured run of one workload (BENCHMARK.json)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (tests only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _become_subreaper()
    spec = metric_spec()
    untraced: list[dict] = []
    traced: list[dict] = []

    def run_pair():
        untraced.append(spawn(args.workload, args.seed, quick=args.quick))
        traced.append(spawn(args.workload, args.seed, quick=args.quick,
                            trace=True))

    try:
        if args.trace:
            _repeat(args.seconds, 1, run_pair)
            records = untraced + traced
            layers = layer_values(traced, untraced)
            metrics = {
                m["name"]: tuple(layers[m["name"]])
                for m in spec["per_layer"]
            }
            for problem in traced[0]["coverage"]:
                print(f"coverage: {problem}")
        else:
            _repeat(args.seconds, MIN_RUNS, lambda: untraced.append(
                spawn(args.workload, args.seed, quick=args.quick)
            ))
            records = untraced
            metrics = {
                m["name"]: (
                    statistics.median(
                        END_TO_END[m["name"]](r) for r in records
                    ),
                    m["unit"],
                )
                for m in spec["end_to_end"]
            }
    except SuiteError as exc:
        print(exc, file=sys.stderr)
        return 1
    problems = gate(records)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{args.workload} seed {args.seed}: {len(records)} process(es), "
          f"payload {records[0]['payload'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {_fmt(value):>12} {unit}")
    if not args.trace:
        print(_raw_line(records))
    print(json.dumps(_result(not problems, records, metrics)))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# python -m benchmarks.suite --seed 1


def _summarize(runs: list[dict], traced: dict, spec: dict) -> dict:
    """One workload's untraced quartiles and traced per-layer table."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    untraced_wall = statistics.median(r["wall_s"] for r in runs)
    return {
        "end_to_end": {
            m["name"]: {
                **quartiles([END_TO_END[m["name"]](r) for r in runs]),
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        },
        "unscaled": _raw_line(runs),
        "failed_ratio": {"failed": failed, "attempted": attempted,
                         "value": failed / attempted},
        "wall_s": untraced_wall,
        "payload": runs[0]["payload"],
        "traced_payload": traced["payload"],
        "check": runs[0]["check"],
        "layers": layer_values([traced], runs),
        "spans": traced["spans"],
        "processes": traced["processes"],
        "coverage": traced["coverage"],
    }


def _print_workload(name: str, seed: int, summary: dict) -> None:
    workload = WORKLOADS[name]
    print(f"== {name}: {workload.loop}, one op = one {workload.op}, "
          f"seed {seed} ==")
    for metric, row in summary["end_to_end"].items():
        print(f"  {metric:<16} {_fmt(row['median']):>10} {row['unit']:<6}"
              f" q1 {_fmt(row['q1'])}  q3 {_fmt(row['q3'])}  n={row['n']}")
    print(summary["unscaled"])
    failed = summary["failed_ratio"]
    print(f"  {'failed_ratio':<16} {failed['value']:>10.4g} ratio "
          f"  ({failed['failed']} of {failed['attempted']} attempted)")
    check = summary["check"]
    print(f"  payload sha256 {summary['payload'][:16]}…"
          + (f"; simulated latency p99 {check} cycles"
             if check is not None else ""))
    print(f"  timed wall median {summary['wall_s']:.3f}s (host seconds)")
    total = sum(p["process_cpu"] for p in summary["processes"])
    print("  spans (traced run; self time is thread CPU, share of all "
          "process CPU):")
    for span, row in sorted(summary["spans"].items(),
                            key=lambda item: -item[1]["self_cpu_s"]):
        share = row["self_cpu_s"] / total if total else 0.0
        print(f"    {span:<26} {row['calls']:>8} calls "
              f"{row['self_cpu_s']:>9.4f}s {share:>7.1%}")
    print("  per-layer metrics:")
    for metric, (value, unit) in summary["layers"].items():
        print(f"    {metric:<32} {_fmt(value):>12} {unit}")
    for proc in summary["processes"]:
        print(f"  process {proc['pid']}: CPU {proc['process_cpu']:.4f}s"
              f" = layers {proc['layer_cpu']:.4f}s + unattributed "
              f"{proc['unattributed']:.4f}s "
              f"({proc['unattributed_share']:.1%})")
    for problem in summary["coverage"]:
        print(f"  coverage: {problem}")
    if not summary["coverage"]:
        print("  coverage: every wrapper fired its expected count")


def main_suite(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Every workload, end to end and layer by layer.",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh untraced processes per workload")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (tests only)")
    parser.add_argument("--inject-violation", action="store_true",
                        help="break the traced run's inputs; must fail")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"record the results in {BASELINE.name}")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    _become_subreaper()
    spec = metric_spec()
    records: dict[str, list[dict]] = {name: [] for name in args.workloads}
    traced: dict[str, dict] = {}
    try:
        for _ in range(args.repeats):
            for name in args.workloads:
                records[name].append(spawn(name, args.seed, quick=args.quick))
        for name in args.workloads:
            traced[name] = spawn(name, args.seed, quick=args.quick,
                                 trace=True, inject=args.inject_violation)
    except SuiteError as exc:
        print(exc, file=sys.stderr)
        return 1

    problems: list[str] = []
    summary: dict = {}
    for name in args.workloads:
        problems += gate(records[name] + [traced[name]])
        summary[name] = _summarize(records[name], traced[name], spec)
        _print_workload(name, args.seed, summary[name])

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"verdict: {'FAIL' if problems else 'OK'}")
    if args.write_baseline:
        from benchmarks._util import detect_host_cores

        BASELINE.write_text(json.dumps({
            "seed": args.seed,
            "repeats": args.repeats,
            "quick": args.quick,
            "host": {
                "cores": detect_host_cores(),
                "machine": platform.machine(),
                "python": platform.python_version(),
            },
            "workloads": summary,
        }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"ok": not problems, "problems": problems,
                      "workloads": summary}))
    return 1 if problems else 0
