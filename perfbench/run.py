"""Benchmark command: time one workload of the wgstokes CLI and check its output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a wgstokes checkout; it imports the package from
``src/`` there and writes its records under ``.perfbench_out/``.  Every
round, set-up sample and check runs in a fresh worker process.

--trace 0 runs whole rounds until S seconds have passed (at least one),
samples set-up at least SETUP_SAMPLES times, and reports the medians of
``setup_s``, ``wall_s`` and ``peak_rss_mb``.  --trace 1 runs one plain and
one traced round and reports the per-layer metrics of the traced one.
Either way the checks of checks.py then run on the output, and the last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from outputs import count_operations, parse_infsup_stdout, parse_study_csv
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
SETUP_SAMPLES = 3
# One BLAS thread: on a 2-core machine two threads were no faster, used
# both cores and spread the round times twice as wide (see README.md).
BLAS_THREADS = "1"
WORKER_TIMEOUT = 170.0


class BenchError(RuntimeError):
    pass


def unit_of(name):
    """Units follow the metric names: *_s seconds, *_mb megabytes, else counts."""
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_mb") else "count"


def nproc():
    return len(os.sched_getaffinity(0))


def spawn(mode, workload, seed, outdir, trace=False):
    """Run one worker to its end and return its JSON result."""
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload.name, str(seed),
            str(outdir), str(pathlib.Path.cwd() / "src")]
    argv.append(repr(time.monotonic()))
    if trace:
        argv.append("--trace")
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} worker timed out after {WORKER_TIMEOUT:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round_rows(workload, outdir):
    if workload.command == "study":
        return parse_study_csv((outdir / "study.csv").read_text())
    return parse_infsup_stdout((outdir / "stdout.txt").read_text())


def round_output(workload, outdir):
    name = "study.csv" if workload.command == "study" else "stdout.txt"
    return (outdir / name).read_text()


def measure(workload, seed, seconds, trace, outroot):
    """Timed rounds, as (outdir, result) pairs.

    Untraced, rounds run back to back while the next one, judged by the
    longest so far, still ends within ``seconds``; the first always runs.
    Traced, one plain round and then one traced round run.
    """
    rounds = []
    if trace:
        for traced in (False, True):
            outdir = outroot / f"round{len(rounds)}"
            rounds.append((outdir, spawn("round", workload, seed, outdir, trace=traced)))
        return rounds
    begin, longest = time.monotonic(), 0.0
    while not rounds or time.monotonic() - begin + longest <= seconds:
        outdir = outroot / f"round{len(rounds)}"
        t0 = time.monotonic()
        rounds.append((outdir, spawn("round", workload, seed, outdir)))
        longest = max(longest, time.monotonic() - t0)
    return rounds


def run(args):
    workload = WORKLOADS[args.workload]
    root = pathlib.Path.cwd()
    if not (root / "src" / "wgstokes" / "__init__.py").is_file():
        raise BenchError(f"no wgstokes sources under {root / 'src'}; run from a checkout root")
    outroot = root / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    started = time.monotonic()
    rounds = measure(workload, args.seed, args.seconds, args.trace, outroot)

    attempted = failed = 0
    for outdir, result in rounds:
        a, f = count_operations(workload, round_rows(workload, outdir))
        attempted, failed = attempted + a, failed + f
    first = round_output(workload, rounds[0][0])
    same = all(round_output(workload, outdir) == first for outdir, _ in rounds)
    exit_codes = [result["exit_code"] for _, result in rounds]

    # the check worker sets up like any other, so its set-up is a sample too
    checked = spawn("check", workload, args.seed, rounds[0][0])
    setups = [result["setup_s"] for _, result in rounds] + [checked["setup_s"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn("setup", workload, args.seed, outroot / "setup")["setup_s"])
    checks = checked["checks"] + [
        {"name": "rounds byte-identical", "ok": same, "value": len(rounds), "limit": None},
        {"name": "CLI exit status", "ok": set(exit_codes) == {0}, "value": exit_codes, "limit": 0},
    ]
    correct = all(c["ok"] for c in checks)

    plain = [result for _, result in rounds if "layers" not in result]
    if args.trace:
        traced = rounds[-1][1]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain[0]["wall_s"]
    else:
        samples = {
            "setup_s": setups,
            "wall_s": [r["wall_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    record = {
        "workload": workload.name,
        "argv": workload.argv("study.csv"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": dict(checked["machine"], nproc=nproc(), cpu_count=os.cpu_count()),
        "rounds": [result for _, result in rounds],
        "setup_samples": setups,
        "checks": checks,
        "notes": checked["notes"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "elapsed_s": time.monotonic() - started,
    }
    (outroot / "result.json").write_text(json.dumps(record, indent=1))
    report(record)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }


def report(record):
    """Human-readable summary; the JSON result follows it."""
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {len(record['rounds'])}  setup samples {len(record['setup_samples'])}")
    print(f"machine: nproc {m['nproc']}, Python {m['python']}, NumPy {m['numpy']}, "
          f"SciPy {m['scipy']}, BLAS {m['numpy_blas']}, threads {m['blas_threads']}")
    for check in record["checks"]:
        print(f"  {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['value']} "
              f"(limit {check['limit']})")
    for note in record["notes"]:
        print(f"  note {note['name']}: {note['value']}")
    print(f"operations: attempted {record['attempted']}, failed {record['failed']}")
    for name, value in record["metrics"].items():
        print(f"  {name:<30} {value:14.6f} {unit_of(name)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
