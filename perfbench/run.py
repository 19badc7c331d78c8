"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload proper_fit --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The run is a closed-loop client: it
starts one worker interpreter at a time and waits for it (the height
scan's worker adds its own process pool of --threads = allotted cores).
Every worker is a fresh interpreter, so group caches start cold.

--trace 0 prints the end-to-end metrics: the median batch wall time, the
throughput it implies, the median set-up time over several fresh
interpreters and the peak memory.  --trace 1 runs the same fixed batches
untraced and then traced, and prints the per-layer metrics.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 170
# batches that every timed run makes, whatever --seconds says
MIN_BATCHES = {"proper_fit": 3, "coset_probe": 3, "height_count": 3, "cli_queries": 5}
# batches of each pass of a traced run
TRACE_BATCHES = {"proper_fit": 2, "coset_probe": 2, "height_count": 2, "cli_queries": 15}

END_TO_END_UNITS = {
    "batch_ref": "ref", "items_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("self_s") or name == "trace.overhead_s":
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_per_call", "_per_bound", "_per_candidate")):
        return "ratio"
    if name == "serialize.bytes_out":
        return "B"
    return "count"


def start_worker(root, env, args, workload, seed, phase, *extra):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--phase", phase, "--work", args.work, *extra]
    # a new process group, so that a timeout also ends the height scan's pool
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)  # whatever the worker left running
    if stdout is None:
        proc.communicate()
        raise BenchError(f"worker {phase} ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {phase} exited {proc.returncode}:\n{stderr[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    src = os.path.join(root, "src") + os.sep
    if not report["schottky"].startswith(src):
        raise BenchError(f"imported {report['schottky']}, not the checkout's src/")
    return report


def percentile(values, fraction):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def timed_run(root, env, args):
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(start_worker(root, env, args, args.workload, args.seed, "setup")["setup_s"])
    report = start_worker(
        root, env, args, args.workload, args.seed, "run",
        "--seconds", str(args.seconds), "--min-batches", str(MIN_BATCHES[args.workload]),
    )
    setups.append(report["setup_s"])
    walls, refs = report["walls"], report["refs"]
    if not walls:
        raise BenchError("no batch completed")
    # each batch against the mean of the reference loops just before and after it
    relative = [wall / ((refs[i] + refs[i + 1]) / 2) for i, wall in enumerate(walls)]
    batch_ref = statistics.median(relative)
    metrics = {
        "batch_ref": batch_ref,
        "items_per_ref": report["items"] / batch_ref,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    info = {
        "batches": len(walls),
        "item": report["item"],
        "items_per_batch": report["items"],
        "batch_s": statistics.median(walls),
        "reference_s": statistics.median(refs),
        "setup_samples": len(setups),
    }
    if "latencies" in report:
        info["latency_ms"] = {
            kind: {"p50": 1000 * percentile(v, 0.5), "p90": 1000 * percentile(v, 0.9), "n": len(v)}
            for kind, v in sorted(report["latencies"].items())
        }
    return report, metrics, info


def traced_run(root, env, args):
    batches = str(TRACE_BATCHES[args.workload])
    plain = start_worker(root, env, args, args.workload, args.seed, "run", "--batches", batches)
    traced = start_worker(
        root, env, args, args.workload, args.seed, "run", "--batches", batches, "--trace", "1"
    )
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = sum(traced["walls"]) - sum(plain["walls"])
    latencies = plain.get("latencies", {})
    for kind in ("delta", "reduce"):
        samples = latencies.get(kind, [])
        metrics[f"cli.{kind}.p50_ms"] = 1000 * percentile(samples, 0.5)
        metrics[f"cli.{kind}.p90_ms"] = 1000 * percentile(samples, 0.9)
        metrics[f"cli.{kind}.samples"] = len(samples)
    report = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "reasons": plain["reasons"] + traced["reasons"],
    }
    problems = [f"no calls recorded for {name}" for name in traced["uncalled"]]
    problems += [f"entry point {name} not found" for name in traced["unreachable"]]
    info = {"batches": len(traced["walls"]), "self_check": problems or "ok"}
    return report, metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_BATCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "schottky", "__init__.py")):
        print("perfbench: run from a checkout root holding src/schottky", file=sys.stderr)
        return 2
    args.work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(args.work, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    try:
        # compiles bytecode so that no measured set-up pays for it
        start_worker(root, env, args, args.workload, args.seed, "setup")
        if args.trace:
            report, metrics, info, problems = traced_run(root, env, args)
        else:
            report, metrics, info = timed_run(root, env, args)
            problems = []
    except (BenchError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(args.work))

    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        cache="cold",
    )
    for reason in report["reasons"] + problems:
        print(f"perfbench: {reason}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    units = END_TO_END_UNITS if not args.trace else {n: layer_unit(n) for n in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": report["failed"] == 0 and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
