"""One benchmark process: set up a workload, run its batches, check them.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/ and a fixed PYTHONHASHSEED.  Prints one JSON line.

    phase setup   time the set-up only
    phase run     set up, then run batches for --seconds (or exactly
                  --batches), timing each; --trace 1 wraps the library's
                  entry points while batches execute
    phase record  run --batches batches and print the values that
                  expected.json keeps for this seed
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def reference_loop():
    """Fixed interpreter work that calls nothing in the library: Fraction
    arithmetic, tuple and dict allocation and a heap, as the library's hot
    paths do.  Its time tracks the speed the host gives this process, so
    that batch times can be read relative to it."""
    heap, total, table = [], Fraction(0), {}
    for i in range(1, 4000):
        f = Fraction(i * 7919 % 1000003, i % 89 + 1)
        total += f
        heapq.heappush(heap, (f, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i, i % 13] = f
    return total


def time_reference():
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run", "record"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-batches", type=int, default=1)
    parser.add_argument("--batches", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    expected = {}
    if args.phase != "record":
        with open(os.path.join(here, "expected.json")) as fh:
            expected = json.load(fh).get(args.workload, {})

    t0 = time.perf_counter()
    import schottky

    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[args.workload](args.seed, args.work, expected)
    setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s, "schottky": os.path.abspath(schottky.__file__)}
    if args.phase == "setup":
        print(json.dumps(report))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer(dump_dir=args.work)
        reach = install(tracer)
        report["unreachable"] = sorted(name for name, n in reach.items() if n == 0)

    outcome = Outcome()
    walls, results = [], []
    refs = [time_reference()]  # one before each batch and one after the last
    start = time.perf_counter()
    index = 0
    while True:
        if args.batches:
            if index >= args.batches:
                break
        elif index >= args.min_batches and time.perf_counter() - start >= args.seconds:
            break
        inputs = workload.prepare(index)
        if tracer is not None:
            tracer.active = True
        try:
            t = time.perf_counter()
            result = workload.execute(inputs)
            wall = time.perf_counter() - t
        except Exception:
            outcome.expect(False, traceback.format_exc(limit=3))
            result = None
        finally:
            if tracer is not None:
                tracer.active = False
        if result is not None:
            walls.append(wall)
            refs.append(time_reference())
            try:
                workload.check(inputs, result, outcome)
            except Exception:
                outcome.expect(False, traceback.format_exc(limit=3))
            if args.phase == "record" or hasattr(workload, "latencies"):
                results.append(result)
        index += 1

    if args.phase == "record":
        print(json.dumps(workload.record(results)))
        return

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report.update(
        walls=walls,
        refs=refs,
        items=workload.items,
        item=workload.item,
        attempted=outcome.attempted,
        failed=outcome.failed,
        reasons=outcome.reasons,
        peak_rss_mb=usage / 1024.0,
    )
    if hasattr(workload, "latencies"):
        report["latencies"] = workload.latencies(results)
    if tracer is not None:
        from tracer import layer_metrics

        layers = layer_metrics(tracer)
        report["layers"] = layers
        report["uncalled"] = [name for name in workload.uses if tracer.calls[name] == 0]
        tracer.uninstall()
    print(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
