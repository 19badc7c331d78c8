"""Quick self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Run from a checkout root.  For seed 0 and seed 4, each workload runs one
small batch untraced and one traced, and its outputs are checked; the
traced batch must reach every entry point its workload is predicted to
use, and coset_probe must not image a disk.  Finally the entry point
must refuse to run, without printing a result, where src/ is missing.
Exits nonzero on the first failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402

REDUCED = {"FIT_DEPTH": 2, "COSET_DEPTH": 3, "SCAN_LENGTH": 5, "DELTA_DEPTH": 8, "COVER_DEPTH": 3}
SEEDS = (0, 4)


def run_batch(workload, index, tracer=None):
    inputs = workload.prepare(index)
    if tracer is not None:
        tracer.active = True
    try:
        result = workload.execute(inputs)
    finally:
        if tracer is not None:
            tracer.active = False
    outcome = workloads.Outcome()
    workload.check(inputs, result, outcome)
    if outcome.failed:
        raise AssertionError(f"{workload.name}: {outcome.reasons}")
    return outcome.attempted


def check_aliases(tracer):
    from schottky import disks, groups, padic, proj

    assert groups.image is disks.image, "groups.image was not patched with disks.image"
    assert disks.valuation is padic.valuation, "disks.valuation was not patched"
    assert proj.Homography.__mul__ is proj.Homography.compose, "__mul__ was not patched"
    assert groups.image.__wrapped__ is not None


def main():
    for name, value in REDUCED.items():
        setattr(workloads, name, value)
    for seed in SEEDS:
        for name, cls in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
                workload = cls(seed, work, {})
                attempted = run_batch(workload, 0)
                tracer = Tracer(dump_dir=work)
                reach = install(tracer)
                try:
                    unreachable = [n for n, count in reach.items() if count == 0]
                    assert not unreachable, f"entry points not found: {unreachable}"
                    check_aliases(tracer)
                    attempted += run_batch(workload, 1, tracer)
                    layers = layer_metrics(tracer)
                finally:
                    tracer.uninstall()
                uncalled = [n for n in workload.uses if tracer.calls[n] == 0]
                assert not uncalled, f"{name}: no calls recorded for {uncalled}"
                if name == "coset_probe":
                    assert layers["disks.image.calls"] == 0, "coset_probe imaged a disk"
                if name == "height_count":
                    assert layers["heights.pool_workers"] >= 1, "no pool worker reported counts"
                print(f"ok {name} seed {seed}: {attempted} operations checked")
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as bare:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=ignore)
        argv = ["--workload", "proper_fit", "--seed", "0", "--seconds", "1"]
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", *argv],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without src/"
        print("ok refuses to run without src/")


if __name__ == "__main__":
    main()
