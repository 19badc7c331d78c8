"""Rewrite expected.json, the outputs the benchmark checks against.

    python3 perfbench/record.py

Run from a checkout root, and only when a change alters the library's
outputs on purpose: every recorded value comes from the code as it is.
Cross-multiplier coset counts and the envelope constants depend on the
prime only; the height scan on the prime and the generator order; the
CLI stream digest is kept for seeds 0..STREAM_SEEDS-1, and other seeds
get the semantic checks alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
STREAM_SEEDS = 64
SEEDS = {
    "proper_fit": range(3),
    "coset_probe": range(3),
    "height_count": range(12),
    "cli_queries": range(STREAM_SEEDS),
}


def record(workload, seed, work):
    batches = "5" if workload == "cli_queries" else "1"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--phase", "record", "--batches", batches, "--work", work]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    expected = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        for workload, seeds in SEEDS.items():
            table = expected.setdefault(workload, {})
            for seed in seeds:
                for key, value in record(workload, seed, work).items():
                    if isinstance(value, dict) and workload == "cli_queries":
                        table.setdefault(key, {}).update(value)
                    else:
                        table[key] = value
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
