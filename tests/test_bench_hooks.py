"""The benchmark tracer still finds every library name it wraps or reads.

``perfbench/tracer.py`` patches entry points by identity and reads two
group caches by attribute name, so a rename in the library would only
show as a failed self-check of a traced benchmark run.  Three tests load
the tracer from its file: one runs its hooks once, one counts the
reductions it sees, and one checks that the package's exported names
follow its patches in and out.  The last
runs the benchmark's own self-test, which checks every workload's output.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import schottky
from schottky.groups import SchottkyGroup, sample_group
from schottky.proj import INFINITY
from schottky.words import Word

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reaches_every_traced_name():
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    try:
        reach = tracer_module.install(tracer)
        assert reach and all(n > 0 for n in reach.values()), reach
        tracer_module._record_caches(tracer, (sample_group(5, 2),), None)
    finally:
        tracer.uninstall()
    assert tracer.maxima["groups.cover_cache.entries"] == 0
    assert tracer.maxima["groups.bdisk_cache.entries"] == 0


def test_tracer_counts_every_reduction():
    # the traced name is an alias of the one reduction body, so calls from
    # reduce_point, coset_key and is_member are all counted once
    assert SchottkyGroup._reduce_with_matrix is SchottkyGroup.reduce_point
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    G = sample_group(5, 2)
    g = G.word_homography(Word((1, -2)))
    try:
        tracer_module.install(tracer)
        tracer.active = True
        G.reduce_point(g.apply(INFINITY))
        G.coset_key(g)
        G.is_member(g)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.calls["groups.reduce"] == 3
    assert tracer.extra["groups.reduce.steps"] == 6
    assert SchottkyGroup._reduce_with_matrix is SchottkyGroup.reduce_point


def package_bindings():
    """Each exported name as the package gives it, with the object its
    defining module binds now."""
    bindings = {}
    for name in schottky.__all__:
        value = getattr(schottky, name)
        bindings[name] = (value, getattr(sys.modules[value.__module__], name))
    return bindings


def test_package_names_follow_the_tracer_in_and_out():
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        traced = package_bindings()
    finally:
        tracer.uninstall()
    restored = package_bindings()
    for name in schottky.__all__:
        assert traced[name][0] is traced[name][1], name
        assert restored[name][0] is restored[name][1], name
    # the tracer wraps some exported functions, and they are unwrapped again
    assert any(hasattr(traced[name][0], "__wrapped__") for name in schottky.__all__)
    assert not any(hasattr(restored[name][0], "__wrapped__") for name in schottky.__all__)


def test_benchmark_selftest_passes():
    # every workload's output check and traced entry point, at reduced sizes
    root = TRACER.parent.parent
    run = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
