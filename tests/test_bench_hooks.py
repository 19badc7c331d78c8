"""The benchmark tracer still finds every library name it wraps or reads.

``perfbench/tracer.py`` patches entry points by identity and reads two
group caches by attribute name, so a rename in the library would only
show as a failed self-check of a traced benchmark run.  This test loads
the tracer from its file and runs its hooks once.
"""

import importlib.util
from pathlib import Path

from schottky.groups import sample_group

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
