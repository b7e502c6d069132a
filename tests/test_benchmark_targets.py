"""The benchmark traces library functions by module and attribute name.

A target whose attribute is gone is recorded as absent, and the per-layer
metrics built on it silently drop out of a traced run, so every name in
``perfbench/layers.py`` must resolve in the library.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_is_a_library_callable(monkeypatch):
    # layers.py imports its sibling ``spans`` by its bare name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    missing = [f"{t.module}.{t.attr}" for t in layers.TARGETS
               if not callable(getattr(importlib.import_module(t.module),
                                       t.attr, None))]
    assert missing == []
