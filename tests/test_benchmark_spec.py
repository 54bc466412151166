"""Every per-layer metric that BENCHMARK.json declares names code that the tracer finds.

perfbench's tracer wraps each public function of ``grg.<layer>`` whose
``__module__`` is that layer, and a traced run exits 2 when a declared
``<layer>.<function>.calls|self_s`` metric names no such function.  These
tests apply the same rule without running the benchmark.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
FUNCTIONS = sorted({name.rsplit(".", 1)[0] for name in PER_LAYER
                    if name.count(".") == 2 and name.endswith((".calls", ".self_s"))})
LAYERS = [name.split(".")[0] for name in PER_LAYER
          if name.count(".") == 1 and name.endswith(".self_s")]


@pytest.mark.parametrize("name", FUNCTIONS)
def test_function_metric_names_a_public_function_of_its_layer(name):
    layer, function = name.split(".")
    module = importlib.import_module(f"grg.{layer}")
    fn = getattr(module, function, None)
    assert not function.startswith("_") and inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__, name


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_metric_names_a_module(layer):
    importlib.import_module(f"grg.{layer}")
