import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "chembench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("chembench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer", load_layers(), ids=lambda layer: layer[2])
def test_every_traced_layer_names_a_chemspace_function(layer):
    # The benchmark's tracer replaces these names; one that no longer
    # resolves makes a traced run fail with an AttributeError.
    module_name, attr = layer[0], layer[1]
    owner = importlib.import_module(f"chemspace.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
