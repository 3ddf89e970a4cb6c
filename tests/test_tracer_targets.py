"""The benchmark tracer's view of the package: every function it wraps
still resolves, so removing or renaming one fails here and not only in
a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("prefix,module,attr", [t[:3] for t in TARGETS],
                         ids=[t[0] for t in TARGETS])
def test_target_resolves(prefix, module, attr):
    # as Tracer.install looks it up: a function of the module, or a
    # method defined on a class of it
    owner = importlib.import_module(f"homoment.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        target = vars(getattr(owner, cls_name)).get(method)
    else:
        target = getattr(owner, attr, None)
    assert callable(target), f"{prefix}: homoment.{module}.{attr} is gone"
