"""The benchmark tracer's view of the package: every function it wraps
still resolves, and a traced table row runs, so removing or renaming one,
or handing one an argument the tracer cannot size, fails here and not
only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import homoment
from homoment import geometry

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = load_tracer()
TARGETS = TRACER_MODULE.TARGETS


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


def test_traced_table_row_counts_rank():
    # the tracer sizes rank's argument with ``if matrix``, which raises
    # on an ndarray: geometry must keep passing a list of rows
    for _, module, *_ in TARGETS:
        importlib.import_module(f"homoment.{module}")
    tracer = TRACER_MODULE.Tracer()
    tracer.install(homoment)
    try:
        # a defective Veronese row ranks two points
        geometry.veronese_report(2, 5, 4)
    finally:
        tracer.uninstall()
    assert tracer.counts["exactla.rank.calls"] == 2
    assert tracer.counts["exactla.rank.cells"] > 0
