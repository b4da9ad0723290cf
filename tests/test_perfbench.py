import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_wrapped_names_resolve():
    # Tracer.install reads every wrapped name with getattr and no default, so
    # a name dropped from its module breaks perfbench/run.py --trace 1
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, name in tracer.WRAPPED:
        mod = importlib.import_module(f"aspback.{module}")
        assert callable(getattr(mod, name, None)), f"aspback.{module}.{name}"
