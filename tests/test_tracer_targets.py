import importlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", SCRIPT)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def resolves(mod_name: str, path: str) -> bool:
    """Whether the tracer's lookup, vars(owner)[attr], finds a callable."""
    owner = importlib.import_module(mod_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return False
    return callable(vars(owner).get(attr))


def test_every_trace_target_resolves():
    # a renamed or deleted target breaks every traced benchmark run
    missing = [f"{mod}:{path}" for mod, path, _, _ in tracer.TARGETS
               if not resolves(mod, path)]
    assert not missing
