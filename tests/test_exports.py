import importlib
import pkgutil

import hlk


def test_every_export_resolves():
    # a deleted or renamed helper must not stay behind in an __all__
    missing, checked = [], 0
    for info in pkgutil.iter_modules(hlk.__path__):
        if info.name == "__main__":
            continue    # running it is the CLI
        module = importlib.import_module(f"hlk.{info.name}")
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                missing.append(f"hlk.{info.name}.{name}")
    assert checked and not missing
