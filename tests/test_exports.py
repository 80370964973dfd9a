import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_absolute_hlk_imports():
    # scripts/ab_inproc.py loads two copies of the package under other
    # names; an absolute import inside one would load the other copy
    absolute = []
    for path in sorted(Path(hlk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno}" for name in names
                         if name == "hlk" or name.startswith("hlk.")]
    assert not absolute
