import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_kit

MODULES = sorted(info.name for info in pkgutil.iter_modules(casimir_kit.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A name left in __all__ after its removal breaks ``import *``.
    module = importlib.import_module(f"casimir_kit.{name}")
    exported = getattr(module, "__all__", [])
    assert [item for item in exported if not hasattr(module, item)] == []


def test_output_imports_no_physics():
    # The package __init__ re-exports every module, so ``output`` is loaded
    # under a bare package stub: only its own imports then run.
    code = (
        "import sys, types\n"
        "package = types.ModuleType('casimir_kit')\n"
        f"package.__path__ = {list(casimir_kit.__path__)!r}\n"
        "sys.modules['casimir_kit'] = package\n"
        "import casimir_kit.output\n"
        "print(*sorted(m for m in sys.modules if m.startswith('casimir_kit.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "casimir_kit.output" in loaded
    assert "casimir_kit.core" not in loaded
    assert "casimir_kit.paradox" not in loaded


def test_benchmark_tracer_names_resolve():
    # bench/tracer.py skips a WRAPPED name the package no longer has, and
    # the per-layer metric built from it then reads 0 without failing.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"casimir_kit.{layer}"), name, None))]
    assert missing == []
    # The tracer times handlers as the cli module's cmd_* functions, which
    # main reaches through _HANDLERS.
    from casimir_kit import cli
    assert cli._HANDLERS.keys() == cli._COMMANDS.keys()
    for handler in cli._HANDLERS.values():
        assert handler.__name__.startswith("cmd_")
        assert getattr(cli, handler.__name__) is handler
