"""Names that other code reaches dynheight by resolve.

The traced benchmark wraps dynheight's layer entry points by name:
perfbench/tracing.py lists them as (module, attribute) pairs and reads some
of their argument names and return fields; perfbench/workloads.py reads
fields of a loaded system file and builds GreenConfig by keyword.  A rename
in dynheight would otherwise only show up as a failing benchmark run.  Every module's __all__
and the package's re-exports name what exists.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # tracing.py imports only the standard library when loaded.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = _tracing().ENTRY_POINTS


@pytest.mark.parametrize(
    "module_name, attr", [(e[0], e[1]) for e in ENTRY_POINTS], ids=[e[1] for e in ENTRY_POINTS]
)
def test_entry_point_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert name in owner.__dict__
    assert callable(getattr(owner, name))


def test_counted_arguments_exist():
    from dynheight.canonical import GreenProfile, canonical_height_oracle_detailed
    from dynheight.exactnum import prime_factors

    assert "n" in inspect.signature(prime_factors).parameters
    assert "n" in inspect.signature(canonical_height_oracle_detailed).parameters
    # the walks' counters read these fields of the returned profile
    assert {"nodes", "depth"} <= set(GreenProfile.__dataclass_fields__)


def test_workload_reads_exist():
    # perfbench/workloads.py reads these fields of a loaded system file and
    # builds GreenConfig with these keywords.
    from dynheight.canonical import GreenConfig
    from dynheight.cli import SystemFile

    assert {"system", "family", "section"} <= set(SystemFile.__dataclass_fields__)
    assert {"depth", "target_eps", "mode", "node_budget"} <= set(inspect.signature(GreenConfig).parameters)


def test_one_map_walks_enter_the_traced_arch_layer(monkeypatch):
    # family-sweep's fibers are one-map systems; their archimedean walks must
    # still pass through _green_arch, the entry point the tracer wraps.
    from dynheight import canonical
    from dynheight.canonical import GreenConfig, canonical_height, green_profile
    from dynheight.dynsys import Morphism, validate_system
    from dynheight.exactnum import INFINITY
    from dynheight.projective import parse_point

    calls = {"_green_arch": 0, "_green_chain": 0}
    for name in calls:
        real = getattr(canonical, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(canonical, name, counting)
    system = validate_system([Morphism.from_strings(["X0^2+X1^2", "X1^2"], dim=1)])
    assert system.k == 1
    green_profile(system, (3, 1), INFINITY, GreenConfig(depth=5))
    canonical_height(system, parse_point("3:1"), GreenConfig(depth=5))
    assert calls == {"_green_arch": 2, "_green_chain": 2}


def _dynheight_modules():
    import dynheight

    names = [m.name for m in pkgutil.iter_modules(dynheight.__path__)]
    return [dynheight, *(importlib.import_module(f"dynheight.{n}") for n in names)]


@pytest.mark.parametrize("module", _dynheight_modules(), ids=lambda m: m.__name__)
def test_exports_resolve(module):
    # A deleted function must not stay behind in an __all__, and what the
    # package re-exports must be exported by the module that defines it.
    for name in getattr(module, "__all__", ()):
        assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"
    if module.__name__ == "dynheight":
        for name, value in vars(module).items():
            home = getattr(value, "__module__", None)
            if not name.startswith("_") and home and home.startswith("dynheight."):
                assert name in getattr(sys.modules[home], "__all__", [name]), f"{home}.{name}"
