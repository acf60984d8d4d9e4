"""The traced benchmark wraps dynheight's layer entry points by name.

perfbench/tracing.py lists them as (module, attribute) pairs and reads some
of their argument names and return fields; a rename in dynheight would
otherwise only show up as a failing traced run.
"""

import importlib
import importlib.util
import inspect
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
