"""In-memory spans and counters for the traced benchmark run.

The traced run executes the same op calls as the untraced one.  Before its
set-up, `instrument` replaces each layer's entry points (ENTRY_POINTS) with
wrappers that open a span around the call and record the layer's work
counts, wherever a module holds them: in dynheight's own modules, so the
program's internal calls go through the wrappers too, and in the
benchmark's.  Leaving `instrument` puts the originals back.

A span records (name, start, end, parent, op id) in process CPU seconds.
Spans are kept in a list while the run goes and written out once at its end.
A layer's self time is the duration of its spans minus the part their child
spans cover.  A call into a layer whose span is already the innermost open
one opens no span of its own (bad_primes calling prime_factors), so a
layer's calls count its outermost entries.

This module imports dynheight only inside `instrument`, so run.py can read
the metric names without loading the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.process_time

# Each layer and the public calls that enter it.
LAYERS = (
    "cli.load",            # load_system_file
    "dynsys.validate",     # validate_system, ParamSystem.build (resultants)
    "exactnum.factor",     # PolarizedSystem.bad_primes and prime_factors
    "canonical.arch",      # green_profile at inf (_green_arch)
    "canonical.padic",     # green_profile at pN (_green_padic)
    "canonical.oracle",    # canonical_height_oracle_detailed
    "family.specialize",   # specialize, Section.specialize_at
    "family.ff_height",    # ff_canonical_height
    "fibral.synth",        # random_synthetic
    "fibral.verify",       # verify_intersection_formula
    "fibral.json",         # model_to_json, model_from_json
)

# Counters beyond .s and .calls, with their units.
COUNTS = {
    "exactnum.factor.max_digits": "digits",
    "canonical.arch.nodes": "count",
    "canonical.arch.levels": "count",
    "canonical.arch.failed": "count",
    "canonical.padic.nodes": "count",
    "canonical.padic.levels": "count",
    "canonical.padic.failed": "count",
    "canonical.oracle.depth": "count",
    "fibral.synth.points": "count",
}
MAX_COUNTS = {"exactnum.factor.max_digits"}


def _walk_counts(layer):
    def counts(_args, profile):
        return {f"{layer}.nodes": profile.nodes, f"{layer}.levels": profile.depth}
    return counts


# (module, attribute, layer, counts).  `counts` maps the bound arguments and
# the return value to counter increments.  green_profile dispatches to the
# two walks, and canonical_height calls them directly, so the walks are the
# entry points of their layers.
ENTRY_POINTS = (
    ("dynheight.cli", "load_system_file", "cli.load", None),
    ("dynheight.dynsys", "validate_system", "dynsys.validate", None),
    ("dynheight.family", "ParamSystem.build", "dynsys.validate", None),
    ("dynheight.dynsys", "PolarizedSystem.bad_primes", "exactnum.factor", None),
    ("dynheight.exactnum", "prime_factors", "exactnum.factor",
     lambda args, _out: {"exactnum.factor.max_digits": len(str(abs(args["n"])))}),
    ("dynheight.canonical", "_green_arch", "canonical.arch", _walk_counts("canonical.arch")),
    ("dynheight.canonical", "_green_padic", "canonical.padic", _walk_counts("canonical.padic")),
    ("dynheight.canonical", "canonical_height_oracle_detailed", "canonical.oracle",
     lambda args, _out: {"canonical.oracle.depth": args["n"]}),
    ("dynheight.family", "specialize", "family.specialize", None),
    ("dynheight.family", "Section.specialize_at", "family.specialize", None),
    ("dynheight.family", "ff_canonical_height", "family.ff_height", None),
    ("dynheight.fibral", "random_synthetic", "fibral.synth",
     lambda _args, model: {"fibral.synth.points": len(model.points)}),
    ("dynheight.fibral", "verify_intersection_formula", "fibral.verify", None),
    ("dynheight.fibral", "model_to_json", "fibral.json", None),
    ("dynheight.fibral", "model_from_json", "fibral.json", None),
)

OP_SPAN = "op"
SETUP_OP = "setup"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.calls"] = "count"
        units.update({k: u for k, u in COUNTS.items() if k.startswith(layer + ".")})
    units["op.s"] = "s"
    units["unattributed.s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op_id = SETUP_OP
        self.setup_counts: dict[str, float] = defaultdict(float)
        self.op_counts: dict[str, float] = defaultdict(float)

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, clock(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = clock()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        counts = self.setup_counts if self.op_id == SETUP_OP else self.op_counts
        if name in MAX_COUNTS:
            counts[name] = max(counts[name], value)
        else:
            counts[name] += value

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures for one set-up plus one round of the op list.

        Span totals inside ops are divided by the number of rounds run; the
        set-up's spans are added once.
        """
        self_time = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                self_time[s[3]] -= s[2] - s[1]
        setup = defaultdict(float, self.setup_counts)
        ops = defaultdict(float, self.op_counts)
        for (name, start, end, _parent, op_id), own in zip(self.spans, self_time):
            totals = setup if op_id == SETUP_OP else ops
            if name == OP_SPAN:
                totals["op.s"] += end - start
                totals["unattributed.s"] += own
            else:
                totals[f"{name}.s"] += own
                totals[f"{name}.calls"] += 1
        out = {}
        for name in metric_units():
            if name in MAX_COUNTS:
                out[name] = max(setup[name], ops[name])
            else:
                out[name] = setup[name] + ops[name] / rounds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


def _wrapper(tracer: Tracer, layer: str, fn, counts):
    signature = inspect.signature(fn) if counts else None
    failed = f"{layer}.failed" if f"{layer}.failed" in COUNTS else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        try:
            if tracer.innermost() == layer:
                out = fn(*args, **kwargs)
            else:
                with tracer.span(layer):
                    out = fn(*args, **kwargs)
        except Exception:
            if failed:
                tracer.count(failed, 1)
            raise
        if counts:
            bound = signature.bind(*args, **kwargs)
            for name, value in counts(bound.arguments, out).items():
                tracer.count(name, value)
        return out

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every entry point of ENTRY_POINTS through a span of its layer."""
    replaced: list[tuple[object, str, object]] = []   # (namespace, key, original)
    functions: dict[int, tuple] = {}                  # id(original) -> (original, wrapper)
    try:
        for module_name, attr, layer, counts in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *classes, name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrapper(tracer, layer, raw.__func__, counts))
                setattr(owner, name, wrapped)
                replaced.append((owner, name, raw))
            elif classes:
                setattr(owner, name, _wrapper(tracer, layer, raw, counts))
                replaced.append((owner, name, raw))
            else:
                functions[id(raw)] = (raw, _wrapper(tracer, layer, raw, counts))
        # A module-level function is bound wherever it was imported by name.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    replaced.append((module, key, value))
        yield
    finally:
        for owner, key, original in reversed(replaced):
            setattr(owner, key, original)
