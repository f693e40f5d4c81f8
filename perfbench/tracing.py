"""Spans and counters recorded around calls into landau_hf.

Layers are timed from outside the program.  The tracer rebinds a public
function, or a method on its class, to a timing wrapper in every loaded
``landau_hf`` module that holds it, and restores the original on exit.  A
function imported into another module (``hf_rhs`` is looked up both in
``hartree_fock`` and in ``analysis``) is therefore caught wherever it is
called from.  Spans are kept in memory as ``[name, start, end, parent]`` and
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

ROOT_SPAN = "workload"


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``layer`` names the span; ``None`` records no span and only applies
    ``on_result``.  A counted call adds one to the layer's call count unless
    it runs inside another span of the same layer.
    """

    module: str
    attr: str                                  # "function" or "Class.method"
    layer: str | None
    counted: bool = True
    on_result: Callable[[object], dict] | None = None


def _tensor_terms(terms) -> dict:
    return {"manybody.tensor_terms": 0 if terms is None else len(terms)}


# Every public function that does one layer's work, named after its module.
LAYER_TARGETS = (
    Target("landau_hf.basis", "build_orbital_set", "basis.build"),
    Target("landau_hf.manybody", "two_body_tensor", "manybody.tensor"),
    Target("landau_hf.potentials", "PotentialSpec.separable_terms", None,
           on_result=_tensor_terms),
    Target("landau_hf.manybody", "enumerate_determinants", "manybody.enumerate",
           on_result=lambda det: {"manybody.dim": det.dim}),
    Target("landau_hf.manybody", "assemble_hamiltonian", "manybody.assemble",
           on_result=lambda H: {"manybody.nnz": H.nnz}),
    Target("landau_hf.manybody", "ExactPropagator.__init__", "manybody.propagate",
           counted=False),
    Target("landau_hf.manybody", "ExactPropagator.advance", "manybody.propagate"),
    Target("landau_hf.manybody", "embed_wedge", "manybody.embed_wedge"),
    Target("landau_hf.analysis", "defect_norm", "analysis.defect"),
    Target("landau_hf.analysis", "defect_sector_norms", "analysis.sector"),
    Target("landau_hf.hartree_fock", "hf_rhs", "hartree_fock.rhs"),
    Target("landau_hf.hartree_fock", "integrate_hf", "hartree_fock.integrate"),
    Target("landau_hf.hartree_fock", "hf_energy", "hartree_fock.energy"),
    Target("landau_hf.analysis", "rdm_exact", "analysis.rdm"),
    Target("landau_hf.analysis", "error_norm", "analysis.error_norm"),
    Target("landau_hf.analysis", "trace_norm_diff", "analysis.trace_norm"),
    Target("landau_hf.cli", "write_timeseries", "cli.write"),
    Target("landau_hf.cli", "_write_json", "cli.write"),
)

# The calls that make up set-up: basis, tensor, enumeration, assembly and
# the initial state.  Boundary timers on them time every set-up, also where
# it runs inside the CLI and cannot be called on its own.
SETUP_TARGETS = (
    Target("landau_hf.basis", "build_orbital_set", "setup.basis"),
    Target("landau_hf.manybody", "two_body_tensor", "setup.tensor"),
    Target("landau_hf.manybody", "enumerate_determinants", "setup.enumerate"),
    Target("landau_hf.manybody", "assemble_hamiltonian", "setup.assemble"),
    Target("landau_hf.manybody", "embed_slater", "setup.initial_state"),
)
SETUP_LAYERS = frozenset(t.layer for t in SETUP_TARGETS)

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("basis.build_s", "s", "lower"),
    ("manybody.tensor_s", "s", "lower"),
    ("manybody.tensor_terms", "count", "lower"),
    ("manybody.enumerate_s", "s", "lower"),
    ("manybody.dim", "count", "lower"),
    ("manybody.assemble_s", "s", "lower"),
    ("manybody.nnz", "count", "lower"),
    ("manybody.assemble_ns_per_nnz", "ns", "lower"),
    ("manybody.propagate_s", "s", "lower"),
    ("manybody.propagate_calls", "count", "lower"),
    ("manybody.embed_wedge_s", "s", "lower"),
    ("manybody.embed_wedge_calls", "count", "lower"),
    ("analysis.defect_s", "s", "lower"),
    ("analysis.sector_s", "s", "lower"),
    ("analysis.defect_calls", "count", "lower"),
    ("hartree_fock.rhs_s", "s", "lower"),
    ("hartree_fock.rhs_calls", "count", "lower"),
    ("hartree_fock.rhs_p50_us", "us", "lower"),
    ("hartree_fock.rhs_p99_us", "us", "lower"),
    ("hartree_fock.integrate_s", "s", "lower"),
    ("hartree_fock.energy_s", "s", "lower"),
    ("hartree_fock.steps", "count", "lower"),
    ("analysis.rdm_s", "s", "lower"),
    ("analysis.rdm_calls", "count", "lower"),
    ("analysis.error_norm_s", "s", "lower"),
    ("analysis.trace_norm_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Counters that depend only on the problem and the algorithm, never on the
# clock; they must repeat exactly from run to run.
EXACT_COUNTERS = ("manybody.dim", "manybody.nnz", "manybody.tensor_terms",
                  "manybody.propagate_calls", "manybody.embed_wedge_calls",
                  "analysis.defect_calls", "analysis.rdm_calls",
                  "hartree_fock.rhs_calls", "hartree_fock.steps")


class Tracer:
    """Span and counter store for one single-threaded pass."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.calls: Counter = Counter()
        self.values: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, calls, values = self.spans, self._stack, self.calls, self.values
        layer, counted, on_result = target.layer, target.counted, target.on_result

        if layer is None:
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                values.update(on_result(result))
                return result
            return functools.wraps(fn)(observed)

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if counted and (parent < 0 or spans[parent][0] != layer):
                calls[layer] += 1
            record = [layer, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                values.update(on_result(result))
            return result
        return functools.wraps(fn)(timed)

    def run(self, name: str, fn: Callable, *args):
        """Call fn(*args) inside a span of its own (the root span)."""
        return self.wrap(fn, Target("", "", name, counted=False))(*args)

    def total(self, layers) -> float:
        """Time covered by the spans of the given layers, each counted once
        where they nest."""
        spans = self.spans
        return sum(end - start for name, start, end, parent in spans
                   if name in layers and (parent < 0 or spans[parent][0] not in layers))

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time covered by its child spans.

        Spans come from one thread and nest, so the children of a span never
        overlap and the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def durations(self, layer: str) -> np.ndarray:
        return np.array([end - start for name, start, end, _ in self.spans
                         if name == layer])

    def children_of(self, layer: str, parent_layer: str) -> int:
        return sum(1 for name, _, _, parent in self.spans
                   if name == layer and parent >= 0
                   and self.spans[parent][0] == parent_layer)

    def write(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _landau_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "landau_hf" or name.startswith("landau_hf.")]


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Rebind every target to a tracer wrapper for the duration of the block.

    A target that the program no longer has is skipped, so its layer reads 0.
    """
    undo = []
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                undo.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, target))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(original, target)
            for mod in _landau_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_wall: float, overhead_frac: float) -> dict:
    """Every per-layer metric of LAYER_METRICS; absent layers read 0."""
    own = tracer.self_times()
    calls = tracer.calls
    rhs = tracer.durations("hartree_fock.rhs") * 1e6
    nnz = tracer.values.get("manybody.nnz", 0)
    assemble = own.get("manybody.assemble", 0.0)
    rk4_stages = tracer.children_of("hartree_fock.rhs", "hartree_fock.integrate")
    m = {
        "manybody.tensor_terms": tracer.values.get("manybody.tensor_terms", 0),
        "manybody.dim": tracer.values.get("manybody.dim", 0),
        "manybody.nnz": nnz,
        "manybody.assemble_ns_per_nnz": assemble / nnz * 1e9 if nnz else 0.0,
        "manybody.propagate_calls": calls["manybody.propagate"],
        "manybody.embed_wedge_calls": calls["manybody.embed_wedge"],
        "analysis.defect_calls": calls["analysis.defect"],
        "hartree_fock.rhs_calls": calls["hartree_fock.rhs"],
        "hartree_fock.rhs_p50_us": float(np.percentile(rhs, 50)) if rhs.size else 0.0,
        "hartree_fock.rhs_p99_us": float(np.percentile(rhs, 99)) if rhs.size else 0.0,
        "hartree_fock.steps": rk4_stages // 4,
        "analysis.rdm_calls": calls["analysis.rdm"],
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": own.get(ROOT_SPAN, 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name in m:
            value = m[name]
        else:                                   # "<layer>_s": the layer's self time
            value = own.get(name[:-len("_s")], 0.0)
        out[name] = {"value": value, "unit": unit}
    return out
