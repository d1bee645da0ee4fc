"""Spans around the public functions of each xorgap module, installed from outside.

The tracer replaces each listed function in every xorgap namespace that binds
it (``game`` binds ``top_eigenpair`` and ``hermitize`` from ``tensor``, the
package root re-exports most names) and puts the originals back on exit.
Spans are kept in memory as (name, start, end, parent, item) and written out
at the end; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from xorgap import game, nets, pauli, sweep, tensor

MODULES = {"tensor": tensor, "pauli": pauli, "nets": nets, "game": game, "sweep": sweep}

TRACED = {
    "tensor": (
        "sample_tensor",
        "spectral_norm",
        "top_eigenpair",
        "trilinear_norm_lower",
        "trilinear_norm_upper_net",
        "hermitize",
        "trilinear_eval",
        "save_tensor",
        "load_tensor",
    ),
    "pauli": ("fourier", "pauli_expectations"),
    "nets": ("projector_net", "sphere_net"),
    "game": (
        "game_from_tensor",
        "classical_bias_exact",
        "classical_bias_heuristic",
        "pauli_strategy",
        "entangled_bias_eval",
        "strategy_correlations",
    ),
    "sweep": ("compute_gap_row", "write_gap_csv", "read_gap_csv"),
}

AGREE_TOL = 1e-6


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric the traced run reports."""
    out = []
    for mod, names in TRACED.items():
        for fn in names:
            out += [
                (f"{mod}.{fn}.calls", "count", "lower"),
                (f"{mod}.{fn}.s", "s", "lower"),
                (f"{mod}.{fn}.self_s", "s", "lower"),
            ]
    out += [
        ("tensor.sample_tensor.bytes", "B", "lower"),
        ("tensor.load_tensor.bytes", "B", "lower"),
        ("tensor.trilinear_norm_lower.sweeps", "count", "lower"),
        ("tensor.trilinear_norm_lower.restart_agree_frac", "ratio", "higher"),
        ("nets.projector_net.cache_misses", "count", "lower"),
        ("pauli.build_basis.cache_misses", "count", "lower"),
        ("game.classical_bias_exact.patterns", "count", "lower"),
        ("sweep.compute_gap_row.s.n1", "s", "lower"),
        ("sweep.compute_gap_row.s.n2", "s", "lower"),
        ("sweep.compute_gap_row.s.n3", "s", "lower"),
    ]
    out += [(f"setup.{mod}.self_s", "s", "lower") for mod in MODULES]
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


class Tracer:
    """Context manager that records spans for every function in TRACED.

    Each ``with`` block installs the wrappers and restores the originals;
    spans accumulate over all blocks.  Set ``item`` before each block; spans
    carry it.  Spans of the item SETUP_ITEM (the cold first item) count only
    toward ``setup.*``.  Spans of INPUTS_ITEM (writing the input files before
    any item) count like warm ones, and are all that ``tensor.save_tensor``
    sees.  Counters that need the call's arguments or result are gathered by
    the wrappers.
    """

    SETUP_ITEM = "setup"
    INPUTS_ITEM = "inputs"

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item, n or None]
        self.item = None
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []  # (namespace, attribute, original)
        self._cached = {
            "nets.projector_net.cache_misses": nets.projector_net,
            "pauli.build_basis.cache_misses": pauli.build_basis,
        }
        self._cache_start = self._cache_misses()

    # -- installation ------------------------------------------------------

    def __enter__(self):
        try:
            for mod, names in TRACED.items():
                for fn in names:
                    orig = getattr(MODULES[mod], fn)
                    wrapper = self._wrap(f"{mod}.{fn}", orig)
                    for namespace in _xorgap_modules():
                        for attr, val in list(vars(namespace).items()):
                            if val is orig:
                                setattr(namespace, attr, wrapper)
                                self._patched.append((namespace, attr, orig))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._patched:
            namespace, attr, orig = self._patched.pop()
            setattr(namespace, attr, orig)

    def _wrap(self, name, orig):
        tracer = self

        def traced(*args, **kwargs):
            # counters cover the warm items, like the spans they sit beside
            counting = tracer.item != Tracer.SETUP_ITEM
            extra = _before(name, args, kwargs, tracer) if counting else None
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.item, None]
            if name == "sweep.compute_gap_row":
                span[5] = _arg(args, kwargs, 0, "n")
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counting:
                _after(name, args, kwargs, result, extra, tracer)
            return result

        return traced

    def _cache_misses(self) -> dict:
        return {key: fn.cache_info().misses for key, fn in self._cached.items()}

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item, n in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                if n is not None:
                    rec["n"] = n
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics over the warm items; set-up self time per module."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item, n in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: 0.0 for name, _, _ in layer_metric_names()}
        for i, (name, start, end, parent, item, n) in enumerate(self.spans):
            dur = end - start
            if item == Tracer.SETUP_ITEM:
                out[f"setup.{name.split('.')[0]}.self_s"] += dur - child[i]
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
            if n is not None:
                out[f"{name}.s.n{n}"] += dur
        c = self.counters
        out["tensor.sample_tensor.bytes"] = c["sample_bytes"]
        out["tensor.load_tensor.bytes"] = c["load_bytes"]
        out["tensor.trilinear_norm_lower.sweeps"] = c["als_sweeps"]
        if c["als_restarts"]:
            out["tensor.trilinear_norm_lower.restart_agree_frac"] = c["als_agree"] / c["als_restarts"]
        out["game.classical_bias_exact.patterns"] = c["exact_patterns"]
        for key, misses in self._cache_misses().items():
            out[key] = misses - self._cache_start[key]
        out.pop("trace.overhead_frac")  # the caller compares traced and untraced runs
        return out


def _xorgap_modules():
    return [m for name, m in list(sys.modules.items()) if name == "xorgap" or name.startswith("xorgap.")]


def _before(name, args, kwargs, tracer):
    """Counter bookkeeping that must happen before the call; returns its state."""
    # the sweep counter rides on the public on_sweep hook, only when unused
    if name == "tensor.trilinear_norm_lower" and len(args) <= 5 and kwargs.get("on_sweep") is None:
        finals = {}

        def on_sweep(restart, iteration, value):
            tracer.counters["als_sweeps"] += 1
            finals[restart] = value

        kwargs["on_sweep"] = on_sweep
        return finals
    return None


def _after(name, args, kwargs, result, extra, tracer):
    c = tracer.counters
    if name == "tensor.sample_tensor":
        c["sample_bytes"] += result.matrix.nbytes + (result.raw_g.nbytes if result.raw_g is not None else 0)
    elif name == "tensor.load_tensor":
        c["load_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    elif name == "tensor.trilinear_norm_lower" and extra:
        best = max(extra.values())
        c["als_restarts"] += len(extra)
        c["als_agree"] += sum(1 for v in extra.values() if abs(v - best) <= AGREE_TOL * best)
    elif name == "game.classical_bias_exact":
        c["exact_patterns"] += 2 ** (2 * _arg(args, kwargs, 0, "G").Q - 2)
