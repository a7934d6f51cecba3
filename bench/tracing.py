"""Spans around eprlab's public functions, recorded from outside.

The program is not modified. ``Tracer.installed()`` wraps each traced
function and puts the wrapper wherever a caller looks the name up: in
the defining module and in every eprlab module that bound it by name
(``spinlab`` imports ``expand_bipartite``, ``measurement`` imports
``eigengroups``, ...). ``cli`` imports inside each handler, so
patching the defining module reaches it. numpy's ``linalg.eigh``,
``linalg.svd`` and ``fft.fft2`` are wrapped too, which turns them into
counts. Spans stay in memory as (name, start, end, parent) and are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Span name -> (module, attribute). Names are "<layer>.<function>".
TRACED = {
    "cli.main": ("eprlab.cli", "main"),
    "cli.resolve_settings": ("eprlab.cli", "resolve_settings"),
    "cli.render": ("eprlab.cli", "render"),
    "rng.make_stream": ("eprlab.rng", "make_stream"),
    "spinlab.pair_counts_blocked": ("eprlab.spinlab", "pair_counts_blocked"),
    "spinlab.switch_protocol_blocked": ("eprlab.spinlab", "switch_protocol_blocked"),
    "spinlab.sample_pair": ("eprlab.spinlab", "sample_pair"),
    "spinlab.untangle": ("eprlab.spinlab", "untangle"),
    "measurement.expand_bipartite": ("eprlab.measurement", "expand_bipartite"),
    "measurement.measure_subsystem": ("eprlab.measurement", "measure_subsystem"),
    "qcore.eigengroups": ("eprlab.qcore", "eigengroups"),
    "qcore.measure_observable": ("eprlab.qcore", "measure_observable"),
    "hydrogen.expect_r": ("eprlab.hydrogen", "expect_r"),
    "hydrogen.expect_radial_p_ground": ("eprlab.hydrogen", "expect_radial_p_ground"),
    "hydrogen.orbital_overlap": ("eprlab.hydrogen", "orbital_overlap"),
    "hydrogen.orthonormality_table": ("eprlab.hydrogen", "orthonormality_table"),
    "hydrogen.central_difference_momentum": ("eprlab.hydrogen", "central_difference_momentum"),
    "hydrogen.grid_commutator_check": ("eprlab.hydrogen", "grid_commutator_check"),
    "eprpair.build_epr_state": ("eprlab.eprpair", "build_epr_state"),
    "eprpair.momentum_representation": ("eprlab.eprpair", "momentum_representation"),
    "eprpair.condition_on_position": ("eprlab.eprpair", "condition_on_position"),
    "eprpair.condition_on_momentum": ("eprlab.eprpair", "condition_on_momentum"),
    "numpy.linalg.eigh": ("numpy.linalg", "eigh"),
    "numpy.linalg.svd": ("numpy.linalg", "svd"),
    "numpy.fft.fft2": ("numpy.fft", "fft2"),
}


class Tracer:
    """In-memory span recorder; spans[i] = [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name where its callers look it up."""
        cli = importlib.import_module("eprlab.cli")
        eprlab_modules = [m for n, m in list(sys.modules.items()) if n == "eprlab" or n.startswith("eprlab.")]
        undo = []
        for name, (module_name, attr) in TRACED.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            owners = [importlib.import_module(module_name)] + eprlab_modules
            for owner in owners:
                if getattr(owner, attr, None) is original:
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        # cli.main dispatches through the COMMANDS table, not by name.
        specs = dict(cli.COMMANDS)
        for command, spec in specs.items():
            cli.COMMANDS[command] = dataclasses.replace(spec, handler=self.wrap(f"cli.handler.{command}", spec.handler))
        try:
            yield self
        finally:
            cli.COMMANDS.update(specs)
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def counts(self) -> Counter:
        return Counter(record[0] for record in self.spans)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the span name up to its last dot for numpy,
        up to its first dot otherwise), each span counted minus the
        part of its interval its child spans cover."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[layer_of(name)] += end - start - child_time[index]
        return dict(sorted(totals.items()))

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "self_s": self.self_times(),
                    "spans": [[n, round(s - origin, 9), round(e - origin, 9), p] for n, s, e, p in self.spans],
                },
                handle,
                separators=(",", ":"),
            )


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0] if name.startswith("numpy.") else name.split(".", 1)[0]
