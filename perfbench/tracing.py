"""Layer spans recorded from outside the library, for the traced run.

:class:`Tracer` wraps the entry function of every layer named in
:data:`LAYERS` so that each call records a span (name, start, end, parent,
trace id).  Self time, the span's duration minus the part covered by its
child spans, is aggregated per layer as calls finish; the full span trees of
the first few work items are kept in memory and written out at the end.
Garbage-collector passes inside a work item are recorded as ``gc`` spans,
so their pauses count against no library layer.

Targets are named ``"module:attribute"`` or ``"module:Class.method"``.  A
function is replaced wherever a ``repro`` module holds a reference to it, so
call sites that imported it by name are traced too; a method is replaced on
its class and on every subclass that overrides it.  A target the library no
longer has is skipped and reported in :attr:`Tracer.missing`; its layer then
reads zero.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["LAYERS", "Tracer"]

#: Layer name -> the library entry points whose calls make up that layer.
#: The order follows the pipeline: instance construction, facade,
#: scheduler phases, simulator.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "build_workflow": ("repro.workflow.generators:generate_workflow",),
    "build_heft": ("repro.mapping.heft:heft_mapping",),
    "build_dag": ("repro.mapping.enhanced_dag:build_enhanced_dag",),
    "build_profile": ("repro.carbon.scenarios:generate_power_profile",),
    "build_other": ("repro.experiments.instances:make_instance",),
    "facade_payload": ("repro.api.jobs:shared_instance_payload",),
    "facade_fingerprint": ("repro.api.jobs:Job.fingerprint",),
    "facade_client": (
        "repro.api.client:Client.submit_many",
        "repro.api.client:Client.solve",
    ),
    "facade_backend": ("repro.api.execute:execute_job",),
    "sched_other": ("repro.core.scheduler:CaWoSched.run",),
    "sched_scores": (
        "repro.core.scores:compute_scores",
        "repro.core.scores:task_order",
    ),
    "sched_subdivision": (
        "repro.core.subdivision:original_subdivision",
        "repro.core.subdivision:refined_subdivision",
    ),
    "sched_greedy": ("repro.core.greedy:greedy_schedule",),
    "sched_local_search": ("repro.core.local_search:local_search",),
    "sched_gain_profile": ("repro.schedule.timeline:PowerTimeline.gain_profile",),
    "sched_asap": ("repro.schedule.asap:asap_schedule",),
    "sched_validate": ("repro.schedule.validation:check_schedule",),
    "sched_cost": ("repro.schedule.cost:carbon_cost",),
    "sim_setup": ("repro.sim.engine:Simulator.__init__",),
    "sim_build_job": ("repro.sim.workload:build_job",),
    "sim_plan": ("repro.sim.engine:Simulator._plan",),
    "sim_oracle_plan": ("repro.sim.engine:Simulator._oracle_cost",),
    "sim_signal_window": ("repro.sim.signal:CarbonSignal.window",),
    "sim_forecast": ("repro.sim.forecast:CarbonForecast.profile",),
    "sim_engine": ("repro.sim.engine:Simulator.run",),
}


#: How many complete spans :meth:`Tracer.dump` writes out; aggregation covers
#: every span regardless.
KEEP_SPANS = 2000


class Tracer:
    """Records layer spans while installed (see the module docstring)."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.spans: List[Dict[str, object]] = []
        self.missing: List[str] = []
        # Open spans: [span id, name, start, seconds covered by children].
        self._stack: List[list] = []
        self._next_id = 0
        self._trace_id = 0
        self._restore: List[Callable[[], None]] = []
        self._gc_frame: list = []

    # ------------------------------------------------------------------ #
    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, covered = frame
        duration = end - start
        self.self_seconds[name] += duration - covered
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent[0] if parent is not None else None,
                    "trace": self._trace_id,
                    "name": name,
                    "start": start,
                    "end": end,
                }
            )

    def _wrap(self, name: str, fn: Callable) -> Callable:
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    @contextlib.contextmanager
    def item(self) -> Iterator[None]:
        """Open the root span of one work item; spans inside share its trace id."""
        self._trace_id += 1
        frame = self._enter("item")
        try:
            yield
        finally:
            self._exit(frame)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and self._stack:
            self._gc_frame.append(self._enter("gc"))
        elif phase == "stop" and self._gc_frame:
            self._exit(self._gc_frame.pop())

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target of :data:`LAYERS` that the library has."""
        for layer, targets in LAYERS.items():
            for target in targets:
                if not self._install_one(layer, target):
                    self.missing.append(target)
        gc.callbacks.append(self._on_gc)
        self._restore.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        """Put every wrapped attribute back and stop recording collections."""
        while self._restore:
            self._restore.pop()()

    def _install_one(self, layer: str, target: str) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or attr not in owner.__dict__:
                return False
            for cls in _with_subclasses(owner):
                if attr in cls.__dict__:
                    self._patch_method(layer, cls, attr)
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapped = self._wrap(layer, original)
        for holder in list(sys.modules.values()):
            name = getattr(holder, "__name__", "")
            namespace = getattr(holder, "__dict__", None)
            if namespace is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(holder, key, wrapped, original)
        return True

    def _patch_method(self, layer: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(
                self._wrap(layer, original.fget), original.fset, original.fdel, original.__doc__
            )
        else:
            wrapped = self._wrap(layer, original)
        self._set(cls, attr, wrapped, original)

    def _set(self, holder: object, key: str, value: object, original: object) -> None:
        setattr(holder, key, value)
        self._restore.append(lambda: setattr(holder, key, original))

    # ------------------------------------------------------------------ #
    def dump(self, *, workload: str, seed: int) -> Dict[str, object]:
        """Return the kept spans and per-layer totals as plain data."""
        origin = min((span["start"] for span in self.spans), default=0.0)
        return {
            "workload": workload,
            "seed": seed,
            "missing_targets": list(self.missing),
            "layers": {
                name: {
                    "calls": self.calls[name],
                    "self_seconds": self.self_seconds[name],
                }
                for name in sorted(self.calls)
            },
            "spans": [
                dict(span, start=span["start"] - origin, end=span["end"] - origin)
                for span in sorted(self.spans, key=lambda span: span["id"])
            ],
        }


def _with_subclasses(cls: type) -> List[type]:
    """Return *cls* and all its (transitive) subclasses."""
    found: List[type] = []
    pending: List[type] = [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found

