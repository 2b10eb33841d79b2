"""Per-layer tracing from outside the program: class-level span wrappers.

:meth:`Tracer.install` replaces the public methods of each layer's classes
with wrappers that open a span.  A call from inside the same layer opens no
new span, so every span marks a layer boundary.  Each span keeps its layer,
wall start and end, its start and end on the virtual ledger, and its parent.
A layer's wall self time is its spans' duration minus the part covered by
child spans.

``VirtualClock.advance`` credits each delta to the innermost open span's layer
(``harness`` outside every span).  All virtual time passes through it, so the
per-layer virtual self times sum exactly to the elapsed virtual time of every
clock, which the tracer measures separately from each clock's first and last
reading.  Counters come from the layers' own stats objects: an instance is
registered the first time one of its methods is traced, and its counters'
growth since then is folded in when it dies or the rep ends.

Wrapping changes no simulated behaviour, so a traced rep must produce the same
virtual digest as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
import weakref

HARNESS = "harness"
CLOCK = "sim.clock"

#: (layer, module, class or None for a module function, method names or
#: None for every public method).  Order is the report order.
TARGETS = (
    ("kernel.syscalls", "repro.kernel.syscalls", "Syscalls", None),
    ("fs.vfs", "repro.fs.vfs", "VFS", None),
    ("fs.pagecache", "repro.fs.pagecache", "PageCache", None),
    ("fuse.client", "repro.fuse.client", "FuseClientFs", None),
    ("fuse.device", "repro.fuse.device", "FuseConnection", ("request", "submit_background")),
    ("fuse.server", "repro.core.cntrfs", "CntrFS", ("handle",)),
    ("fs.ext4", "repro.fs.ext4", "Ext4Fs", None),
    ("fs.tmpfs", "repro.fs.tmpfs", "TmpFS", None),
    ("fs.blockdev", "repro.fs.blockdev", "BlockDevice", ("read", "write", "flush")),
    ("fs.journal", "repro.fs.journal", "Ext4Journal", None),
    ("fs.writeback", "repro.fs.writeback", "WritebackEngine", ("note_dirty", "flush")),
    ("fs.writeback", "repro.fs.writeback", "VmSysctl", ("balance",)),
    ("kernel.memcg", "repro.kernel.memcg", "MemcgController", ("note_dirty", "balance")),
    ("sim.sched", "repro.sim.sched", "Scheduler", ("run", "spawn")),
    ("kernel.snapshot", "repro.kernel.kernel", "Kernel", ("snapshot",)),
    ("kernel.snapshot", "repro.kernel.kernel", "KernelSnapshot", ("fork",)),
    (CLOCK, "repro.sim.clock", "VirtualClock", ("advance",)),
    ("core.attach", "repro.core.attach", None, ("attach",)),
    ("core.attach", "repro.core.attach", "CntrSession", ("exec_tool", "detach")),
    ("container", "repro.container.engine", "ContainerEngine", ("run", "create")),
    ("slim", "repro.slim.analyzer", "DockerSlim", ("analyze_static",)),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS)) + (HARNESS,)

#: Spans kept for the JSON dump; later spans are only aggregated.
SPAN_CAP = 20_000


# ---------------------------------------------------------------- counters
def _dcache(vfs):
    return vfs.dcache


def _dcache_counts(dcache) -> dict:
    return {"dcache_hits": dcache.hits, "dcache_misses": dcache.misses}


def _stats(obj):
    return obj.stats


def _pagecache_counts(s) -> dict:
    return {"hits": s.hits, "misses": s.misses, "evictions": s.evictions,
            "writebacks": s.writebacks}


def _fuse_stats(conn):
    return conn.stats, conn.queue_stats


def _fuse_counts(pair) -> dict:
    stats, queue = pair
    by_op = stats.requests_by_opcode
    return {"requests": stats.requests_total,
            "req_LOOKUP": by_op.get("LOOKUP", 0),
            "req_GETATTR": by_op.get("GETATTR", 0),
            "req_READ": by_op.get("READ", 0),
            "req_WRITE": by_op.get("WRITE", 0),
            "req_CREATE": by_op.get("CREATE", 0),
            "req_FORGET": by_op.get("FORGET", 0) + by_op.get("BATCH_FORGET", 0),
            "bytes_to_server": stats.bytes_to_server,
            "bytes_from_server": stats.bytes_from_server,
            "congestion_waits": queue.congestion_waits,
            "congestion_wait_ns": queue.congestion_wait_ns}


def _blockdev_counts(s) -> dict:
    return {"reads": s.reads, "writes": s.writes, "bytes_read": s.bytes_read,
            "bytes_written": s.bytes_written, "seeks": s.seeks, "flushes": s.flushes}


def _journal_counts(s) -> dict:
    return {"commits": s.commits, "records_committed": s.records_committed,
            "data_captures": s.data_captures, "replays": s.replays}


def _writeback_counts(s) -> dict:
    return {"flushes": s.flushes, "flushed_bytes": s.flushed_bytes,
            "dirty_throttle_ns": s.dirty_throttle_ns}


#: class name -> (stats holder getter, counter extractor).
COUNTED = {
    "VFS": (_dcache, _dcache_counts),
    "PageCache": (_stats, _pagecache_counts),
    "FuseConnection": (_fuse_stats, _fuse_counts),
    "BlockDevice": (_stats, _blockdev_counts),
    "Ext4Journal": (_stats, _journal_counts),
    "WritebackEngine": (_stats, _writeback_counts),
}


def _sched_counts(sched) -> tuple[int, int]:
    # The groups' stats sinks are the cgroups' cpu_stats, which outlive one
    # scheduler, so throttling is measured as growth across each run().
    groups = sched._groups  # noqa: SLF001 - read-only walk of the group list
    return (sched.stats.context_switches,
            sum(group.stats.throttled_ns for group in groups))


class Tracer:
    """Span and counter collection for one traced rep."""

    def __init__(self) -> None:
        self.index = {layer: i for i, layer in enumerate(LAYERS)}
        n = len(LAYERS)
        self.calls = [0] * n
        self.errors = [0] * n
        self.wall_self_ns = [0] * n
        self.virt_self_ns = [0] * n
        harness = self.index[HARNESS]
        #: Frames: [layer, virtual owner, wall start, child wall, span index];
        #: the virtual owner is the layer credited with clock advances.
        self.stack: list[list] = [[harness, harness, 0, 0, -1]]
        self.spans: list[list] = []
        self.spans_dropped = 0
        #: Ledger position: total virtual ns credited so far.
        self.ledger_ns = [0]
        self.counters: dict[str, dict[str, int]] = {}
        self.snapshot_forks = 0
        self._instances: dict[int, list] = {}
        self._clocks: dict[int, list[int]] = {}
        self._clock_elapsed_ns = 0

    # ------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap every target; must run before any environment is built."""
        importlib.import_module("repro.container")  # engine subclasses
        for layer, module_name, class_name, names in TARGETS:
            module = importlib.import_module(module_name)
            layer_id = self.index[layer]
            if class_name is None:
                for name in names:
                    setattr(module, name, self._span(layer_id, getattr(module, name), None))
                continue
            cls = getattr(module, class_name)
            for owner in [cls] + _subclasses(cls):
                for name in names or _public_methods(cls):
                    func = inspect.getattr_static(owner, name)
                    if owner is not cls and name not in vars(owner):
                        continue            # inherits the already-wrapped one
                    if not isinstance(func, types.FunctionType):
                        continue
                    if layer == CLOCK:
                        wrapped = self._advance(func)
                    else:
                        wrapped = self._span(layer_id, func, owner.__name__)
                    setattr(owner, name, wrapped)

    def _span(self, layer: int, func, class_name: str | None):
        stack, spans, ledger = self.stack, self.spans, self.ledger_ns
        calls, errors, wall_self = self.calls, self.errors, self.wall_self_ns
        now = time.perf_counter_ns
        instances = self._instances
        register = self._register if class_name in COUNTED else None
        pre = None
        if class_name == "Scheduler" and func.__name__ == "run":
            return self._sched_run(self._span(layer, func, None))
        if class_name == "KernelSnapshot":
            pre = self._count_fork

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return func(*args, **kwargs)
            if register is not None and id(args[0]) not in instances:
                register(args[0], class_name)
            if pre is not None:
                pre()
            span_index = -1
            if len(spans) < SPAN_CAP:
                span_index = len(spans)
                spans.append([layer, parent[4], 0, 0, ledger[0], 0])
            else:
                self.spans_dropped += 1
            frame = [layer, layer, now(), 0, span_index]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                stack.pop()
                end = now()
                duration = end - frame[2]
                wall_self[layer] += duration - frame[3]
                stack[-1][3] += duration
                calls[layer] += 1
                if span_index >= 0:
                    span = spans[span_index]
                    span[2], span[3], span[5] = frame[2], end, ledger[0]
        return traced

    def _advance(self, func):
        """Wrap ``VirtualClock.advance``: credit the ledger, time the call."""
        stack, virt, ledger = self.stack, self.virt_self_ns, self.ledger_ns
        clocks = self._clocks
        clock_layer = self.index[CLOCK]
        calls, wall_self = self.calls, self.wall_self_ns
        now = time.perf_counter_ns

        @functools.wraps(func)
        def advance(clock, delta_ns):
            record = clocks.get(id(clock))
            if record is None:
                record = self._register_clock(clock)
            delta = delta_ns
            if type(delta) is float and delta.is_integer():
                delta = int(delta)
            if type(delta) is int and delta >= 0:
                # Credit the innermost layer that is not the clock itself:
                # timer callbacks run inside advance on the caller's behalf.
                virt[stack[-1][1]] += delta
                ledger[0] += delta
            parent = stack[-1]
            if parent[0] == clock_layer:
                result = func(clock, delta_ns)
                record[1] = clock._now_ns  # noqa: SLF001 - read after the move
                return result
            frame = [clock_layer, parent[1], now(), 0, parent[4]]
            stack.append(frame)
            try:
                return func(clock, delta_ns)
            finally:
                stack.pop()
                duration = now() - frame[2]
                wall_self[clock_layer] += duration - frame[3]
                parent[3] += duration
                calls[clock_layer] += 1
                record[1] = clock._now_ns  # noqa: SLF001
        return advance

    def _sched_run(self, traced_run):
        @functools.wraps(traced_run)
        def run(sched, *args, **kwargs):
            switches, throttled = _sched_counts(sched)
            try:
                return traced_run(sched, *args, **kwargs)
            finally:
                after_switches, after_throttled = _sched_counts(sched)
                counters = self.counters.setdefault("sim.sched", {})
                counters["context_switches"] = counters.get("context_switches", 0) + \
                    after_switches - switches
                counters["throttled_ns"] = counters.get("throttled_ns", 0) + \
                    after_throttled - throttled
        return run

    def _count_fork(self) -> None:
        self.snapshot_forks += 1

    # ------------------------------------------------------------ instances
    def _register(self, obj, class_name: str) -> None:
        holder_of, extract = COUNTED[class_name]
        holder = holder_of(obj)
        key = id(obj)
        finalizer = weakref.finalize(obj, self._fold, key)
        finalizer.atexit = False
        self._instances[key] = [class_name, extract, holder, extract(holder), finalizer]

    def _fold(self, key: int) -> None:
        class_name, extract, holder, baseline, _finalizer = self._instances.pop(key)
        totals = self.counters.setdefault(class_name, {})
        for name, value in extract(holder).items():
            totals[name] = totals.get(name, 0) + value - baseline[name]

    def _register_clock(self, clock) -> list[int]:
        key = id(clock)
        finalizer = weakref.finalize(clock, self._fold_clock, key)
        finalizer.atexit = False
        record = [clock.now_ns, clock.now_ns, finalizer]
        self._clocks[key] = record
        return record

    def _fold_clock(self, key: int) -> None:
        first, last, _finalizer = self._clocks.pop(key)
        self._clock_elapsed_ns += last - first

    # ------------------------------------------------------------ reporting
    def reset(self) -> None:
        """Start the measured rep: zero everything, rebase live baselines."""
        for values in (self.calls, self.errors, self.wall_self_ns, self.virt_self_ns):
            values[:] = [0] * len(values)
        self.spans.clear()
        self.spans_dropped = 0
        self.ledger_ns[0] = 0
        self.counters.clear()
        self.snapshot_forks = 0
        for entry in self._instances.values():
            entry[3] = entry[1](entry[2])
        for record in self._clocks.values():
            record[0] = record[1]
        self._clock_elapsed_ns = 0

    def finish(self, wall_ns: int) -> dict:
        """Fold live instances and return the per-layer report of the rep."""
        # Calling a finalizer folds its object now and detaches it.
        for entry in list(self._instances.values()):
            entry[4]()
        for record in list(self._clocks.values()):
            record[2]()
        harness = self.index[HARNESS]
        self.wall_self_ns[harness] = wall_ns - sum(
            v for i, v in enumerate(self.wall_self_ns) if i != harness)
        layers = {layer: {"calls": self.calls[i], "errors": self.errors[i],
                          "wall_self_ns": self.wall_self_ns[i],
                          "virt_self_ns": self.virt_self_ns[i]}
                  for i, layer in enumerate(LAYERS)}
        counters = {k: dict(v) for k, v in self.counters.items()}
        counters["KernelSnapshot"] = {"forks": self.snapshot_forks}
        return {"layers": layers, "counters": counters,
                "ledger_ns": sum(self.virt_self_ns),
                "virt_elapsed_ns": self._clock_elapsed_ns,
                "spans_kept": len(self.spans), "spans_dropped": self.spans_dropped}

    def dump_spans(self, path) -> None:
        """Write the kept spans as JSON (one list per span)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "parent", "wall_start_ns", "wall_end_ns",
                                  "ledger_start_ns", "ledger_end_ns"],
                       "layers": list(LAYERS),
                       "dropped": self.spans_dropped,
                       "spans": self.spans}, fh)


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _public_methods(cls) -> list[str]:
    return [name for name in dir(cls) if not name.startswith("_")
            and isinstance(inspect.getattr_static(cls, name), types.FunctionType)]
