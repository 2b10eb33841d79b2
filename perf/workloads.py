"""The benchmark's five workloads, driven only through the simulator's public API.

Each workload is a function ``build(seed, toy) -> run``.  ``build`` is the
set-up: it imports and boots what the workload needs, builds and snapshots its
environments and generates the seeded op stream.  ``run(rep)`` is one
measured repetition: a closed loop with one client, where the next op is
issued only when the previous one has returned.  It fills ``rep`` with wall
and virtual timings, ops attempted, failures and every virtual result, which
go into the determinism digest.

``toy`` shrinks every workload to a size the smoke test can run in seconds.
"""

from __future__ import annotations

import importlib
import math
import random
import time

from repro.fs.constants import OpenFlags
from repro.fs.errors import FsError

#: The meta tree: FANOUT top-level dirs of FANOUT leaf dirs each (64 leaves).
FANOUT = 8
#: A rep runs one calibration probe after a step once this long has passed
#: since the previous probe: about 2% of a rep's time.
PROBE_INTERVAL_NS = 1_000_000


class _ProbeNode:
    """What the probe works on: a slotted object with a dict, like a VNode."""

    __slots__ = ("children", "total")

    def __init__(self) -> None:
        self.children: dict[str, int] = {}
        self.total = 0

    def lookup(self, name: str) -> int:
        value = self.children.get(name)
        if value is None:
            value = self.children[name] = len(name)
        self.total += value
        return value


_PROBE_NAMES = tuple(f"n{i}" for i in range(64))


def calibration_probe() -> int:
    """A fixed piece of interpreter work, about 18 us, that never changes.

    It uses nothing from the simulator, so its time measures only how fast
    the machine runs Python at that moment: ``run.py`` rescales the
    simulator's wall times by it.
    """
    node = _ProbeNode()
    for i in range(120):
        node.lookup(_PROBE_NAMES[i & 63])
    return node.total


def time_probe() -> int:
    """Wall ns of one calibration probe.

    An untimed call first brings the probe back into the caches that the
    work before it evicted it from, so the time does not depend on that work.
    """
    calibration_probe()
    start = time.perf_counter_ns()
    calibration_probe()
    return time.perf_counter_ns() - start


class Rep:
    """Measurements of one repetition of one workload.

    The wall clock is read only through :meth:`mark`, which cuts the rep into
    consecutive steps.  Every rep of a workload runs the same steps in the
    same order, so ``run.py`` can line them up across reps.  Between steps,
    :meth:`mark` also times the calibration probe, outside every step.
    """

    def __init__(self, start_ns: int) -> None:
        #: Wall ns of each step, in order; they add up to the rep's wall time
        #: from ``start_ns`` to the last mark, less the probes.
        self.steps: list[int] = []
        #: Indices into ``steps`` of the steps that are one CntrFS-side op.
        self.op_steps: list[int] = []
        #: Wall ns of each calibration probe.
        self.probes: list[int] = []
        self._last_mark_ns = self._last_probe_ns = start_ns
        #: Virtual ns of each op on the CntrFS side.
        self.op_virt_ns: list[int] = []
        #: Virtual ns of the identical op stream on each side.
        self.native_virt_ns = 0
        self.cntr_virt_ns = 0
        self.attempted = 0
        self.failures: list[str] = []
        #: Every virtual result, in order; hashed into the rep's digest.
        self.virtual: list = []
        #: Workload-specific values reported as diagnostics only.
        self.extra: dict[str, float | list] = {}

    def fail(self, message: str) -> None:
        """Record one failed op."""
        self.failures.append(message)

    def mark(self, op: bool = False) -> None:
        """End the current step; ``op`` if it was one CntrFS-side op."""
        now = time.perf_counter_ns()
        if op:
            self.op_steps.append(len(self.steps))
        self.steps.append(now - self._last_mark_ns)
        if now - self._last_probe_ns >= PROBE_INTERVAL_NS:
            self.probes.append(time_probe())
            self._last_probe_ns = now = time.perf_counter_ns()
        self._last_mark_ns = now


# ---------------------------------------------------------------------------
# figures: the paper's Figures 2-5 through repro.bench.harness
# ---------------------------------------------------------------------------
def build_figures(seed: int, toy: bool):
    """Figures 2-5 are fixed experiments: the seed changes nothing."""
    from repro.bench import harness
    from repro.bench.phoronix import ALL_WORKLOADS

    fig2_workloads = ALL_WORKLOADS[:2] if toy else ALL_WORKLOADS
    thread_counts = (1, 2) if toy else (1, 2, 4, 8, 16)
    fig4_size_mb = 1 if toy else 32
    fig5_max_files = 10 if toy else 400

    # Every figure data point is one step.  None is an op: on the wall clock
    # the op is the whole regeneration (see run.py), because a median over
    # the data points would be whichever point sits in the middle.
    def run(rep: Rep) -> None:
        overheads, log_errs = [], []
        for workload in fig2_workloads:
            (result,) = harness.figure2_phoronix_overheads([workload])
            rep.mark()
            rep.attempted += 1
            rep.op_virt_ns.append(result.cntr_ns)
            rep.native_virt_ns += result.native_ns
            rep.cntr_virt_ns += result.cntr_ns
            rep.virtual.append((result.workload, result.native_ns, result.cntr_ns))
            if not (result.native_ns > 0 and result.cntr_ns > 0):
                rep.fail(f"fig2 {result.workload}: zero virtual time")
                continue
            overheads.append(result.overhead)
            log_errs.append(abs(math.log(result.overhead / result.paper_overhead)))
        if overheads:
            # Fig. 2 is a per-workload ratio, so it summarises as a geomean.
            rep.extra["cntr_overhead"] = math.exp(
                sum(math.log(o) for o in overheads) / len(overheads))
            rep.extra["fig2_log_err"] = sum(log_errs) / len(log_errs)

        if not toy:
            effects = harness.figure3_optimization_effects()
            rep.mark()
            rep.attempted += 1
            rep.virtual.append([(e.name, e.before, e.after) for e in effects])
            if not all(0 < e.before < math.inf and 0 < e.after < math.inf for e in effects):
                rep.fail("fig3: non-finite throughput")

        for threads in thread_counts:
            (point,) = harness.figure4_thread_sweep((threads,), size_mb=fig4_size_mb)
            rep.mark()
            rep.attempted += 1
            rep.op_virt_ns.append(point.duration_ns)
            rep.virtual.append((threads, point.duration_ns))
            if point.duration_ns <= 0:
                rep.fail(f"fig4 threads={threads}: zero virtual time")

        slim = harness.figure5_docker_slim(max_files=fig5_max_files)
        rep.mark()
        rep.attempted += 1
        rep.virtual.append([round(r, 9) for r in slim.reductions])
        if not all(0.0 <= r <= 100.0 for r in slim.reductions):
            rep.fail("fig5: reduction outside 0-100%")
        rep.extra["fig5_mean_reduction"] = slim.mean_reduction

    return run


# ---------------------------------------------------------------------------
# meta: a seeded namespace-op stream, replayed natively and through CntrFS
# ---------------------------------------------------------------------------
#: (op, weight in percent) — see README.md for why this mix.
META_MIX = (("create", 25), ("stat", 20), ("read", 20), ("append", 7),
            ("fsync", 6), ("rename", 6), ("unlink", 8), ("listdir", 8))
META_CREATE_SIZES = (1 << 10, 4 << 10, 16 << 10)
META_READ_CHUNK = 4 << 10
META_APPEND = 512
#: Files per leaf directory before the stream starts.
META_PREFILL = 4


def generate_meta_ops(seed: int, n_ops: int, dirs: list[str],
                      files: dict[str, int]) -> list[tuple]:
    """A valid op stream over ``dirs`` plus the result each op must return.

    ``files`` (relative path -> size) is the tree at the start; a shadow copy
    of it tracks every create/append/rename/unlink, so stat sizes, read
    lengths and directory listings are known before the stream runs.
    """
    rng = random.Random(seed)
    sizes = dict(files)
    # Live paths in a list with swap-remove, so a random pick is O(1).
    paths = list(sizes)
    where = {path: i for i, path in enumerate(paths)}
    names_in = {d: set() for d in dirs}
    for path in paths:
        directory, name = path.rsplit("/", 1)
        names_in[directory].add(name)

    def add(path: str, size: int) -> None:
        sizes[path] = size
        where[path] = len(paths)
        paths.append(path)
        directory, name = path.rsplit("/", 1)
        names_in[directory].add(name)

    def remove(path: str) -> int:
        i = where.pop(path)
        last = paths.pop()
        if i < len(paths):
            paths[i] = last
            where[last] = i
        directory, name = path.rsplit("/", 1)
        names_in[directory].discard(name)
        return sizes.pop(path)

    # Exact op counts and create sizes, in a seeded order: the seed changes
    # which files each op touches, not how much of each kind of work it does.
    kinds = [name for name, weight in META_MIX for _ in range(n_ops * weight // 100)]
    rng.shuffle(kinds)
    create_sizes = [META_CREATE_SIZES[i % len(META_CREATE_SIZES)]
                    for i in range(kinds.count("create"))]
    rng.shuffle(create_sizes)
    serial = 0
    ops: list[tuple] = []
    for kind in kinds:
        if kind == "create":
            serial += 1
            path = f"{rng.choice(dirs)}/n{serial}"
            size = create_sizes.pop()
            add(path, size)
            ops.append(("create", path, size))
        elif kind == "listdir":
            directory = rng.choice(dirs)
            ops.append(("listdir", directory, sorted(names_in[directory])))
        else:
            path = paths[rng.randrange(len(paths))]
            if kind in ("stat", "read", "fsync"):
                ops.append((kind, path, sizes[path]))
            elif kind == "append":
                sizes[path] += META_APPEND
                ops.append(("append", path, sizes[path]))
            elif kind == "rename":
                src_dir = path.rsplit("/", 1)[0]
                dst_dir = rng.choice([d for d in dirs if d != src_dir])
                serial += 1
                dst = f"{dst_dir}/r{serial}"
                add(dst, remove(path))
                ops.append(("rename", path, dst))
            else:
                remove(path)
                ops.append(("unlink", path, 0))
    return ops


def _meta_op(sc, base: str, op: tuple, payloads: dict[int, bytes]) -> str | None:
    """Run one op; returns a failure message or None."""
    kind, path, expect = op
    full = f"{base}/{path}"
    if kind == "create":
        fd = sc.open(full, OpenFlags.O_CREAT | OpenFlags.O_EXCL | OpenFlags.O_WRONLY, 0o644)
        try:
            written = sc.write(fd, payloads[expect])
        finally:
            sc.close(fd)
        return None if written == expect else f"create {path}: wrote {written}"
    if kind == "stat":
        size = sc.stat(full).st_size
        return None if size == expect else f"stat {path}: size {size} != {expect}"
    if kind == "read":
        fd = sc.open(full, OpenFlags.O_RDONLY)
        total = 0
        try:
            while True:
                data = sc.read(fd, META_READ_CHUNK)
                if not data:
                    break
                total += len(data)
        finally:
            sc.close(fd)
        return None if total == expect else f"read {path}: {total} != {expect} bytes"
    if kind == "append":
        fd = sc.open(full, OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
        try:
            written = sc.write(fd, payloads[META_APPEND])
            size = sc.fstat(fd).st_size
        finally:
            sc.close(fd)
        return None if (written, size) == (META_APPEND, expect) else \
            f"append {path}: wrote {written}, size {size} != {expect}"
    if kind == "fsync":
        fd = sc.open(full, OpenFlags.O_WRONLY)
        try:
            sc.fsync(fd)
        finally:
            sc.close(fd)
        return None
    if kind == "rename":
        sc.rename(full, f"{base}/{expect}")
        return None
    if kind == "unlink":
        sc.unlink(full)
        return None
    names = sorted(sc.listdir(full))
    return None if names == expect else f"listdir {path}: {len(names)} != {len(expect)} names"


def build_meta(seed: int, toy: bool):
    """3000 namespace ops over 64 leaf dirs; the tree fits in the caches."""
    from repro.bench.harness import BenchEnvironment

    n_ops = 300 if toy else 3000
    dirs = [f"meta/d{i}/d{j}" for i in range(FANOUT) for j in range(FANOUT)]
    files = {f"{d}/p{k}": 4 << 10 for d in dirs for k in range(META_PREFILL)}
    payloads = {size: b"m" * size for size in META_CREATE_SIZES + (META_APPEND,)}
    # The second environment is forked from the first one's boot snapshot.
    native_env, cntr_env = BenchEnvironment(), BenchEnvironment()
    for env in (native_env, cntr_env):
        sc, base = env.native_access()
        for directory in dirs:
            sc.makedirs(f"{base}/{directory}")
        for path, size in files.items():
            fd = sc.open(f"{base}/{path}", OpenFlags.O_CREAT | OpenFlags.O_WRONLY, 0o644)
            sc.write(fd, payloads[size])
            sc.close(fd)
        env.backing.sync()
    ops = generate_meta_ops(seed, n_ops, dirs, files)

    def run(rep: Rep) -> None:
        cntr_env.drop_fuse_caches()
        for side_env, cntr in ((native_env, False), (cntr_env, True)):
            side_sc, base = side_env.cntr_access() if cntr else side_env.native_access()
            clock = side_env.machine.clock
            start = clock.now_ns
            rep.mark()
            for op in ops:
                rep.attempted += 1
                v0 = clock.now_ns
                try:
                    error = _meta_op(side_sc, base, op, payloads)
                except FsError as exc:
                    error = f"{op[0]} {op[1]}: {exc}"
                rep.mark(op=cntr)
                virt = clock.now_ns - v0
                rep.virtual.append(virt)
                if error:
                    rep.fail(f"{'cntrfs' if cntr else 'native'} {error}")
                if cntr:
                    rep.op_virt_ns.append(virt)
            if cntr:
                rep.cntr_virt_ns += clock.now_ns - start
            else:
                rep.native_virt_ns += clock.now_ns - start

    return run


# ---------------------------------------------------------------------------
# seqio: one large file, 4x the page cache, streamed in 16 KiB records
# ---------------------------------------------------------------------------
def build_seqio(seed: int, toy: bool):
    """Write+fsync, cold read and re-read of a file 4x the page cache.

    The stream is fixed: the seed changes nothing.
    """
    from repro.bench.harness import BenchEnvironment

    cache_mb = 1 if toy else 16
    size = (cache_mb * 4) << 20
    record = 16 << 10
    payload = b"s" * record
    native_env = BenchEnvironment(page_cache_mb=cache_mb)
    cntr_env = BenchEnvironment(page_cache_mb=cache_mb)
    for env in (native_env, cntr_env):
        sc, base = env.native_access()
        sc.makedirs(f"{base}/seqio")

    def one_side(rep: Rep, side_env, cntr: bool) -> None:
        side_sc, side_base = side_env.cntr_access() if cntr else side_env.native_access()
        clock = side_env.machine.clock
        path = f"{side_base}/seqio/stream.dat"
        start = clock.now_ns
        label = "cntrfs" if cntr else "native"

        def timed_call(func, *args):
            rep.attempted += 1
            v0 = clock.now_ns
            result = func(*args)
            rep.mark(op=cntr)
            virt = clock.now_ns - v0
            rep.virtual.append(virt)
            if cntr:
                rep.op_virt_ns.append(virt)
            return result

        fd = side_sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY, 0o644)
        rep.mark()
        for _ in range(size // record):
            written = timed_call(side_sc.write, fd, payload)
            if written != record:
                rep.fail(f"{label} write returned {written}")
        timed_call(side_sc.fsync, fd)
        side_sc.close(fd)
        side_env.drop_caches()
        for _phase in ("cold", "warm"):
            fd = side_sc.open(path, OpenFlags.O_RDONLY)
            rep.mark()
            total = 0
            while True:
                data = timed_call(side_sc.read, fd, record)
                if not data:
                    break
                if len(data) != record:
                    rep.fail(f"{label} short read of {len(data)} bytes")
                total += len(data)
            side_sc.close(fd)
            if total != size:
                rep.fail(f"{label} read {total} of {size} bytes")
        elapsed = clock.now_ns - start
        if cntr:
            rep.cntr_virt_ns += elapsed
        else:
            rep.native_virt_ns += elapsed

    def run(rep: Rep) -> None:
        for side_env, cntr in ((native_env, False), (cntr_env, True)):
            try:
                one_side(rep, side_env, cntr)
            except FsError as exc:
                rep.fail(f"{'cntrfs' if cntr else 'native'}: {exc}")

    return run


# ---------------------------------------------------------------------------
# conformance: the xfstests generic group on both environments, plus fsstress
# ---------------------------------------------------------------------------
#: fsstress seeds in 1-200 that diverge (300 ops, 3 rounds) at the commit that
#: added this benchmark: on 13, CntrFS loses an fsynced file across a crash; on
#: 3, the two environments' trees differ before a crash.  Every rep runs all of
#: them and counts their divergences as ``known_divergences``, apart from the
#: failed ops: a fix lowers the count, and a divergence on any other seed
#: still fails.
FSSTRESS_KNOWN_DIVERGING = frozenset({27, 29, 46, 48, 59, 65, 67, 78, 84, 86, 97,
                                      129, 148, 157, 176, 185})


def build_conformance(seed: int, toy: bool):
    """209 native + 205 CntrFS xfstests cases and 56 fsstress runs."""
    from repro.stress.fsstress import FsStress
    from repro.xfstests.generic import GENERIC_TESTS, PAPER_FAILING_TESTS
    from repro.xfstests.harness import (
        TestCase,
        XfstestsRunner,
        cntrfs_environment,
        native_environment,
    )

    native_cases = list(GENERIC_TESTS)
    cntr_cases = [c for c in GENERIC_TESTS if c.test_id not in PAPER_FAILING_TESTS]
    pool = [s for s in range(1, 201) if s not in FSSTRESS_KNOWN_DIVERGING]
    stress_seeds = sorted(FSSTRESS_KNOWN_DIVERGING) + \
        sorted(random.Random(seed).sample(pool, 2 if toy else 40))
    ops_per_round, rounds = (30, 2) if toy else (100, 3)
    if toy:
        native_cases, cntr_cases = native_cases[:12], cntr_cases[:12]
    common = {c.test_id for c in cntr_cases}
    # Boot both fsstress rigs now; every seed then forks them.  A zero-round
    # run also gives the rigs' starting clocks.
    warm = FsStress(0, rounds=0)
    warm.run()
    rig_start_ns = [rig.env.machine.clock.now_ns for rig in warm.rigs]

    def run(rep: Rep) -> None:
        case_virt: dict[tuple[str, str], int] = {}
        for label, factory, cases in (("native", native_environment, native_cases),
                                      ("cntrfs", cntrfs_environment, cntr_cases)):
            timed_cases = [TestCase(c.number, c.name, c.groups,
                                    _timed_case(c.func, rep, label, case_virt, c.test_id))
                           for c in cases]
            summary = XfstestsRunner(factory).run(timed_cases)
            rep.mark()
            rep.attempted += summary.total
            for result in summary.results:
                rep.virtual.append((label, result.case.test_id, result.status,
                                    case_virt.get((label, result.case.test_id))))
                if not result.passed:
                    rep.fail(f"{label} {result.case.test_id}: {result.message[:200]}")
        for (label, test_id), virt in case_virt.items():
            if test_id in common:
                if label == "native":
                    rep.native_virt_ns += virt
                else:
                    rep.cntr_virt_ns += virt

        known = []
        for stress_seed in stress_seeds:
            fuzzer = FsStress(stress_seed, ops_per_round=ops_per_round, rounds=rounds)
            report = fuzzer.run()
            rep.mark(op=True)
            rep.attempted += 1
            native_ns, cntr_ns = (rig.env.machine.clock.now_ns - start
                                  for rig, start in zip(fuzzer.rigs, rig_start_ns, strict=True))
            rep.native_virt_ns += native_ns
            rep.cntr_virt_ns += cntr_ns
            rep.op_virt_ns.append(cntr_ns)
            rep.virtual.append((stress_seed, report.passed, report.ops_applied,
                                report.state_trace, native_ns, cntr_ns))
            if report.passed:
                continue
            if stress_seed in FSSTRESS_KNOWN_DIVERGING:
                known.append(stress_seed)
            else:
                rep.fail(f"fsstress {stress_seed}: {report.divergences[0]}")
        rep.extra["known_divergences"] = len(known)
        rep.extra["known_divergence_seeds"] = known

    return run


def _timed_case(func, rep: Rep, label: str, case_virt: dict, test_id: str):
    """Wrap a test body so its wall and virtual time are recorded.

    The case's step runs from the end of the previous case, so it also holds
    the runner's fork of the environment for this case.
    """
    def run_case(env) -> None:
        clock = env.machine.clock
        v0 = clock.now_ns
        try:
            func(env)
        finally:
            rep.mark(op=label == "cntrfs")
            virt = clock.now_ns - v0
            case_virt[(label, test_id)] = virt
            if label == "cntrfs":
                rep.op_virt_ns.append(virt)
    return run_case


# ---------------------------------------------------------------------------
# attach: the paper's Fig. 1 workflow, one cntr attach session per op
# ---------------------------------------------------------------------------
def build_attach(seed: int, toy: bool):
    """100 attach -> exec gdb -> detach sessions into a slim container.

    The seed shapes the slim application image (its files and environment).
    """
    from repro.container import DockerEngine, ImageBuilder
    from repro.kernel import boot

    # Resolved at call time, so a traced run sees its wrapped ``attach``.
    attach_module = importlib.import_module("repro.core.attach")
    sessions = 5 if toy else 100
    rng = random.Random(seed)
    builder = (ImageBuilder("perf-app", "slim")
               .add_file("/usr/sbin/app", size=rng.randrange(1, 16) * 1_000_000, mode=0o755)
               .add_tree("/etc/app", {f"conf{i}.d": rng.randrange(64, 4096)
                                      for i in range(rng.randrange(2, 12))})
               .entrypoint("/usr/sbin/app"))
    for i in range(rng.randrange(1, 6)):
        builder.env(f"APP_VAR{i}", str(rng.randrange(1 << 30)))
    machine = boot()
    docker = DockerEngine(machine)
    docker.run(builder.build(), name="app")
    snapshot = machine.kernel.snapshot(machine, docker)
    _kernel, (session_machine, session_docker) = snapshot.fork()
    _kernel, (native_machine, _docker) = snapshot.fork()
    native_sc = native_machine.spawn_host_process(["/usr/bin/perf-native-exec"])

    def native_exec(path: str) -> None:
        """What ``exec_tool`` does, minus CntrFS: load the binary, fork."""
        fd = native_sc.open(path, OpenFlags.O_RDONLY)
        try:
            while native_sc.read(fd, 1 << 20):
                pass
        finally:
            native_sc.close(fd)
        tool = native_machine.kernel.fork(native_sc.process, argv=[path])
        native_machine.kernel.exit_process(tool)

    def run(rep: Rep) -> None:
        clock = session_machine.clock
        for _ in range(sessions):
            rep.attempted += 1
            v0 = clock.now_ns
            try:
                session = attach_module.attach(session_machine, session_docker, "app")
                v_exec = clock.now_ns
                tool = session.exec_tool("gdb")
                v_exec = clock.now_ns - v_exec
                session.detach()
                if tool.process.pid in session_machine.kernel.processes:
                    session_machine.kernel.exit_process(tool.process)
            except (attach_module.CntrAttachError, FsError) as exc:
                rep.fail(f"session: {exc}")
                continue
            finally:
                rep.mark(op=True)
            virt = clock.now_ns - v0
            rep.op_virt_ns.append(virt)
            rep.cntr_virt_ns += v_exec
            rep.virtual.append((virt, v_exec))

            native_clock = native_machine.clock
            v0 = native_clock.now_ns
            try:
                native_exec("/usr/bin/gdb")
            except FsError as exc:
                rep.fail(f"native exec: {exc}")
                continue
            finally:
                rep.mark()
            rep.native_virt_ns += native_clock.now_ns - v0
            rep.virtual.append(native_clock.now_ns - v0)

    return run


WORKLOADS = {
    "figures": build_figures,
    "meta": build_meta,
    "seqio": build_seqio,
    "conformance": build_conformance,
    "attach": build_attach,
}
