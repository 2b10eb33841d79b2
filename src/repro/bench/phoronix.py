"""The Phoronix disk-suite workloads used in the paper's Figure 2.

Every workload is an operation-mix generator: it issues the same *kinds* and
*shapes* of filesystem operations as the real benchmark (record sizes, file
counts, sync frequency, directory structure), scaled down so the whole suite
runs in seconds of real time.  The measured quantity is virtual time, so the
scale factor cancels out of the native-vs-CntrFS ratio the paper reports.

``paper_overhead`` records the relative overhead from Figure 2 (values > 1
mean CntrFS is slower than native ext4, < 1 mean it is faster).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.constants import OpenFlags
from repro.kernel.syscalls import Syscalls
from repro.sim.rng import DeterministicRandom

CREAT_WR = OpenFlags.O_CREAT | OpenFlags.O_WRONLY
CREAT_RW = OpenFlags.O_CREAT | OpenFlags.O_RDWR


@dataclass
class Workload:
    """Base class for one benchmark workload."""

    #: Short name used in reports (matches Figure 2 labels).
    name: str = "workload"
    #: Relative overhead reported in the paper's Figure 2.
    paper_overhead: float = 1.0
    #: Whether higher virtual time means worse (all our workloads are
    #: fixed-work, so elapsed virtual time is the metric).
    description: str = ""

    def prepare(self, sc: Syscalls, base: str) -> None:
        """Create any input data sets the measured phase needs."""

    def run(self, sc: Syscalls, base: str) -> None:
        """The measured phase."""
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _write_file(sc: Syscalls, path: str, total: int, record: int,
                    sync_every: int = 0) -> None:
        fd = sc.open(path, CREAT_WR, 0o644)
        try:
            written = 0
            chunk = b"w" * record
            count = 0
            while written < total:
                sc.write(fd, chunk)
                written += record
                count += 1
                if sync_every and count % sync_every == 0:
                    sc.fdatasync(fd)
        finally:
            sc.close(fd)

    @staticmethod
    def _read_file(sc: Syscalls, path: str, record: int) -> int:
        fd = sc.open(path, OpenFlags.O_RDONLY)
        total = 0
        try:
            while True:
                data = sc.read(fd, record)
                if not data:
                    break
                total += len(data)
        finally:
            sc.close(fd)
        return total


class AioStress(Workload):
    """AIO-Stress: a stream of asynchronous write requests.

    CntrFS processes the requests synchronously (no O_DIRECT, hence no true
    async path), so every request pays the FUSE round trip (paper: 2.6x).
    """

    def __init__(self) -> None:
        super().__init__(name="AIO-Stress", paper_overhead=2.6,
                         description="2GB of async writes, scaled to 16MB")

    def run(self, sc: Syscalls, base: str) -> None:
        fd = sc.open(f"{base}/aio-stress.dat", CREAT_WR, 0o644)
        rng = DeterministicRandom("aio-stress")
        try:
            record = 64 * 1024
            blocks = 256                       # 16 MiB
            for _ in range(blocks):
                offset = rng.randrange(0, blocks) * record
                sc.pwrite(fd, b"a" * record, offset)
            sc.fdatasync(fd)
        finally:
            sc.close(fd)


class ApacheBench(Workload):
    """Apache: static file serving; the bottleneck is the tiny access-log write."""

    def __init__(self) -> None:
        super().__init__(name="Apachebench", paper_overhead=1.5,
                         description="HTTP requests for 3KB files with access logging")
        self.requests = 800
        self.file_count = 32

    def prepare(self, sc: Syscalls, base: str) -> None:
        sc.makedirs(f"{base}/htdocs")
        for i in range(self.file_count):
            self._write_file(sc, f"{base}/htdocs/page{i:02d}.html", 3072, 3072)

    def run(self, sc: Syscalls, base: str) -> None:
        rng = DeterministicRandom("apachebench")
        log_fd = sc.open(f"{base}/access.log", CREAT_WR | OpenFlags.O_APPEND, 0o644)
        try:
            for _ in range(self.requests):
                page = rng.randrange(0, self.file_count)
                self._read_file(sc, f"{base}/htdocs/page{page:02d}.html", 4096)
                sc.write(log_fd, b'10.0.0.7 - - "GET /page%02d.html HTTP/1.1" 200 3072\n'
                         % page)
        finally:
            sc.close(log_fd)


class CompilebenchCompile(Workload):
    """Compilebench, compile stage: read sources, write objects."""

    def __init__(self) -> None:
        super().__init__(name="Compileb.: Comp.", paper_overhead=2.3,
                         description="compile a kernel module: read .c, write .o")
        self.sources = 120

    def prepare(self, sc: Syscalls, base: str) -> None:
        sc.makedirs(f"{base}/module/src")
        for i in range(self.sources):
            self._write_file(sc, f"{base}/module/src/file{i:03d}.c", 9 * 1024, 4096)

    def run(self, sc: Syscalls, base: str) -> None:
        sc.makedirs(f"{base}/module/obj")
        for i in range(self.sources):
            self._read_file(sc, f"{base}/module/src/file{i:03d}.c", 4096)
            self._write_file(sc, f"{base}/module/obj/file{i:03d}.o", 14 * 1024, 14 * 1024)


class CompilebenchCreate(Workload):
    """Compilebench, initial create stage: simulated tarball unpack into new trees."""

    def __init__(self) -> None:
        super().__init__(name="Compileb.: Create", paper_overhead=7.3,
                         description="unpack-like creation of many small files")
        self.dirs = 24
        self.files_per_dir = 18

    def run(self, sc: Syscalls, base: str) -> None:
        for d in range(self.dirs):
            sc.makedirs(f"{base}/tree/dir{d:03d}")
            for f in range(self.files_per_dir):
                self._write_file(sc, f"{base}/tree/dir{d:03d}/src{f:03d}.c",
                                 6 * 1024, 6 * 1024)


class CompilebenchRead(Workload):
    """Compilebench, read-tree stage: recursively read a freshly created tree.

    Every file is new, so each one costs a LOOKUP (open+stat on the server)
    before its small read — the paper's worst case (13.3x).
    """

    def __init__(self) -> None:
        super().__init__(name="Compileb.: Read", paper_overhead=13.3,
                         description="recursive read of a fresh source tree")
        self.dirs = 26
        self.files_per_dir = 20

    def prepare(self, sc: Syscalls, base: str) -> None:
        for d in range(self.dirs):
            sc.makedirs(f"{base}/kernel/dir{d:03d}")
            for f in range(self.files_per_dir):
                self._write_file(sc, f"{base}/kernel/dir{d:03d}/src{f:03d}.c",
                                 5 * 1024, 5 * 1024)

    def run(self, sc: Syscalls, base: str) -> None:
        for d in range(self.dirs):
            directory = f"{base}/kernel/dir{d:03d}"
            for name in sc.listdir(directory):
                path = f"{directory}/{name}"
                sc.stat(path)
                self._read_file(sc, path, 4096)


class Dbench(Workload):
    """Dbench: file-server operation mix with N concurrent clients."""

    def __init__(self, clients: int, paper_overhead: float) -> None:
        super().__init__(name=f"Dbench: {clients} Clients", paper_overhead=paper_overhead,
                         description="file server mix: reads of a warm tree")
        self.clients = clients
        self.operations = 60

    def prepare(self, sc: Syscalls, base: str) -> None:
        sc.makedirs(f"{base}/share")
        for i in range(40):
            self._write_file(sc, f"{base}/share/file{i:03d}", 32 * 1024, 8192)

    def run(self, sc: Syscalls, base: str) -> None:
        rng = DeterministicRandom(f"dbench-{self.clients}")
        for _client in range(self.clients):
            for _op in range(self.operations):
                idx = rng.randrange(0, 40)
                path = f"{base}/share/file{idx:03d}"
                roll = rng.random()
                if roll < 0.70:
                    self._read_file(sc, path, 8192)
                elif roll < 0.85:
                    sc.stat(path)
                else:
                    sc.listdir(f"{base}/share")


class FsMark(Workload):
    """FS-Mark: sequentially create 1MB files with 16KB writes (disk bound)."""

    def __init__(self) -> None:
        super().__init__(name="FS-Mark", paper_overhead=1.0,
                         description="create 1MB files with 16KB writes and fsync")
        self.files = 24

    def run(self, sc: Syscalls, base: str) -> None:
        sc.makedirs(f"{base}/fsmark")
        for i in range(self.files):
            path = f"{base}/fsmark/f{i:04d}"
            self._write_file(sc, path, 1024 * 1024, 16 * 1024)
            fd = sc.open(path, OpenFlags.O_WRONLY)
            try:
                sc.fsync(fd)
            finally:
                sc.close(fd)


class Fio(Workload):
    """FIO fileserver profile: 80% random reads / 20% random writes, ~140KB blocks.

    The kernel writeback cache turns the small random writes into few large
    flushes and the delayed sync defers the barriers, which is why the paper
    measures CntrFS *faster* than native here (0.2x).
    """

    def __init__(self) -> None:
        super().__init__(name="FIO", paper_overhead=0.2,
                         description="random 140KB reads/writes over a 64MB file")
        self.file_size = 64 * 1024 * 1024
        self.block = 140 * 1024
        self.iterations = 300

    def prepare(self, sc: Syscalls, base: str) -> None:
        self._write_file(sc, f"{base}/fio.dat", self.file_size, 1024 * 1024)

    def run(self, sc: Syscalls, base: str) -> None:
        rng = DeterministicRandom("fio")
        fd = sc.open(f"{base}/fio.dat", CREAT_RW)
        try:
            max_block = self.file_size // self.block
            for i in range(self.iterations):
                offset = rng.randrange(0, max_block) * self.block
                if rng.random() < 0.8:
                    sc.pread(fd, self.block, offset)
                else:
                    sc.pwrite(fd, b"f" * self.block, offset)
                    if i % 25 == 0:
                        sc.fdatasync(fd)
        finally:
            sc.close(fd)


class Gzip(Workload):
    """Gzip: read a large zero file, write the (small) compressed output."""

    def __init__(self) -> None:
        super().__init__(name="Gzip", paper_overhead=1.0,
                         description="compress a 32MB file of zeros")
        self.size = 32 * 1024 * 1024

    def prepare(self, sc: Syscalls, base: str) -> None:
        self._write_file(sc, f"{base}/zeros.bin", self.size, 1024 * 1024)

    def run(self, sc: Syscalls, base: str) -> None:
        fd_in = sc.open(f"{base}/zeros.bin", OpenFlags.O_RDONLY)
        fd_out = sc.open(f"{base}/zeros.bin.gz", CREAT_WR, 0o644)
        cpu_ns_per_byte = 20.0        # ~50 MB/s compression speed
        try:
            while True:
                data = sc.read(fd_in, 256 * 1024)
                if not data:
                    break
                # gzip's compression is CPU bound and identical in both
                # configurations; charging it makes the workload compute
                # bound, which is why the paper measures no overhead here.
                sc.kernel.clock.advance(int(cpu_ns_per_byte * len(data)))
                sc.write(fd_out, b"g" * max(1, len(data) // 1000))
        finally:
            sc.close(fd_in)
            sc.close(fd_out)


class IoZoneWrite(Workload):
    """IOzone sequential write, 4KB records (paper: 1.2x from xattr lookups)."""

    def __init__(self, size_mb: int = 32) -> None:
        super().__init__(name="IOzone: Write", paper_overhead=1.2,
                         description=f"sequential write of {size_mb}MB in 4KB records")
        self.size = size_mb * 1024 * 1024

    def run(self, sc: Syscalls, base: str) -> None:
        self._write_file(sc, f"{base}/iozone.tmp", self.size, 4096)
        fd = sc.open(f"{base}/iozone.tmp", OpenFlags.O_WRONLY)
        try:
            sc.fsync(fd)
        finally:
            sc.close(fd)


class IoZoneRead(Workload):
    """IOzone sequential read, 4KB records, warm page cache (paper: 2.1x)."""

    def __init__(self, size_mb: int = 32) -> None:
        super().__init__(name="IOzone: Read", paper_overhead=2.1,
                         description=f"sequential read of {size_mb}MB in 4KB records")
        self.size = size_mb * 1024 * 1024

    def prepare(self, sc: Syscalls, base: str) -> None:
        self._write_file(sc, f"{base}/iozone-read.tmp", self.size, 1024 * 1024)

    def run(self, sc: Syscalls, base: str) -> None:
        self._read_file(sc, f"{base}/iozone-read.tmp", 4096)


class PostMark(Workload):
    """PostMark: mail-server mix of create/append/read/delete on small files.

    Files are created and deleted before they are ever synced, so the work is
    dominated by inode lookups — the paper's second-worst case (7.1x).
    """

    def __init__(self) -> None:
        super().__init__(name="PostMark", paper_overhead=7.1,
                         description="small-file create/append/read/delete churn")
        self.transactions = 500
        self.pool = 120

    def run(self, sc: Syscalls, base: str) -> None:
        rng = DeterministicRandom("postmark")
        sc.makedirs(f"{base}/mail")
        live: list[str] = []
        for i in range(self.pool):
            path = f"{base}/mail/msg{i:05d}"
            self._write_file(sc, path, 2048, 2048)
            live.append(path)
        serial = self.pool
        for _ in range(self.transactions):
            roll = rng.random()
            if roll < 0.3 or not live:
                path = f"{base}/mail/msg{serial:05d}"
                serial += 1
                self._write_file(sc, path, 2048, 2048)
                live.append(path)
            elif roll < 0.55:
                victim = live.pop(rng.randrange(0, len(live)))
                sc.unlink(victim)
            elif roll < 0.8:
                target = live[rng.randrange(0, len(live))]
                fd = sc.open(target, OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
                try:
                    sc.write(fd, b"appended line\n" * 16)
                finally:
                    sc.close(fd)
            else:
                target = live[rng.randrange(0, len(live))]
                self._read_file(sc, target, 4096)


class PgBench(Workload):
    """PGBench: database page writes with periodic WAL flushes (paper: 0.4x)."""

    def __init__(self) -> None:
        super().__init__(name="Pgbench", paper_overhead=0.4,
                         description="8KB page writes + WAL appends, periodic flush")
        self.transactions = 400

    def prepare(self, sc: Syscalls, base: str) -> None:
        sc.makedirs(f"{base}/pgdata")
        self._write_file(sc, f"{base}/pgdata/table.dat", 16 * 1024 * 1024, 1024 * 1024)

    def run(self, sc: Syscalls, base: str) -> None:
        rng = DeterministicRandom("pgbench")
        table_fd = sc.open(f"{base}/pgdata/table.dat", CREAT_RW)
        wal_fd = sc.open(f"{base}/pgdata/wal.log", CREAT_WR | OpenFlags.O_APPEND, 0o644)
        try:
            pages = 16 * 1024 * 1024 // 8192
            for i in range(self.transactions):
                page = rng.randrange(0, pages)
                sc.pread(table_fd, 8192, page * 8192)
                sc.pwrite(table_fd, b"p" * 8192, page * 8192)
                sc.write(wal_fd, b"x" * 512)
                if i % 50 == 49:
                    sc.fdatasync(wal_fd)
                    sc.fdatasync(table_fd)
        finally:
            sc.close(table_fd)
            sc.close(wal_fd)


class Sqlite(Workload):
    """SQLite: 1000 row inserts, each followed by a synchronous journal commit."""

    def __init__(self) -> None:
        super().__init__(name="SQlite", paper_overhead=1.9,
                         description="row inserts with a sync after every insert")
        self.rows = 300

    def run(self, sc: Syscalls, base: str) -> None:
        db_fd = sc.open(f"{base}/test.db", CREAT_RW, 0o644)
        try:
            for i in range(self.rows):
                journal_fd = sc.open(f"{base}/test.db-journal", CREAT_WR, 0o644)
                try:
                    sc.write(journal_fd, b"j" * 512)
                    sc.fsync(journal_fd)
                finally:
                    sc.close(journal_fd)
                sc.pwrite(db_fd, b"r" * 1024, i * 1024)
                sc.fsync(db_fd)
                sc.unlink(f"{base}/test.db-journal")
        finally:
            sc.close(db_fd)


class ThreadedIoRead(Workload):
    """Threaded I/O tester, read side: concurrent readers over a 64MB file."""

    def __init__(self) -> None:
        super().__init__(name="Threaded I/O: Read", paper_overhead=1.1,
                         description="4 reader threads over a shared 16MB file")
        self.threads = 4
        self.size = 16 * 1024 * 1024

    def prepare(self, sc: Syscalls, base: str) -> None:
        self._write_file(sc, f"{base}/tio.dat", self.size, 1024 * 1024)

    def run(self, sc: Syscalls, base: str) -> None:
        for _thread in range(self.threads):
            self._read_file(sc, f"{base}/tio.dat", 64 * 1024)


class ThreadedIoWrite(Workload):
    """Threaded I/O tester, write side: concurrent writers (paper: 0.3x)."""

    def __init__(self) -> None:
        super().__init__(name="Threaded I/O: Write", paper_overhead=0.3,
                         description="4 writer threads appending to private files")
        self.threads = 4
        self.per_thread = 4 * 1024 * 1024

    def run(self, sc: Syscalls, base: str) -> None:
        sc.makedirs(f"{base}/tio-write")
        for thread in range(self.threads):
            path = f"{base}/tio-write/writer{thread}"
            self._write_file(sc, path, self.per_thread, 64 * 1024, sync_every=16)


class UnpackTarball(Workload):
    """Linux tarball unpack: stream one big file into many small new files."""

    def __init__(self) -> None:
        super().__init__(name="Unpack tarball", paper_overhead=1.2,
                         description="read one tarball, create many small files")
        self.members = 350

    def prepare(self, sc: Syscalls, base: str) -> None:
        self._write_file(sc, f"{base}/linux.tar", self.members * 8 * 1024, 1024 * 1024)

    def run(self, sc: Syscalls, base: str) -> None:
        tar_fd = sc.open(f"{base}/linux.tar", OpenFlags.O_RDONLY)
        sc.makedirs(f"{base}/linux-src")
        try:
            for i in range(self.members):
                sc.read(tar_fd, 8 * 1024)
                if i % 40 == 0:
                    sc.makedirs(f"{base}/linux-src/dir{i // 40:03d}")
                self._write_file(sc, f"{base}/linux-src/dir{i // 40:03d}/f{i:05d}.c",
                                 8 * 1024, 8 * 1024)
        finally:
            sc.close(tar_fd)


def build_all_workloads() -> list[Workload]:
    """All twenty Figure 2 workloads in the paper's display order."""
    return [
        AioStress(),
        ApacheBench(),
        CompilebenchCompile(),
        CompilebenchCreate(),
        CompilebenchRead(),
        Dbench(1, paper_overhead=1.4),
        Dbench(12, paper_overhead=0.9),
        Dbench(128, paper_overhead=1.0),
        Dbench(48, paper_overhead=1.0),
        FsMark(),
        Fio(),
        Gzip(),
        IoZoneRead(),
        IoZoneWrite(),
        PostMark(),
        PgBench(),
        Sqlite(),
        ThreadedIoRead(),
        ThreadedIoWrite(),
        UnpackTarball(),
    ]


#: Singleton list used by the harness and the benchmarks.
ALL_WORKLOADS: list[Workload] = build_all_workloads()


def workload_slug(name: str) -> str:
    """The CLI and work-directory name of a workload ("IOzone: Write" -> "iozone-write")."""
    return name.lower().replace(" ", "-").replace(":", "").replace(".", "")


def workload_by_name(name: str) -> Workload:
    """Find a workload by its Figure 2 label."""
    for workload in ALL_WORKLOADS:
        if workload.name.lower() == name.lower():
            return workload
    raise KeyError(f"unknown workload: {name}")
