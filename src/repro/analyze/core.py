"""Shared machinery for the ``repro.analyze`` invariant checkers.

The simulator's contract — virtual time only moves when a component charges
it, seeded runs replay byte-identically, packages layer as a DAG — is cheap
to violate and expensive to debug after the fact (a stray ``time.time()``
only shows up as a bench-pin mismatch three PRs later).  This package checks
those invariants *by construction*: every rule is a small AST/import-graph
analysis over the source tree, run as a CI gate before the test matrix.

This module holds the parts every rule shares:

* :class:`Finding` — one violation, with a stable sort order and JSON form.
* :class:`SourceFile` — parsed source plus its ``# simlint: ignore[rule]``
  suppression table.
* :class:`Project` — the whole analyzed file set, module-name mapping and
  lazily built call graph.
* :class:`Reporter` — collects findings, applies suppressions, and flags
  suppressions that stopped matching anything (an unused suppression is a
  stale exemption hiding future violations, so it is itself a finding).
* the rule registry (:func:`rule`, :data:`RULES`) and the
  :func:`run_analysis` driver.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

#: A ``simlint: ignore[...]`` marker in a *comment token* on a line
#: suppresses the named rules' findings anchored on that line.  Parsing works
#: on tokens, not raw lines, so docstrings merely describing the syntax never
#: count as suppressions.
_SUPPRESS_RE = re.compile(r"simlint:\s*ignore\[([a-z0-9_,\- ]+)\]")

#: The pseudo-rule reporting stale/unknown suppression comments.  It cannot
#: itself be suppressed — that would allow silencing the audit of silences.
SUPPRESSION_RULE = "suppression"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_json(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunables binding the generic checkers to one codebase's contract.

    The defaults describe *this* repository; the test fixtures rebind them to
    small synthetic packages.
    """

    # -- determinism ------------------------------------------------------
    #: Modules allowed to read the wall clock: the bench harnesses measure
    #: interpreter speed (wall time) alongside the modelled virtual time.
    wallclock_allow: tuple[str, ...] = (
        "repro.bench.hotpath",
        "repro.bench.scale",
        "repro.bench.writeback",
        "repro.trace.__main__",
    )

    # -- clock-accounting -------------------------------------------------
    #: Classes whose public methods are syscall entry points.  The
    #: ``Scheduler`` is an entry surface too: ``run``/``spawn`` drive task
    #: bodies that reach mutators, and the scheduler itself charges the clock
    #: for timeslices, context switches and idle jumps.
    entry_classes: tuple[str, ...] = ("Scheduler", "Syscalls")
    #: ``Class.method`` names that mutate fs/page-cache/writeback state.  An
    #: entry point reaching one of these must also reach a charge.
    mutators: tuple[str, ...] = (
        "PageCache.write", "PageCache.access", "PageCache.invalidate",
        "PageCache.invalidate_range", "PageCache.invalidate_all",
        "PageCache.reclaim_oldest",
        "WritebackEngine.note_dirty", "WritebackEngine.discard",
        "WritebackEngine.flush",
        "FileData.write", "FileData.truncate", "FileData.punch_hole",
        "DirectoryInode.add", "DirectoryInode.remove", "DirectoryInode.replace",
    )
    #: ``Class.method`` (``*`` wildcard method) patterns documented as
    #: zero-virtual-time: they must never reach a clock charge.
    zero_cost: tuple[str, ...] = (
        "Ext4Journal.*",
        "DentryCache.*",
        "WritebackEngine.crash_discard",
        # Observability is read-only on the virtual clock: accumulating or
        # rendering pressure, dispatching tracepoints and formatting the
        # counter files must never charge virtual time.
        "PsiStallTracker.*",
        "PsiGroup.*",
        "PsiRegistry.*",
        "Tracer.*",
        "VmSysctl.vmstat_text",
        "MemcgController.io_read",
        "MemcgController.io_wrote",
    )

    # -- layering ---------------------------------------------------------
    #: Package prefixes ordered lowest layer first; a module may only import
    #: (at module scope) from its own or lower layers.
    layers: tuple[str, ...] = (
        "repro.sim", "repro.fs", "repro.kernel", "repro.fuse",
        "repro.container", "repro.slim", "repro.core", "repro.xfstests",
        "repro.bench", "repro.trace", "repro.stress", "repro.analyze",
    )
    #: Imports banned even when deferred into a function body:
    #: ``(importer-prefix, banned-prefixes)``.
    hard_bans: tuple[tuple[str, tuple[str, ...]], ...] = (
        ("repro.sim", ("repro.fs", "repro.kernel", "repro.fuse",
                       "repro.container", "repro.slim", "repro.core",
                       "repro.xfstests", "repro.bench", "repro.trace",
                       "repro.stress")),
        ("repro.fs", ("repro.fuse", "repro.container", "repro.kernel",
                      "repro.core", "repro.slim", "repro.xfstests",
                      "repro.bench", "repro.trace", "repro.stress")),
        ("repro.analyze", ("repro.sim", "repro.fs", "repro.kernel",
                           "repro.fuse", "repro.container", "repro.slim",
                           "repro.core", "repro.xfstests", "repro.bench",
                           "repro.trace", "repro.stress")),
    )

    # -- errno discipline -------------------------------------------------
    #: Module prefixes forming the syscall path: every exception raised here
    #: must carry a POSIX errno (derive from ``errno_base``).
    errno_layers: tuple[str, ...] = ("repro.fs", "repro.fuse", "repro.kernel")
    #: The sanctioned errno-carrying base class.
    errno_base: str = "FsError"
    #: Exception names whose raise is banned on the syscall path (the
    #: OSError family plus the catch-alls; ValueError/TypeError stay legal
    #: for internal programming-contract guards).
    banned_exceptions: tuple[str, ...] = (
        "Exception", "BaseException", "OSError", "IOError",
        "EnvironmentError", "RuntimeError", "PermissionError",
        "FileNotFoundError", "FileExistsError", "IsADirectoryError",
        "NotADirectoryError", "BlockingIOError", "InterruptedError",
        "ProcessLookupError", "TimeoutError", "ConnectionError",
        "BrokenPipeError",
    )
    #: Base class whose lifecycle-hook overrides must delegate to super().
    hook_base: str = "Filesystem"
    lifecycle_hooks: tuple[str, ...] = ("crash", "remount", "_inode_released")

    # -- timer/RNG hygiene ------------------------------------------------
    #: Modules allowed to touch raw ``random`` machinery (the seeded-RNG
    #: implementation itself).
    rng_modules: tuple[str, ...] = ("repro.sim.rng",)
    #: The sanctioned deterministic RNG class.
    rng_class: str = "DeterministicRandom"


DEFAULT_CONFIG = AnalysisConfig()


def subtree_nodes(node: ast.AST) -> tuple[ast.AST, ...]:
    """All nodes of ``node``'s subtree, cached on the node itself.

    Every rule walks the same immutable trees; ``ast.walk``'s generator
    machinery dominated the analysis profile, so the flat node list is
    computed once per subtree and re-walks are plain tuple iteration.
    """
    cached = getattr(node, "_repro_walk", None)
    if cached is None:
        cached = tuple(ast.walk(node))
        node._repro_walk = cached
    return cached


class SourceFile:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: Path, module: str, text: str) -> None:
        self.path = path
        self.module = module
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        #: line -> set of rule names suppressed on that line.
        self.suppressions: dict[int, set[str]] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(text).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                m = _SUPPRESS_RE.search(tok.string)
                if m:
                    rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                    self.suppressions.setdefault(tok.start[0], set()).update(rules)
        except tokenize.TokenError:  # pragma: no cover - ast.parse caught worse
            pass

    def walk(self) -> tuple[ast.AST, ...]:
        """Every node in the file (cached; see :func:`subtree_nodes`)."""
        return subtree_nodes(self.tree)

    def display_path(self) -> str:
        return str(self.path)


#: Call graphs by identity of the file set.  The file cache keeps SourceFile
#: objects alive (and therefore their ids unambiguous), so two runs over an
#: unchanged tree share one graph instead of re-deriving it.
_CALLGRAPH_CACHE: dict[tuple[int, ...], object] = {}


class Project:
    """The analyzed file set: sources, module names, lazy call graph."""

    def __init__(self, files: list[SourceFile], config: AnalysisConfig) -> None:
        self.files = files
        self.config = config
        self.by_module = {f.module: f for f in files}
        self._callgraph = None

    @property
    def callgraph(self):
        """The whole-project call graph (built on first use)."""
        if self._callgraph is None:
            from repro.analyze.callgraph import CallGraph
            key = tuple(id(f) for f in self.files)
            graph = _CALLGRAPH_CACHE.get(key)
            if graph is None:
                graph = CallGraph(self)
                if len(_CALLGRAPH_CACHE) >= 8:
                    _CALLGRAPH_CACHE.clear()
                _CALLGRAPH_CACHE[key] = graph
            self._callgraph = graph
        return self._callgraph


class Reporter:
    """Collects findings, honouring per-line suppressions."""

    def __init__(self, project: Project, active_rules: Iterable[str]) -> None:
        self._project = project
        self._active = set(active_rules)
        self._findings: list[Finding] = []
        #: (module, line, rule) triples whose suppression absorbed a finding.
        self._used: set[tuple[str, int, str]] = set()

    def report(self, sf: SourceFile, node_or_line, rule: str, message: str) -> None:
        """File a finding, unless a same-line suppression absorbs it."""
        if isinstance(node_or_line, int):
            line, col = node_or_line, 0
        else:
            line, col = node_or_line.lineno, node_or_line.col_offset
        if rule in sf.suppressions.get(line, ()):
            self._used.add((sf.module, line, rule))
            return
        self._findings.append(Finding(sf.display_path(), line, col, rule, message))

    def finish(self, all_rules_ran: bool) -> list[Finding]:
        """Close the run: audit suppressions, return sorted findings.

        The unused-suppression audit only runs when every rule did — with a
        ``--rule`` filter a suppression for an unexecuted rule is not stale,
        just untested this run.
        """
        if all_rules_ran:
            known = self._active | {SUPPRESSION_RULE}
            for sf in self._project.files:
                for line, rules in sorted(sf.suppressions.items()):
                    for r in sorted(rules):
                        if r not in known:
                            self._findings.append(Finding(
                                sf.display_path(), line, 0, SUPPRESSION_RULE,
                                f"suppression names unknown rule {r!r}"))
                        elif (sf.module, line, r) not in self._used:
                            self._findings.append(Finding(
                                sf.display_path(), line, 0, SUPPRESSION_RULE,
                                f"unused suppression: no {r!r} finding on this "
                                f"line — remove the stale ignore"))
        return sorted(self._findings)


@dataclass(frozen=True)
class RuleDef:
    """A registered checker."""

    name: str
    doc: str
    check: Callable[[Project, Reporter], None] = field(compare=False)


#: name -> RuleDef; populated by the rule modules at import time.
RULES: dict[str, RuleDef] = {}


def rule(name: str, doc: str):
    """Class/function decorator registering a checker under ``name``."""
    def register(fn: Callable[[Project, Reporter], None]):
        RULES[name] = RuleDef(name, doc, fn)
        return fn
    return register


def _load_rules() -> None:
    # Importing the rule modules fills RULES via the @rule decorators.
    from repro.analyze import (  # noqa: F401  (imported for side effects)
        accounting, determinism, errnodisc, hygiene, layering,
    )


#: (resolved path, module) -> ((mtime_ns, size), SourceFile).  Parsing and
#: walking the tree dominates a warm analysis run; an unchanged file on disk
#: re-uses its parsed form across runs in one process (the CI gate and the
#: analyze tests run the full rule set several times over the same tree).
_FILE_CACHE: dict[tuple[str, str], tuple[tuple[int, int], SourceFile]] = {}


def collect_files(roots: Iterable[Path], config: AnalysisConfig) -> list[SourceFile]:
    """Parse every ``*.py`` under each package root.

    Each root must be a package directory; module names are derived from the
    root's own name (``src/repro`` -> ``repro.fs.ext4`` etc.), which keeps
    the collector independent of sys.path and usable on fixture trees.
    """
    out: list[SourceFile] = []
    for root in roots:
        root = Path(root)
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).with_suffix("")
            parts = (root.name, *rel.parts)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module = ".".join(parts)
            st = path.stat()
            key = (str(path), module)
            stamp = (st.st_mtime_ns, st.st_size)
            hit = _FILE_CACHE.get(key)
            if hit is not None and hit[0] == stamp:
                out.append(hit[1])
                continue
            sf = SourceFile(path, module, path.read_text())
            _FILE_CACHE[key] = (stamp, sf)
            out.append(sf)
    return out


#: Whole-run memo: (file identities, rule selection, config id) -> result.
#: The checks are pure functions of the parsed tree and the config, so a
#: repeat run over an unchanged file set (the analyze test-suite runs the
#: full rule set over the live tree many times in one process) can reuse the
#: previous result.  The file list and config objects are kept in the value
#: and re-compared by identity on hit, so a recycled ``id()`` can never
#: alias a dead object.
_RUN_CACHE: dict[tuple, tuple[list[SourceFile], AnalysisConfig,
                              list[Finding]]] = {}


def run_analysis(roots: Iterable[Path], config: AnalysisConfig | None = None,
                 rules: Iterable[str] | None = None) -> list[Finding]:
    """Run the (selected) checkers over ``roots`` and return all findings."""
    config = config or DEFAULT_CONFIG
    _load_rules()
    selected = sorted(RULES) if rules is None else sorted(set(rules))
    unknown = [r for r in selected if r not in RULES]
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(unknown)}")
    files = collect_files(roots, config)
    key = (tuple(id(sf) for sf in files), tuple(selected), id(config))
    hit = _RUN_CACHE.get(key)
    if hit is not None and hit[1] is config and \
            all(a is b for a, b in zip(hit[0], files)):
        return list(hit[2])
    project = Project(files, config)
    reporter = Reporter(project, active_rules=selected)
    for name in selected:
        RULES[name].check(project, reporter)
    findings = reporter.finish(all_rules_ran=set(selected) == set(RULES))
    if len(_RUN_CACHE) >= 32:
        _RUN_CACHE.clear()
    _RUN_CACHE[key] = (files, config, findings)
    return list(findings)


def render_findings(findings: list[Finding], as_json: bool) -> str:
    """Format findings for the CLI."""
    if as_json:
        return json.dumps({"findings": [f.to_json() for f in findings],
                           "count": len(findings)}, indent=2)
    if not findings:
        return "repro.analyze: clean"
    lines = [f.render() for f in findings]
    lines.append(f"repro.analyze: {len(findings)} finding(s)")
    return "\n".join(lines)
