"""Tests for the Docker-Slim analogue, the catalogue and the benchmark harness."""

import pytest

from repro.bench import harness
from repro.bench.harness import BenchEnvironment, figure5_docker_slim, run_comparison
from repro.bench.phoronix import (
    ALL_WORKLOADS,
    CompilebenchRead,
    Dbench,
    Fio,
    IoZoneRead,
    workload_by_name,
)
from repro.container import DockerEngine
from repro.fuse.options import FuseMountOptions
from repro.slim import DockerSlim, TOP50_CATALOGUE, build_catalogue_image
from repro.slim.catalogue import catalogue_summary, hot_paths_of
from repro.slim.tracker import AccessTracker, TrackedSyscalls


class TestCatalogue:
    def test_fifty_images(self):
        assert len(TOP50_CATALOGUE) == 50

    def test_aggregate_statistics_match_paper(self):
        stats = catalogue_summary()
        assert stats["mean_reduction"] == pytest.approx(66.6, abs=1.5)
        assert stats["below_10_percent"] == 6
        assert stats["between_60_and_97"] / 50 >= 0.75

    def test_catalogue_image_materialisation(self):
        entry = TOP50_CATALOGUE[0]
        image = build_catalogue_image(entry, max_files=200)
        assert abs(image.size_bytes - entry.total_size_bytes) / entry.total_size_bytes < 0.05
        assert image.config.entrypoint == (entry.entrypoint,)
        assert hot_paths_of(image)


class TestDockerSlim:
    def test_static_analysis_matches_expected_reduction(self):
        slimmer = DockerSlim()
        for entry in TOP50_CATALOGUE[:5]:
            image = build_catalogue_image(entry, max_files=300)
            report = slimmer.analyze_static(image)
            assert report.reduction_percent == pytest.approx(
                entry.expected_reduction_percent, abs=3.0)

    def test_slim_image_keeps_entrypoint_and_drops_tools(self):
        slimmer = DockerSlim()
        entry = next(e for e in TOP50_CATALOGUE if e.name == "nginx")
        image = build_catalogue_image(entry, max_files=300)
        report = slimmer.analyze_static(image)
        slim_image = slimmer.build_slim_image(image, report.accessed_paths)
        flat = slim_image.flatten()
        assert entry.entrypoint in flat
        assert report.slim_files < report.original_files
        assert report.dropped_tools          # auxiliary tools were removed

    def test_dynamic_analysis_through_container(self, machine):
        docker = DockerEngine(machine)
        entry = next(e for e in TOP50_CATALOGUE if e.name == "redis")
        image = build_catalogue_image(entry, max_files=60)
        slimmer = DockerSlim()
        report = slimmer.analyze_dynamic(docker, image, container_name="slim-probe")
        assert report.reduction_percent > 50
        assert entry.entrypoint in report.accessed_paths

    def test_access_tracker_records_reads(self, machine, syscalls):
        tracker = AccessTracker()
        tracked = TrackedSyscalls(syscalls, tracker)
        tracked.touch_all(["/etc/hostname", "/etc/passwd", "/does/not/exist"])
        assert "/etc/hostname" in tracker.accessed_paths()
        assert "/does/not/exist" not in tracker.accessed_paths()
        record = next(r for r in tracker.records() if r.path == "/etc/hostname")
        assert record.reads >= 1 and record.bytes_read > 0


class TestFigure5:
    def test_figure5_reproduces_paper_aggregates(self):
        result = figure5_docker_slim(max_files=120)
        assert len(result.reports) == 50
        assert result.mean_reduction == pytest.approx(66.6, abs=3.0)
        assert result.count_below(10.0) == 6
        assert result.count_between(60.0, 97.0) / 50 >= 0.75
        assert sum(result.histogram().values()) == 50


class TestBenchHarness:
    def test_environment_provides_both_access_paths(self):
        env = BenchEnvironment()
        native_sc, native_base = env.native_access()
        cntr_sc, cntr_base = env.cntr_access()
        from repro.fs.constants import OpenFlags
        fd = native_sc.open(f"{native_base}/shared.txt",
                            OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        native_sc.write(fd, b"visible on both paths")
        native_sc.close(fd)
        # Benchmark environments run with store_data=False, so compare
        # metadata rather than content: same file, same size, on both paths.
        assert cntr_sc.stat(f"{cntr_base}/shared.txt").st_size == \
            native_sc.stat(f"{native_base}/shared.txt").st_size == \
            len(b"visible on both paths")

    def test_workload_registry(self):
        assert len(ALL_WORKLOADS) == 20
        assert workload_by_name("PostMark").paper_overhead == pytest.approx(7.1)
        with pytest.raises(KeyError):
            workload_by_name("not-a-benchmark")

    def test_lookup_heavy_workload_shows_large_overhead(self):
        result = run_comparison(CompilebenchRead())
        assert result.overhead > 2.0, "compilebench read-tree must be a worst case"
        assert result.agrees_with_paper_direction()

    def test_writeback_friendly_workload_is_not_slower(self):
        result = run_comparison(Fio())
        assert result.overhead < 1.6

    def test_comparison_measures_positive_durations(self):
        result = run_comparison(workload_by_name("Gzip"))
        assert result.native_ns > 0 and result.cntr_ns > 0


class TestExperimentCache:
    def test_fig3_and_fig4_reuse_the_fig2_cntrfs_runs(self, regeneration):
        fig2 = {r.workload: r for r in regeneration["fig2"][0]}
        _, fig3_requests, fig3_runs = regeneration["fig3"]
        # Each panel measures "before", then "after" = the default configuration.
        afters = fig3_requests[1::2]
        assert [ns for _, _, ns, _ in afters] == [
            fig2[name].cntr_ns for name in ("Threaded I/O: Read", "IOzone: Write",
                                            "Compileb.: Read", "IOzone: Read")]
        assert not any(ran for *_, ran in afters)
        assert fig3_runs == 4

        points, fig4_requests, fig4_runs = regeneration["fig4"]
        (four,) = [p for p in points if p.threads == 4]
        assert four.duration_ns == fig2["IOzone: Read"].cntr_ns
        assert [ran for *_, ran in fig4_requests] == [True, True, False, True, True]
        assert fig4_runs == 4

    def test_figures_2_to_4_run_48_experiments_for_53_requests(self, regeneration):
        assert sum(len(requests) for _, requests, _ in regeneration.values()) == 53
        assert sum(runs for *_, runs in regeneration.values()) == 48

    def test_every_cached_number_is_what_a_cold_run_measures(self, regeneration,
                                                             monkeypatch):
        measured = [(args, kwargs, ns)
                    for _, requests, _ in regeneration.values()
                    for args, kwargs, ns, ran in requests if ran]
        assert len(measured) == 48
        for args, kwargs, ns in measured:
            monkeypatch.setattr(harness, "_EXPERIMENTS", {})
            monkeypatch.setattr(harness, "_ENV_SNAPSHOTS", {})
            assert harness._measure(*args, **kwargs) == ns

    def test_experiments_differing_in_one_input_never_share_an_entry(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "_EXPERIMENTS", {})
        monkeypatch.setattr(harness, "BenchEnvironment", lambda **config: config)
        monkeypatch.setattr(harness, "_run_in",
                            lambda _env, workload, _side: runs.append(workload) or len(runs))

        def measure(workload, through_cntr=True, **config):
            return harness._measure(workload, through_cntr, **config)

        defaults = FuseMountOptions.paper_defaults()
        longer_fio = Fio()
        longer_fio.iterations += 1
        assert longer_fio == Fio()   # Workload.__eq__ sees only the base fields
        experiments = [
            (IoZoneRead(size_mb=32), {}),
            (IoZoneRead(size_mb=16), {}),
            (Dbench(12, paper_overhead=0.9), {}),
            (Dbench(48, paper_overhead=1.0), {}),
            (Fio(), {}),
            (longer_fio, {}),
            (IoZoneRead(), {"options": defaults.with_overrides(splice_read=False)}),
            (IoZoneRead(), {"threads": 8}),
            (IoZoneRead(), {"through_cntr": False}),
        ]
        measured = [measure(workload, **config) for workload, config in experiments]
        assert measured == list(range(1, len(experiments) + 1))

        # The same experiment, spelled differently, is one entry.
        assert measure(IoZoneRead()) == measured[0]
        assert measure(IoZoneRead(), options=defaults) == measured[0]
        assert measure(IoZoneRead(), options=defaults.with_overrides(threads=16)) \
            == measured[0]
        assert measure(IoZoneRead(), options=defaults.with_overrides(threads=8),
                       threads=8) == measured[7]
        assert len(runs) == len(experiments)
