"""Fixtures shared by ``tests/`` and ``benchmarks/``."""

import pytest


@pytest.fixture(scope="session")
def regeneration():
    """Figures 2-4 regenerated once per session, starting from empty caches.

    Per figure: its result, every ``_measure`` request as
    ``(args, kwargs, ns, ran)`` and how many ``_run_in`` runs it made.  The
    harness's process caches stay filled afterwards, so a later request for
    any of these experiments returns the number measured here.
    """
    from repro.bench import harness

    measure, run_in = harness._measure, harness._run_in
    requests, runs = [], []

    def recording_measure(*args, **kwargs):
        before = len(runs)
        ns = measure(*args, **kwargs)
        requests.append((args, kwargs, ns, len(runs) > before))
        return ns

    def counting_run_in(env, workload, through_cntr):
        runs.append(workload.name)
        return run_in(env, workload, through_cntr)

    harness._EXPERIMENTS.clear()
    harness._ENV_SNAPSHOTS.clear()
    figures = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_measure", recording_measure)
        mp.setattr(harness, "_run_in", counting_run_in)
        for name, regenerate in (("fig2", harness.figure2_phoronix_overheads),
                                 ("fig3", harness.figure3_optimization_effects),
                                 ("fig4", harness.figure4_thread_sweep)):
            first_request, first_run = len(requests), len(runs)
            result = regenerate()
            figures[name] = (result, requests[first_request:], len(runs) - first_run)
    return figures
