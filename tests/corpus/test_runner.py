"""The batch runner: isolation, store round-trips, resume, equivalence."""

import dataclasses
import json

import pytest

from repro.backends import fork_available
from repro.campaigns import engine as engine_module
from repro.campaigns.engine import clear_schedule_cache, schedule_cache_stats
from repro.corpus import runner
from repro.corpus.manifest import GridEntry, Manifest
from repro.corpus.runner import (
    CorpusCampaign,
    WorkloadCapabilityError,
    choose_grain,
)
from repro.corpus.workloads import ENGINE_CAPABILITIES, workload

TINY = Manifest(name="tiny", workloads=("present-round", "memcpy"), budgets=(48,))


def tiny_campaign(tmp_path, **knobs):
    knobs.setdefault("store", str(tmp_path / "store"))
    return CorpusCampaign(TINY, **knobs)


class TestEndToEnd:
    def test_all_cells_complete(self, tmp_path):
        result = tiny_campaign(tmp_path).run()
        assert result.failed == 0
        assert len(result.cells) == 2
        assert result.store_misses == 2 and result.store_hits == 0
        for cell_result in result.cells:
            assert cell_result.metrics.final.budget == 48
            assert cell_result.n_traces == 48
            assert cell_result.key is not None

    def test_rerun_is_fully_store_served(self, tmp_path):
        tiny_campaign(tmp_path).run()
        again = tiny_campaign(tmp_path).run()
        assert again.store_hits == 2 and again.store_misses == 0
        assert all(cell.cached for cell in again.cells)

    def test_store_served_metrics_match_the_run(self, tmp_path):
        first = tiny_campaign(tmp_path).run()
        again = tiny_campaign(tmp_path).run()
        for a, b in zip(first.cells, again.cells):
            assert a.metrics.to_json() == b.metrics.to_json()

    def test_force_re_executes(self, tmp_path):
        tiny_campaign(tmp_path).run()
        forced = tiny_campaign(tmp_path, force=True).run()
        assert forced.store_hits == 0 and forced.store_misses == 2

    def test_no_store_runs_without_persistence(self, tmp_path):
        result = tiny_campaign(tmp_path, store=None).run()
        assert result.failed == 0
        assert result.store_dir is None
        assert not (tmp_path / "store").exists()

    def test_global_trace_override_wins_over_budgets(self, tmp_path):
        result = tiny_campaign(tmp_path, n_traces=32).run()
        assert all(cell.n_traces == 32 for cell in result.cells)

    def test_ranking_is_leakiest_first(self, tmp_path):
        result = tiny_campaign(tmp_path).run()
        ranked = result.ranked()
        ts = [cell.metrics.final.max_t for cell in ranked]
        assert ts == sorted(ts, reverse=True)

    def test_render_and_json_surface(self, tmp_path):
        result = tiny_campaign(tmp_path).run()
        text = result.render()
        assert "leakiest first" in text and "2 ok" in text
        record = result.to_json()
        assert record["manifest"] == "tiny"
        assert record["store"]["misses"] == 2
        assert len(record["ranking"]) == 2
        assert result.matches_paper is None
        assert set(result.artifacts()) == {"max_t", "peak_snr", "cpa_margin"}


class TestIsolation:
    def test_poisoned_config_fails_only_its_cells(self, tmp_path):
        manifest = Manifest(
            name="poison",
            workloads=("memcpy",),
            configs=(
                GridEntry("ok"),
                GridEntry("bad", overrides=(("no_such_field", 1),)),
            ),
            budgets=(32,),
        )
        result = CorpusCampaign(manifest, store=None).run()
        assert len(result.cells) == 2
        ok = [cell for cell in result.cells if cell.ok]
        bad = [cell for cell in result.cells if not cell.ok]
        assert len(ok) == 1 and len(bad) == 1
        assert "no_such_field" in bad[0].error
        assert result.to_json()["errors"] == {bad[0].cell.name: bad[0].error}

    def test_unknown_workload_fails_only_its_cells(self, tmp_path):
        manifest = Manifest(
            name="m", workloads=("memcpy", "no-such"), budgets=(32,)
        )
        result = CorpusCampaign(manifest, store=None).run()
        assert result.failed == 1
        assert "no-such" in result.to_json()["errors"]["no-such/baseline/default/n32"]

    def test_poisoned_scope_fails_only_its_cells(self, tmp_path):
        manifest = Manifest(
            name="m",
            workloads=("memcpy",),
            scopes=(
                GridEntry("ok"),
                GridEntry("bad", overrides=(("not_a_scope_field", 2),)),
            ),
            budgets=(32,),
        )
        result = CorpusCampaign(manifest, store=None).run()
        assert result.failed == 1

    def test_errors_are_never_stored(self, tmp_path):
        manifest = Manifest(name="m", workloads=("no-such",), budgets=(32,))
        store_dir = tmp_path / "store"
        CorpusCampaign(manifest, store=str(store_dir)).run()
        assert list(store_dir.glob("*.json")) == []


class TestCapabilityNegotiation:
    def test_restricted_workload_rejects_engine_knobs(self, tmp_path):
        from repro.corpus.workloads import _REGISTRY, register_workload

        base = workload("memcpy")
        restricted = dataclasses.replace(
            base, name="memcpy-restricted", capabilities=frozenset()
        )
        register_workload(restricted)
        try:
            manifest = Manifest(
                name="m", workloads=("memcpy-restricted",), budgets=(32,)
            )
            result = CorpusCampaign(manifest, store=None, reduce="worker").run()
            assert result.failed == 1
            assert "reduce" in result.cells[0].error
        finally:
            _REGISTRY.pop("memcpy-restricted", None)

    def test_negotiation_error_names_every_knob(self):
        error = WorkloadCapabilityError("w", ("chunk_size", "reduce"))
        assert "chunk_size" in str(error) and "reduce" in str(error)

    def test_full_capability_workloads_accept_all_knobs(self, tmp_path):
        campaign = tiny_campaign(
            tmp_path, chunk_size=16, retries=0, reduce="worker"
        )
        assert campaign._requested_knobs() == ("chunk_size", "retries", "reduce")
        for name in TINY.workloads:
            campaign._negotiate(workload(name))  # must not raise

    def test_engine_capability_constant_matches_negotiable_knobs(self):
        from repro.corpus.runner import _KNOB_CAPABILITIES

        assert set(_KNOB_CAPABILITIES.values()) == ENGINE_CAPABILITIES


class TestEquivalence:
    def test_chunked_equals_monolithic_on_float32(self, tmp_path):
        # The float32 chain's noise is counter-addressed by absolute
        # trace position, so chunking cannot change the realization
        # (float64-exact draws serially; there chunk_size is part of
        # the result identity and lives in the job key instead).
        mono = tiny_campaign(tmp_path, store=None, precision="float32").run()
        chunked = tiny_campaign(
            tmp_path, store=None, precision="float32", chunk_size=16
        ).run()
        for a, b in zip(mono.cells, chunked.cells):
            fa, fb = a.metrics.final, b.metrics.final
            assert fa.cpa_rank == fb.cpa_rank
            # Same traces; the fold's online accumulators combine in a
            # different order (1 update vs 3), so scores agree to ulps.
            assert fa.max_t == pytest.approx(fb.max_t, rel=1e-9)
            assert fa.cpa_margin == pytest.approx(fb.cpa_margin, rel=1e-9)
            assert fa.peak_snr == pytest.approx(fb.peak_snr, rel=1e-9)

    def test_worker_reduce_equals_parent_fold(self, tmp_path):
        parent = tiny_campaign(tmp_path, store=None, chunk_size=16).run()
        worker = tiny_campaign(
            tmp_path, store=None, chunk_size=16, reduce="worker"
        ).run()
        for a, b in zip(parent.cells, worker.cells):
            assert a.metrics.to_json() == b.metrics.to_json()

    def test_store_key_identical_across_execution_layouts(self, tmp_path):
        mono = tiny_campaign(tmp_path).run()
        worker = tiny_campaign(
            tmp_path, store=str(tmp_path / "store"), reduce="worker"
        ).run()
        # Same result identity -> the worker-reduce rerun is a pure hit.
        assert worker.store_hits == 2
        assert [c.key for c in mono.cells] == [c.key for c in worker.cells]


class TestCheckpointResume:
    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        checkpoint = str(tmp_path / "ckpt")
        first = tiny_campaign(tmp_path, store=None)
        first.run(checkpoint=checkpoint)

        second = tiny_campaign(tmp_path, store=None)

        def boom(cell, backend):
            raise AssertionError("resume must not re-run completed cells")

        monkeypatch.setattr(second, "_run_cell", boom)
        resumed = second.run(checkpoint=checkpoint, resume=True)
        assert resumed.failed == 0
        assert resumed.resumed == (0, 1)
        assert len(resumed.cells) == 2

    def test_fingerprint_excludes_execution_layout(self, tmp_path):
        cells = TINY.expand()
        a = CorpusCampaign(TINY, store=None, jobs=1)
        b = CorpusCampaign(TINY, store=None, jobs=4, reduce="worker")
        assert a._fingerprint(cells) == b._fingerprint(cells)

    def test_fingerprint_covers_result_knobs(self, tmp_path):
        cells = TINY.expand()
        a = CorpusCampaign(TINY, store=None)
        b = CorpusCampaign(TINY, store=None, n_traces=64)
        c = CorpusCampaign(TINY, store=None, seed=99)
        assert a._fingerprint(cells) != b._fingerprint(cells)
        assert a._fingerprint(cells) != c._fingerprint(cells)


class TestValidation:
    def test_bad_reduce_mode_is_rejected(self):
        with pytest.raises(ValueError, match="reduce"):
            CorpusCampaign(TINY, store=None, reduce="sideways")


# -- the cell grain ---------------------------------------------------------

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")

#: 3 workloads x 2 budgets: 6 cells in 3 compile groups
GRID = Manifest(
    name="grid", workloads=("memcpy", "ct-compare", "present-round"), budgets=(40, 64)
)


def _broken_model(inputs, lo, hi):
    raise RuntimeError("model exploded")


def _compiles_and_outcomes(group):
    """Pool worker: (compiles this group caused here, its outcomes)."""
    misses = schedule_cache_stats()["misses"]
    outcomes = runner._measure_group(group)
    return schedule_cache_stats()["misses"] - misses, outcomes


@pytest.fixture
def pools(monkeypatch):
    """Every pool the runner builds for the cell grain, in order."""
    built = []

    class SpyPool(runner.PoolBackend):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "PoolBackend", SpyPool)
    return built


def _records(store_dir) -> dict:
    records = {}
    for path in sorted(store_dir.glob("*.json")):
        record = json.loads(path.read_text())
        record.pop("seconds")
        records[path.name] = record
    return records


def _summary(result) -> dict:
    return {
        "metrics": [c.metrics.to_json() if c.ok else c.error for c in result.cells],
        "keys": [c.key for c in result.cells],
        "report": dataclasses.replace(result, store_dir=None).render(),
    }


@needs_fork
class TestCellGrain:
    def test_cell_grain_equals_serial(self, tmp_path, pools):
        serial = CorpusCampaign(GRID, store=str(tmp_path / "serial"), jobs=1).run()
        assert not pools
        fanned = CorpusCampaign(GRID, store=str(tmp_path / "fanned"), jobs=2).run()
        assert len(pools) == 1 and pools[0].tasks_dispatched == 3
        assert fanned.failed == 0 and len(fanned.cells) == 6
        assert _summary(fanned) == _summary(serial)
        assert _records(tmp_path / "fanned") == _records(tmp_path / "serial")
        assert len(_records(tmp_path / "serial")) == 6

    def test_a_failing_cell_stays_isolated_and_unstored(self, tmp_path, pools):
        from repro.corpus.workloads import _REGISTRY, register_workload

        broken = dataclasses.replace(
            workload("memcpy"), name="memcpy-broken", model_matrix=_broken_model
        )
        register_workload(broken)
        try:
            manifest = Manifest(
                name="m", workloads=("memcpy", "memcpy-broken", "ct-compare"), budgets=(32,)
            )
            store_dir = tmp_path / "store"
            result = CorpusCampaign(manifest, store=str(store_dir), jobs=2).run()
        finally:
            _REGISTRY.pop("memcpy-broken", None)
        assert len(pools) == 1
        assert [c.ok for c in result.cells] == [True, False, True]
        assert "model exploded" in result.cells[1].error
        stored = {record["cell"]["name"] for record in _records(store_dir).values()}
        assert stored == {result.cells[0].cell.name, result.cells[2].cell.name}

    def test_more_groups_than_the_cache_holds_compile_once(self, tmp_path, pools, monkeypatch):
        serial = CorpusCampaign(GRID, store=None, jobs=1).run()
        # GRID's 3 compile groups outnumber a 2-entry cache: a parent
        # that compiled all 3 before one fork would hand a worker an
        # evicted group to compile again.
        monkeypatch.setattr(engine_module, "SCHEDULE_CACHE_CAPACITY", 2)
        clear_schedule_cache()
        worker_compiles = []
        real_map = runner.PoolBackend.map_items

        def counting_map(self, fn, items):
            assert fn is runner._measure_group
            pairs = real_map(self, _compiles_and_outcomes, items)
            worker_compiles.extend(compiles for compiles, _outcomes in pairs)
            return [outcomes for _compiles, outcomes in pairs]

        monkeypatch.setattr(runner.PoolBackend, "map_items", counting_map)
        misses = schedule_cache_stats()["misses"]
        fanned = CorpusCampaign(GRID, store=None, jobs=2).run()
        assert schedule_cache_stats()["misses"] - misses == 3  # once per group, in the parent
        assert worker_compiles == [0, 0]  # a 2-group wave forked; the third ran in the parent
        assert len(pools) == 1
        assert _summary(fanned) == _summary(serial)

    def test_a_warm_store_never_builds_a_pool(self, tmp_path, pools):
        CorpusCampaign(GRID, store=str(tmp_path / "store"), jobs=2).run()
        assert len(pools) == 1
        warm = CorpusCampaign(GRID, store=str(tmp_path / "store"), jobs=2).run()
        assert len(pools) == 1
        assert warm.store_hits == 6

    @pytest.mark.parametrize("first_jobs, then_jobs", [(2, 1), (1, 2)])
    def test_checkpoint_resumes_across_grains(self, tmp_path, monkeypatch, first_jobs, then_jobs):
        manifest = dataclasses.replace(GRID, budgets=(24, 40, 64))  # 9 cells
        reference = CorpusCampaign(manifest, store=None, jobs=1).run()
        checkpoint = str(tmp_path / "ckpt")
        first = CorpusCampaign(manifest, store=None, jobs=first_jobs)
        if first_jobs > 1:
            real_map = runner.PoolBackend.map_items
            calls = []

            def map_then_die(self, fn, items):
                calls.append(1)
                if len(calls) > 1:
                    raise KeyboardInterrupt
                return real_map(self, fn, items)

            monkeypatch.setattr(runner.PoolBackend, "map_items", map_then_die)
        else:
            real_run = first._run_cell
            seen = []

            def run_then_die(cell, backend):
                seen.append(cell)
                if len(seen) > 2:
                    raise KeyboardInterrupt
                return real_run(cell, backend)

            monkeypatch.setattr(first, "_run_cell", run_then_die)
        with pytest.raises(KeyboardInterrupt):
            first.run(checkpoint=checkpoint)
        monkeypatch.undo()

        resumed = CorpusCampaign(manifest, store=None, jobs=then_jobs).run(
            checkpoint=checkpoint, resume=True
        )
        assert 0 < len(resumed.resumed) < len(reference.cells)
        assert _summary(resumed)["metrics"] == _summary(reference)["metrics"]
        assert resumed.failed == 0


class TestChooseGrain:
    BASE = dict(
        jobs=None,
        backend=None,
        chunk_size=None,
        retries=None,
        chunk_timeout=None,
        reduce=None,
        n_pending=24,
    )

    @pytest.fixture(autouse=True)
    def four_cpus_with_fork(self, monkeypatch):
        monkeypatch.setattr(runner, "cpu_count", lambda: 4)
        monkeypatch.setattr(runner, "fork_available", lambda: True)

    def grain(self, **changes):
        return choose_grain(**{**self.BASE, **changes})

    def test_auto_jobs_fans_cells_over_every_cpu(self):
        assert self.grain() == 4
        assert self.grain(n_pending=2) == 4  # the pool is sized to the groups later
        assert self.grain(jobs=3) == 3
        assert self.grain(backend="auto") == 4
        assert self.grain(backend="fork") == 4
        assert self.grain(reduce="parent") == 4

    @pytest.mark.parametrize(
        "changes",
        [
            {"jobs": 1},
            {"n_pending": 1},
            {"n_pending": 0},
            {"backend": "serial"},
            {"backend": "spawn"},
            {"backend": "pool"},
            {"chunk_size": 100},
            {"retries": 0},
            {"chunk_timeout": 5.0},
            {"reduce": "worker"},
        ],
    )
    def test_each_fallback_runs_cells_one_by_one(self, changes):
        assert self.grain(**changes) == 0

    def test_one_cpu_falls_back(self, monkeypatch):
        monkeypatch.setattr(runner, "cpu_count", lambda: 1)
        assert self.grain() == 0
        assert self.grain(jobs=2) == 2

    def test_a_live_backend_falls_back(self):
        from repro.backends import SerialBackend

        assert self.grain(backend=SerialBackend()) == 0

    def test_no_fork_falls_back(self, monkeypatch):
        monkeypatch.setattr(runner, "fork_available", lambda: False)
        assert self.grain() == 0

    def test_a_quarantined_fork_falls_back(self):
        from repro.backends import clear_quarantine, quarantine_backend

        quarantine_backend("fork", "test")
        try:
            assert self.grain() == 0
        finally:
            clear_quarantine()

    def test_auto_jobs_never_fails_negotiation(self):
        restricted = dataclasses.replace(workload("memcpy"), capabilities=frozenset())
        CorpusCampaign(TINY, store=None)._negotiate(restricted)  # must not raise
        with pytest.raises(WorkloadCapabilityError, match="jobs"):
            CorpusCampaign(TINY, store=None, jobs=2)._negotiate(restricted)
