"""The content-keyed compile cache: key safety, byte identity, bounds."""

import copy
import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

from repro.api import Session
from repro.backends import PoolBackend, fork_available
from repro.campaigns import engine as engine_module
from repro.campaigns.engine import (
    StreamingCampaign,
    clear_schedule_cache,
    compile_cached,
    schedule_cache_info,
    schedule_cache_stats,
)
from repro.corpus.manifest import Manifest
from repro.corpus.runner import CorpusCampaign
from repro.corpus.workloads import workloads
from repro.isa.parser import assemble
from repro.isa.program import DataBlock
from repro.isa.registers import Reg
from repro.power.acquisition import TraceCampaign, random_inputs
from repro.power.scope import ScopeConfig

SECRET_SRC = """
    mov r9, #0x30000
    ldr r5, [r9]
    eor r0, r5, r1
    str r0, [r9, #4]
    bx lr
second:
    eor r0, r1, r2
    str r0, [r9, #8]
    bx lr
    .org 0x30000
secret:
    .word 0x11223344
    .space 60
"""

#: r3 picks the branch direction; a batch takes it uniformly
BRANCH_SRC = """
    cmp r3, #0
    beq skip
    eor r0, r1, r2
    add r0, r0, r1
skip:
    str r0, [r9]
    bx lr
    .org 0x30000
buf:
    .space 64
"""

#: a conditionally executed non-branch: the schedule depends on values
CONDITIONAL_SRC = """
    cmp r1, r2
    addhi r0, r1, r2
    str r0, [r9]
    bx lr
    .org 0x30000
buf:
    .space 64
"""

SCOPE = ScopeConfig(noise_sigma=3.0)


def secret_inputs(n=32, seed=5):
    return random_inputs(n, reg_names=(Reg.R1, Reg.R2), seed=seed)


def branch_inputs(taken: bool, n=32, seed=7):
    inputs = random_inputs(n, reg_names=(Reg.R1, Reg.R2), seed=seed)
    inputs.regs[Reg.R3] = np.full(n, 0 if taken else 1, dtype=np.uint32)
    inputs.regs[Reg.R9] = np.full(n, 0x30000, dtype=np.uint32)
    return inputs


def misses() -> int:
    return schedule_cache_stats()["misses"]


def worker_misses(_item) -> int:
    return schedule_cache_stats()["misses"]


def stable(envelope) -> str:
    record = envelope.to_json()
    record.pop("seconds")
    return json.dumps(record, sort_keys=True)


@pytest.fixture(autouse=True)
def cold_cache():
    clear_schedule_cache()
    yield
    clear_schedule_cache()


def acquire_in_worker(_):
    """(compiles, packed plans before, after) of one acquisition here."""
    misses = schedule_cache_stats()["misses"]
    engine = StreamingCampaign(assemble(SECRET_SRC), scope=SCOPE, seed=3)
    compiled = engine.compiled(secret_inputs(n=40))
    plans = len(compiled.leakage._packed_plans)
    engine.acquire(secret_inputs(n=40))
    return (
        schedule_cache_stats()["misses"] - misses,
        plans,
        len(compiled.leakage._packed_plans),
    )


class TestProgramDigest:
    def test_equal_sources_share_a_digest(self):
        assert assemble(SECRET_SRC).content_digest() == assemble(SECRET_SRC).content_digest()

    def test_digest_is_computed_once(self):
        program = assemble(SECRET_SRC)
        digest = program.content_digest()
        program.source = "changed after compilation"
        assert program.content_digest() is digest

    def test_sourceless_programs_digest_their_instructions(self):
        program = assemble(SECRET_SRC)
        bare = dataclasses.replace(program, source="")
        edited = dataclasses.replace(
            bare, instructions=[*bare.instructions[:-1], bare.instructions[0]]
        )
        assert bare.content_digest() != program.content_digest()
        assert edited.content_digest() != bare.content_digest()


class TestKeySafety:
    def compiled_twice(self, first: StreamingCampaign, second: StreamingCampaign, inputs):
        before = misses()
        first.compiled(inputs)
        second.compiled(inputs)
        return misses() - before

    def test_one_data_byte_apart(self):
        program = assemble(SECRET_SRC)
        blocks = copy.deepcopy(program.data_blocks)
        blocks[0] = DataBlock(blocks[0].address, b"\x45" + blocks[0].data[1:])
        other = dataclasses.replace(program, data_blocks=blocks)
        inputs = secret_inputs()
        first = StreamingCampaign(program, scope=SCOPE, seed=1)
        second = StreamingCampaign(other, scope=SCOPE, seed=1)
        assert self.compiled_twice(first, second, inputs) == 2
        assert schedule_cache_info() == (2, 2)
        assert not np.array_equal(
            first.acquire(inputs).traces, second.acquire(inputs).traces
        )

    def test_text_base_apart(self):
        inputs = secret_inputs()
        first = StreamingCampaign(assemble(SECRET_SRC), scope=SCOPE)
        second = StreamingCampaign(assemble(SECRET_SRC, text_base=0x9000), scope=SCOPE)
        assert self.compiled_twice(first, second, inputs) == 2

    def test_entry_apart(self):
        program = assemble(SECRET_SRC)
        inputs = secret_inputs()
        first = StreamingCampaign(program, scope=SCOPE)
        second = StreamingCampaign(program, scope=SCOPE, entry="second")
        assert self.compiled_twice(first, second, inputs) == 2

    def test_use_tape_apart(self):
        inputs = secret_inputs()
        before = misses()
        taped = TraceCampaign(assemble(SECRET_SRC), scope=SCOPE)
        untaped = TraceCampaign(assemble(SECRET_SRC), scope=SCOPE, use_tape=False)
        assert compile_cached(taped, inputs).tape is not None
        assert compile_cached(untaped, inputs).tape is None
        assert misses() - before == 2

    def test_equal_programs_share_one_entry(self):
        inputs = secret_inputs()
        first = StreamingCampaign(assemble(SECRET_SRC), scope=SCOPE, seed=1)
        second = StreamingCampaign(assemble(SECRET_SRC), scope=SCOPE, seed=2)
        assert self.compiled_twice(first, second, inputs) == 1
        assert second._campaign.compile_count == 0
        assert schedule_cache_info() == (1, 1)

    def test_input_dependent_programs_bypass_the_cache(self):
        inputs = random_inputs(32, reg_names=(Reg.R2,), seed=9)
        inputs.regs[Reg.R2] &= np.uint32(0x7FFFFFFF)
        inputs.regs[Reg.R1] = inputs.regs[Reg.R2] | np.uint32(0x80000000)  # r1 > r2
        inputs.regs[Reg.R9] = np.full(32, 0x30000, dtype=np.uint32)
        before = schedule_cache_stats()
        for seed in (1, 2):
            engine = StreamingCampaign(assemble(CONDITIONAL_SRC), scope=SCOPE, seed=seed)
            engine.acquire(inputs)
            assert engine._campaign.compile_count >= 1
        assert schedule_cache_stats() == before
        assert schedule_cache_info() == (0, 0)


class TestPoolWorkers:
    def test_unpickled_equal_programs_hit_in_the_worker(self):
        inputs = secret_inputs(n=48)
        backend = PoolBackend(jobs=1).start()  # workers start on a cold cache
        try:
            [before] = backend.map_items(worker_misses, [None])
            streams = []
            for seed in (1, 2):
                engine = StreamingCampaign(assemble(SECRET_SRC), scope=SCOPE, seed=seed)
                chunks = engine.stream(inputs, chunk_size=16, backend=backend)
                streams.append(np.concatenate([chunk.traces for chunk in chunks]))
            # Six chunks, each carrying a freshly unpickled program: one compile.
            assert backend.map_items(worker_misses, [None]) == [before + 1]
        finally:
            backend.close()
        serial = StreamingCampaign(assemble(SECRET_SRC), scope=SCOPE, seed=2)
        chunks = serial.stream(inputs, chunk_size=16, backend="serial")
        np.testing.assert_array_equal(
            streams[1], np.concatenate([chunk.traces for chunk in chunks])
        )


    @pytest.mark.skipif(not fork_available(), reason="fork unavailable")
    def test_a_warmed_parent_hands_compile_and_plan_to_forked_workers(self):
        engine = StreamingCampaign(assemble(SECRET_SRC), scope=SCOPE, seed=3)
        engine.warm(secret_inputs(n=40))
        backend = PoolBackend(jobs=1).start()  # forked after the warm
        try:
            [(compiles, plans_before, plans_after)] = backend.map_items(
                acquire_in_worker, [None]
            )
        finally:
            backend.close()
        assert (compiles, plans_before, plans_after) == (0, 1, 1)


class TestBound:
    def test_lru_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(engine_module, "SCHEDULE_CACHE_CAPACITY", 2)
        inputs = secret_inputs()
        programs = [assemble(SECRET_SRC, text_base=base) for base in (0x8000, 0x9000, 0xA000)]
        before = schedule_cache_stats()
        StreamingCampaign(programs[0], scope=SCOPE).compiled(inputs)
        StreamingCampaign(programs[1], scope=SCOPE).compiled(inputs)
        StreamingCampaign(programs[0], scope=SCOPE).compiled(inputs)  # refresh
        StreamingCampaign(programs[2], scope=SCOPE).compiled(inputs)  # evicts [1]
        after = schedule_cache_stats()
        assert after["evictions"] - before["evictions"] == 1
        assert schedule_cache_info() == (2, 2)
        StreamingCampaign(programs[0], scope=SCOPE).compiled(inputs)
        assert schedule_cache_stats()["misses"] == after["misses"]
        StreamingCampaign(programs[1], scope=SCOPE).compiled(inputs)
        assert schedule_cache_stats()["misses"] == after["misses"] + 1

    def test_repeated_runs_do_not_leak(self):
        # Every Session run builds a fresh Program; the cache must hold
        # one entry for all of them, and memory must stop growing.
        session = Session()
        tracemalloc.start()
        try:
            for run in range(50):
                session.run("figure3", n_traces=32, precision="float32", seed=1000 + run)
                if run == 9:
                    gc.collect()
                    at_ten, _peak = tracemalloc.get_traced_memory()
            gc.collect()
            at_fifty, _peak = tracemalloc.get_traced_memory()
            assert schedule_cache_info() == (1, 1)
            clear_schedule_cache()
            gc.collect()
            entry_size = at_fifty - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entry_size > 0
        assert at_fifty - at_ten < entry_size


class TestColdEqualsWarm:
    """A cache hit must never change a result, byte for byte."""

    @pytest.mark.parametrize("precision", ("float32", "float64-exact"))
    def test_figure3(self, precision):
        session = Session()
        cold = stable(session.run("figure3", n_traces=48, precision=precision, seed=21))
        assert schedule_cache_info()[1] == 1
        session.run("figure3", n_traces=48, precision=precision, seed=22)
        session.run("figure2", reps=2)
        before = schedule_cache_stats()
        warm = stable(session.run("figure3", n_traces=48, precision=precision, seed=21))
        assert schedule_cache_stats()["misses"] == before["misses"]
        assert schedule_cache_stats()["hits"] > before["hits"]
        assert warm == cold

    def test_one_corpus_cell_per_workload(self):
        manifest = Manifest(
            name="cache", workloads=tuple(entry.name for entry in workloads()), budgets=(48,)
        )

        def run(seed):
            record = CorpusCampaign(manifest, store=None, seed=seed).run().to_json()
            record.pop("seconds")
            for cell in record["cells"]:
                cell.pop("seconds")
            return json.dumps(record, sort_keys=True)

        cold = run(31)
        run(32)
        before = misses()
        warm = run(31)
        assert misses() == before
        assert warm == cold

    def test_data_dependent_branch_recompiles_on_a_hit(self):
        not_taken = branch_inputs(taken=False)

        def acquire(inputs):
            engine = StreamingCampaign(assemble(BRANCH_SRC), scope=SCOPE, seed=3)
            return engine, engine.acquire(inputs)

        _engine, cold = acquire(not_taken)
        clear_schedule_cache()
        acquire(branch_inputs(taken=True, seed=8))
        hits = schedule_cache_stats()["hits"]
        engine, warm = acquire(not_taken)
        assert schedule_cache_stats()["hits"] > hits
        # The hit pinned the other branch direction: one recompile.
        assert engine._campaign.compile_count == 1
        assert warm.path == cold.path
        np.testing.assert_array_equal(warm.traces, cold.traces)
