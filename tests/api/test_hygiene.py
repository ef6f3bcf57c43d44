"""Repo hygiene gates run as part of tier-1, not only in CI."""

import importlib
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


#: names deleted with the deprecated shims, the numba backend and the
#: degradation ladder: ``(module, attribute path)``
REMOVED_NAMES = (
    ("repro.backends", "ForkBackend"),
    ("repro.backends", "SpawnBackend"),
    ("repro.backends", "NumbaTapeBackend"),
    ("repro.backends", "numba_available"),
    ("repro.backends", "DEGRADATION_LADDER"),
    ("repro.backends.resilience", "DEGRADATION_LADDER"),
    ("repro.backends.resilience", "next_rung"),
    ("repro.backends.pools", "ForkBackend"),
    ("repro.backends.pools", "SpawnBackend"),
    ("repro.backends.pools", "_slim_payload"),
    ("repro.power.synth", "set_packed_evaluate_hook"),
    ("repro.power.synth", "_PACKED_EVALUATE_HOOK"),
    ("repro.campaigns", "RunOptions"),
    ("repro.campaigns.registry", "RunOptions"),
    ("repro.campaigns.registry", "_LEGACY_SUPPORTS"),
    ("repro.campaigns.engine", "CompiledSchedule"),
    ("repro.api.request", "RunRequest.from_options"),
)


@pytest.mark.parametrize(("module", "path"), REMOVED_NAMES)
def test_removed_names_are_gone(module, path):
    owner_path, _, name = path.rpartition(".")
    owner = importlib.import_module(module)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    assert not hasattr(owner, name), f"{module}.{path} should no longer exist"


def test_numba_backend_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.backends.numba_tape")


def tracked_files():
    completed = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        pytest.skip("not a git checkout")
    return completed.stdout.splitlines()


def test_no_service_spool_state_is_committed():
    """Runtime spool state (job queue, caches, sockets) must stay out of git.

    The service writes everything under its spool directory; a stray
    `git add .` from a tree where `repro serve` ran must not be able to
    commit queue markers, cached envelopes or port files.
    """
    spool_parts = {".repro-spool", "queued", "running"}
    offenders = [
        path
        for path in tracked_files()
        if path.endswith(".sock")
        or spool_parts.intersection(Path(path).parts)
        or Path(path).name in ("port", "stop")
    ]
    assert offenders == [], f"service spool state committed to git: {offenders}"


def test_no_bytecode_caches_are_committed():
    """No `__pycache__`/.pyc anywhere tracked — including scripts/.

    Running the tests or the scripts compiles bytecode right next to
    tracked files; a careless `git add` must not pick it up.
    """
    offenders = [
        path
        for path in tracked_files()
        if path.endswith(".pyc") or "__pycache__" in Path(path).parts
    ]
    assert offenders == [], f"bytecode committed to git: {offenders}"


def test_no_artifact_store_state_is_committed():
    """The corpus artifact store must stay out of git.

    `repro corpus run` persists content-addressed cell results under
    `.repro-store/` relative to the cwd; like the service spool, that
    runtime state is machine-local and must never be tracked.
    """
    offenders = [
        path
        for path in tracked_files()
        if ".repro-store" in Path(path).parts
    ]
    assert offenders == [], f"artifact store state committed to git: {offenders}"
