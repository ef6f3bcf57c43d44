"""API-surface lock: accidental public-surface drift must fail CI.

``repro.api`` is the stable entry surface; anything importable from it
is a compatibility promise.  These tests pin the exported names, the
envelope schema version and the capability vocabulary — extending the
surface is a deliberate act (update the pinned lists here *and*
``docs/api.md``), shrinking or renaming is a breaking change.
"""

import repro.api as api
from repro.api import ENVELOPE_SCHEMA, Capability

#: The public surface, alphabetical.  Keep in sync with docs/api.md.
LOCKED_SURFACE = [
    "Capability",
    "CapabilityError",
    "ENVELOPE_SCHEMA",
    "Envelope",
    "EnvelopeSchemaError",
    "REQUEST_SCHEMA",
    "RequestSchemaError",
    "ResultEnvelope",
    "RunRequest",
    "Scenario",
    "Session",
    "run",
    "scenario_names",
    "scenarios",
    "validate_envelope",
]

#: The capability vocabulary scenarios declare against.
LOCKED_CAPABILITIES = {
    "traces",
    "reps",
    "chunking",
    "jobs",
    "backend",
    "precision",
    "grid",
    "seed",
    "pipeline-config",
    "scope",
    "resilience",
    "reduce",
    "manifest",
}


def test_all_is_locked():
    assert api.__all__ == LOCKED_SURFACE


def test_every_export_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_dir_matches_all():
    assert dir(api) == sorted(api.__all__)


def test_envelope_schema_version_is_locked():
    # Bumping the version is allowed but must be deliberate: update the
    # schema docs and the migration notes in docs/api.md alongside.
    assert ENVELOPE_SCHEMA == "repro.envelope/1"


def test_request_schema_version_is_locked():
    from repro.api import REQUEST_SCHEMA

    assert REQUEST_SCHEMA == "repro.request/1"


def test_capability_vocabulary_is_locked():
    assert {capability.value for capability in Capability} == LOCKED_CAPABILITIES


def test_import_is_light():
    """Importing repro.api must not drag numpy-heavy modules in."""
    import subprocess
    import sys

    code = (
        "import sys, repro.api; "
        "heavy = [m for m in ('numpy', 'repro.campaigns.engine', "
        "'repro.experiments.figure3') if m in sys.modules]; "
        "sys.exit(1 if heavy else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0


def _scipy_modules_after(code: str) -> set[str]:
    """The scipy submodules a fresh interpreter holds after ``code``."""
    import json
    import subprocess
    import sys

    probe = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_scenario_load_imports_no_scipy():
    """Loading the registry and resolving a request pays no scipy import."""
    loaded = _scipy_modules_after(
        "from repro.api import RunRequest, Session\n"
        "from repro.campaigns import registry\n"
        "registry.load_builtin_scenarios()\n"
        "RunRequest(n_traces=32, precision='float32').resolve(Session().scenario('figure3'))"
    )
    assert not loaded & {"scipy.stats", "scipy.signal", "scipy.special"}


def test_figure3_run_imports_neither_scipy_stats_nor_signal():
    """A float32 figure3 capture needs at most ``scipy.special``."""
    loaded = _scipy_modules_after(
        "from repro.api import Session\n"
        "Session().run('figure3', n_traces=64, precision='float32')"
    )
    assert not loaded & {"scipy.stats", "scipy.signal"}


def test_verdicts_and_corpus_cells_import_no_scipy():
    """The verdict statistics are stdlib ports: no run imports scipy."""
    loaded = _scipy_modules_after(
        "from repro.api import Session\n"
        "from repro.corpus.manifest import Manifest\n"
        "from repro.corpus.runner import CorpusCampaign\n"
        "Session().run('figure3', n_traces=64, precision='float32')\n"
        "CorpusCampaign(Manifest(name='m', workloads=('memcpy',), budgets=(32,)), store=None).run()"
    )
    assert loaded == set()
