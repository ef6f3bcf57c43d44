"""The ``repro corpus`` subcommand and its main-CLI integration."""

import json

import pytest

from repro.cli import main as repro_main
from repro.corpus.cli import main as corpus_main

MANIFEST = {
    "schema": "repro.manifest/1",
    "name": "tiny",
    "workloads": ["memcpy"],
    "budgets": [32],
}

POISONED = {
    "schema": "repro.manifest/1",
    "name": "poison",
    "workloads": ["memcpy"],
    "configs": [
        {"name": "ok"},
        {"name": "bad", "overrides": {"no_such_field": 1}},
    ],
    "budgets": [32],
}


@pytest.fixture
def manifest_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(MANIFEST))
    return str(path)


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


class TestCorpusRun:
    @pytest.mark.parametrize("argv, jobs", [([], None), (["--jobs", "1"], 1), (["--jobs", "3"], 3)])
    def test_jobs_default_to_auto(self, manifest_path, store_dir, monkeypatch, argv, jobs):
        from repro.corpus import runner

        seen = []
        real_init = runner.CorpusCampaign.__init__

        def spy(self, manifest, **knobs):
            seen.append(knobs["jobs"])
            real_init(self, manifest, **knobs)

        monkeypatch.setattr(runner.CorpusCampaign, "__init__", spy)
        assert corpus_main(["run", manifest_path, "--store", store_dir, *argv]) == 0
        assert seen == [jobs]

    def test_ok_run_exits_zero(self, manifest_path, store_dir, capsys):
        code = corpus_main(["run", manifest_path, "--store", store_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "leakiest first" in out
        assert "memcpy/baseline/default/n32" in out

    def test_json_output_is_machine_readable(
        self, manifest_path, store_dir, capsys
    ):
        assert corpus_main(
            ["run", manifest_path, "--store", store_dir, "--format", "json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["manifest"] == "tiny"
        assert record["store"]["misses"] == 1
        assert record["errors"] == {}

    def test_second_run_is_store_served(self, manifest_path, store_dir, capsys):
        corpus_main(["run", manifest_path, "--store", store_dir])
        capsys.readouterr()
        assert corpus_main(
            ["run", manifest_path, "--store", store_dir, "--format", "json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["store"]["hits"] == 1
        assert record["store"]["misses"] == 0

    def test_poisoned_cell_exits_one_but_others_complete(
        self, tmp_path, capsys
    ):
        path = tmp_path / "poison.json"
        path.write_text(json.dumps(POISONED))
        code = corpus_main(
            ["run", str(path), "--no-store", "--format", "json"]
        )
        assert code == 1
        record = json.loads(capsys.readouterr().out)
        assert list(record["errors"]) == ["memcpy/bad/default/n32"]
        assert "no_such_field" in record["errors"]["memcpy/bad/default/n32"]
        ok = [c for c in record["cells"] if c.get("error") is None]
        assert len(ok) == 1

    def test_bad_manifest_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(SystemExit) as excinfo:
            corpus_main(["run", str(path)])
        assert excinfo.value.code == 2
        assert "schema" in capsys.readouterr().err

    def test_missing_manifest_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            corpus_main(["run", "/no/such/manifest.yaml"])
        assert excinfo.value.code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_resume_without_checkpoint_is_a_usage_error(
        self, manifest_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            corpus_main(["run", manifest_path, "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_store_and_no_store_are_mutually_exclusive(
        self, manifest_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            corpus_main(
                ["run", manifest_path, "--store", "x", "--no-store"]
            )
        assert excinfo.value.code == 2

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            corpus_main([])
        assert excinfo.value.code == 2


class TestCorpusList:
    def test_text_table(self, capsys):
        assert corpus_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Registered corpus workloads" in out
        assert "present-round" in out
        assert "memcpy" in out

    def test_json_listing(self, capsys):
        assert corpus_main(["list", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in entries]
        assert "aes-round1" in names and "ct-compare" in names
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["present-round"]["guesses"] == 16
        assert by_name["ct-compare"]["recovers_key"] is False


class TestMainCliIntegration:
    def test_corpus_run_is_dispatched_from_the_main_cli(
        self, manifest_path, store_dir, capsys
    ):
        assert repro_main(
            ["corpus", "run", manifest_path, "--store", store_dir]
        ) == 0
        assert "leakiest first" in capsys.readouterr().out

    def test_corpus_list_is_dispatched_from_the_main_cli(self, capsys):
        assert repro_main(["corpus", "list"]) == 0
        assert "Registered corpus workloads" in capsys.readouterr().out

    def test_bare_corpus_scenario_demands_a_manifest(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["corpus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "requires --manifest PATH" in err
        assert "docs/corpus.md" in err

    def test_generic_scenario_path_with_manifest(
        self, manifest_path, tmp_path, monkeypatch, capsys
    ):
        # The scenario path writes its store relative to the cwd.
        monkeypatch.chdir(tmp_path)
        assert repro_main(
            ["corpus", "--manifest", manifest_path, "--format", "json"]
        ) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        assert reports[0]["schema"] == "repro.envelope/1"
        assert reports[0]["data"]["manifest"] == "tiny"
        assert (tmp_path / ".repro-store").is_dir()

    def test_all_without_manifest_skips_corpus_with_a_note(
        self, monkeypatch, capsys
    ):
        from repro.campaigns import registry

        monkeypatch.setattr(registry, "names", lambda: ["figure2", "corpus"])
        assert repro_main(["all", "--reps", "40"]) == 0
        captured = capsys.readouterr()
        assert (
            "note: skipping corpus (requires --manifest PATH" in captured.err
        )
        assert "==== corpus" not in captured.out
        assert "Inferred pipeline structure" in captured.out

    def test_all_with_manifest_includes_corpus(
        self, manifest_path, tmp_path, monkeypatch, capsys
    ):
        from repro.campaigns import registry

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(registry, "names", lambda: ["corpus"])
        assert repro_main(["all", "--manifest", manifest_path]) == 0
        captured = capsys.readouterr()
        assert "==== corpus" in captured.out
        assert "leakiest first" in captured.out
