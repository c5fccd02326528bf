"""CLI surface of the compiler session: compile --cache-dir, cache stats/clear."""

import pytest

from repro.cli import main

SOURCE = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>;"
    " R := A * B;"
)


class TestCliCache:
    def test_compile_writes_disk_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["compile", "--source", SOURCE, "--train", "20",
             "--cache-dir", cache_dir, "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "variant" in out
        assert "misses=1" in out and "disk_writes=1" in out

    def test_second_compile_hits_disk_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["compile", "--source", SOURCE, "--train", "20",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(
            ["compile", "--source", SOURCE, "--train", "20",
             "--cache-dir", cache_dir, "--stats", "--timings"]
        ) == 0
        out = capsys.readouterr().out
        assert "disk_hits=1" in out
        assert "skipped (cache hit)" in out
        assert "enumerate" in out  # listed among the skipped passes

    def test_timings_flag_prints_passes(self, tmp_path, capsys):
        assert main(
            ["compile", "--source", SOURCE, "--train", "20", "--timings",
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "pass timings:" in out
        assert "select" in out

    def test_cache_stats_and_clear(
        self, tmp_path, capsys, restore_global_codegen_cache
    ):
        cache_dir = str(tmp_path / "cache")
        main(["compile", "--source", SOURCE, "--train", "20",
              "--cache-dir", cache_dir])
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "entries:         1" in out

        # The clear goes to a private codegen directory: without it, the
        # user's compiled interpreter would be deleted.
        codegen_dir = tmp_path / "codegen"
        codegen_dir.mkdir()
        for suffix in (".so", ".c"):
            (codegen_dir / f"step-interp-test{suffix}").write_text("")
        assert main(["cache", "clear", "--cache-dir", cache_dir,
                     "--codegen-cache-dir", str(codegen_dir)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 cache entries" in out
        assert f"removed 1 codegen entries from {codegen_dir}" in out
        assert list(codegen_dir.iterdir()) == []

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:         0" in capsys.readouterr().out

    def test_cache_stats_on_missing_dir(self, tmp_path, capsys):
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "nonexistent")]
        ) == 0
        assert "entries:         0" in capsys.readouterr().out

    def test_env_var_sets_compile_cache_dir(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["compile", "--source", SOURCE, "--train", "20",
                     "--stats"]) == 0
        assert "disk_writes=1" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries:         1" in capsys.readouterr().out

    def test_unwritable_cache_dir_degrades_gracefully(self, tmp_path, capsys):
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("x")
        assert main(["compile", "--source", SOURCE, "--train", "20",
                     "--cache-dir", str(blocker), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "variant" in out  # compilation still succeeded
        assert "disk_errors=1" in out

    def test_expression_compile_with_cache_dir(self, tmp_path, capsys):
        source = "Matrix A <General, Singular>; R := A + 2 * A;"
        assert main(
            ["compile", "--source", source, "--train", "10",
             "--cache-dir", str(tmp_path / "cache"), "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "expression" in out
        assert "hits=1" in out  # the second term reuses the first's entry
