"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "GEMM" in out and "TRTRSV" in out

    def test_header(self, capsys):
        assert main(["header"]) == 0
        out = capsys.readouterr().out
        assert "gmc_kernels.hpp" in out

    def test_compile_inline(self, capsys):
        source = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " Matrix C <General, Singular>; R := A * B * C;"
        )
        assert main(["compile", "--source", source, "--train", "50"]) == 0
        out = capsys.readouterr().out
        assert "variant" in out
        assert "cost[" in out

    def test_compile_cpp(self, capsys):
        source = "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"
        assert main(
            ["compile", "--source", source, "--train", "20", "--cpp"]
        ) == 0
        assert "gmc" in capsys.readouterr().out

    def test_compile_from_file(self, tmp_path, capsys):
        path = tmp_path / "prog.gmc"
        path.write_text(
            "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"
        )
        assert main(["compile", "--file", str(path), "--train", "20"]) == 0

    def test_compile_output_then_run_describe_and_dispatch(self, tmp_path, capsys):
        source = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " Matrix C <General, Singular>; R := A * B * C;"
        )
        artifact = tmp_path / "prog.json"
        assert main(
            ["compile", "--source", source, "--train", "40",
             "--output", str(artifact)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote compiled artifact" in out
        assert artifact.exists()

        assert main(["run", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "compiled program for chain" in out

        assert main(["run", str(artifact), "--sizes", "10,200,5,100"]) == 0
        out = capsys.readouterr().out
        assert "dispatched to:" in out

    def test_run_executes_npz_arrays(self, tmp_path, capsys):
        import numpy as np

        from repro.api import load_program
        from repro.runtime.executor import naive_evaluate

        source = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " R := A * B;"
        )
        artifact = tmp_path / "prog.json"
        assert main(
            ["compile", "--source", source, "--train", "30",
             "--output", str(artifact)]
        ) == 0
        capsys.readouterr()
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 7))
        npz = tmp_path / "arrays.npz"
        np.savez(npz, A=a, B=b)
        out_file = tmp_path / "result.npy"
        assert main(
            ["run", str(artifact), "--npz", str(npz), "--out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "dispatched to:" in out
        result = np.load(out_file)
        generated = load_program(artifact)
        np.testing.assert_allclose(result, naive_evaluate(generated.chain, [a, b]))

    def test_run_rejects_non_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_compile_output_rejects_expression(self, tmp_path, capsys):
        source = "Matrix A <General, Singular>; R := A + 2 * A;"
        assert main(
            ["compile", "--source", source, "--train", "20",
             "--output", str(tmp_path / "x.json")]
        ) == 2
        assert "one artifact per compiled chain" in capsys.readouterr().err

    def test_compile_timings_prints_variant_pool(self, capsys):
        source = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " Matrix C <General, Singular>; R := A * B * C;"
        )
        assert main(
            ["compile", "--source", source, "--train", "30", "--timings"]
        ) == 0
        out = capsys.readouterr().out
        assert "pass timings:" in out
        assert "variant pool:" in out
        assert "strategy=exhaustive" in out

    def test_compile_without_input_fails(self, capsys):
        assert main(["compile"]) == 2

    def test_fig5_small(self, capsys):
        assert main(
            ["fig5", "--n", "5", "--shapes", "2", "--train", "100", "--val", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "eCDF" in out

    def test_fig6_small(self, capsys):
        assert main(
            ["fig6", "--shapes", "2", "--train", "100", "--val", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "Arma" in out

    def test_analyze(self, capsys):
        source = (
            "Matrix L <LowerTri, NonSingular>; Matrix G <General, Singular>;"
            " R := L^-1 * G;"
        )
        assert main(
            ["analyze", "--source", source, "--train", "50", "--instances", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "Compilation report" in out
        assert "equivalence classes" in out

    def test_analyze_without_input_fails(self):
        assert main(["analyze"]) == 2

    def test_pygen_emits_runnable_module(self, capsys):
        source = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " Matrix C <General, Singular>; R := A * B * C;"
        )
        assert main(["pygen", "--source", source, "--train", "50"]) == 0
        emitted = capsys.readouterr().out
        namespace: dict = {}
        exec(compile(emitted, "<pygen>", "exec"), namespace)
        import numpy as np

        a, b, c = (
            np.ones((2, 3)), np.ones((3, 4)), np.ones((4, 5))
        )
        result = namespace["evaluate"](a, b, c)
        np.testing.assert_allclose(result, (a @ b) @ c)

    def test_pygen_without_input_fails(self):
        assert main(["pygen"]) == 2

    def test_compile_expression_program(self, capsys):
        source = (
            "Matrix A <Symmetric, SPD>; Matrix B <General, Singular>;"
            " Matrix C <General, Singular>;"
            " S := A - B * A^-1 * C;"
        )
        assert main(["compile", "--source", source, "--train", "30"]) == 0
        out = capsys.readouterr().out
        assert "expression" in out
        assert "term" in out

    def test_compile_expression_cpp_per_term(self, capsys):
        source = (
            "Matrix A <General, Singular>; R := A + 2 * A;"
        )
        assert main(
            ["compile", "--source", source, "--train", "10", "--cpp"]
        ) == 0
        out = capsys.readouterr().out
        assert "evaluate_chain_term0" in out
        assert "evaluate_chain_term1" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
