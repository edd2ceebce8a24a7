"""Tests for the command-line interface."""

import pytest

from repro.cli import main

MINIFORT = """
proc double(n) {
  out(n * 2);
}
"""

ILOC = """proc double 1
entry:
    param r0 0
    muli r1 r0 2
    out r1
    ret
"""


@pytest.fixture
def mf_file(tmp_path):
    path = tmp_path / "prog.mf"
    path.write_text(MINIFORT)
    return str(path)


@pytest.fixture
def il_file(tmp_path):
    path = tmp_path / "prog.il"
    path.write_text(ILOC)
    return str(path)


class TestCompile:
    def test_compile_minifort(self, mf_file, capsys):
        assert main(["compile", mf_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("proc double 1")
        assert "muli" in out or "mul" in out

    def test_compile_iloc_passthrough(self, il_file, capsys):
        assert main(["compile", il_file]) == 0
        assert "muli r1 r0 2" in capsys.readouterr().out

    def test_sniffing_without_extension(self, tmp_path, capsys):
        path = tmp_path / "noext"
        path.write_text(ILOC)
        assert main(["compile", str(path)]) == 0
        assert "param" in capsys.readouterr().out

    def test_opt_flag(self, tmp_path, capsys):
        path = tmp_path / "prog.mf"
        path.write_text("proc f() { int x; x = 3 + 4; x = 3 + 4; out(x); }")
        assert main(["compile", str(path), "--opt"]) == 0
        out = capsys.readouterr().out
        # LVN + DCE leave a single pair of constant loads
        assert out.count("ldi") <= 3


class TestRun:
    def test_run_with_args(self, mf_file, capsys):
        assert main(["run", mf_file, "21"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "42"
        assert "steps=" in captured.err

    def test_run_allocated_matches(self, mf_file, capsys):
        main(["run", mf_file, "21"])
        plain = capsys.readouterr().out
        main(["run", mf_file, "21", "--allocated", "--k", "4"])
        allocated = capsys.readouterr().out
        assert plain == allocated

    def test_run_iloc(self, il_file, capsys):
        assert main(["run", il_file, "7"]) == 0
        assert capsys.readouterr().out.strip() == "14"


class TestAllocate:
    def test_allocate_prints_physical_code(self, mf_file, capsys):
        assert main(["allocate", mf_file, "--k", "4"]) == 0
        captured = capsys.readouterr()
        assert "R0" in captured.out
        assert "rounds=" in captured.err

    def test_allocate_modes(self, mf_file, capsys):
        for mode in ("chaitin", "remat", "split_all"):
            assert main(["allocate", mf_file, "--mode", mode]) == 0
            assert "proc double" in capsys.readouterr().out

    def test_allocate_strategies(self, mf_file, capsys):
        for allocator in ("iterated", "ssa"):
            assert main(["allocate", mf_file, "--k", "4",
                         "--allocator", allocator]) == 0
            captured = capsys.readouterr()
            assert "R0" in captured.out


class TestCgen:
    def test_cgen_emits_c(self, mf_file, capsys):
        assert main(["cgen", mf_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#include <stdio.h>")
        assert "void double(double *args)" in out

    def test_cgen_allocated(self, mf_file, capsys):
        assert main(["cgen", mf_file, "--allocated", "--k", "4"]) == 0
        assert "r0p" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


LOOPY = """
proc f(n) {
  int s; int i;
  s = 0;
  for i = 0 to n {
    s = s + i * 4;
  }
  out(s);
}
"""


class TestOptCommand:
    @pytest.fixture
    def loop_file(self, tmp_path):
        path = tmp_path / "loop.mf"
        path.write_text(LOOPY)
        return str(path)

    def test_default_pipeline_emits_iloc(self, loop_file, capsys):
        assert main(["opt", loop_file]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("proc f 1")
        assert "# passes=lvn,licm,dce" in captured.err

    def test_explicit_passes_and_verify(self, loop_file, capsys):
        assert main(["opt", loop_file, "--passes", "dce,lvn",
                     "--verify-after-each"]) == 0
        err = capsys.readouterr().err
        assert "passes=dce,lvn" in err
        assert "verified=2" in err

    def test_print_after_dumps_to_stderr(self, loop_file, capsys):
        assert main(["opt", loop_file, "--print-after", "dce"]) == 0
        captured = capsys.readouterr()
        assert "# --- IR after dce ---" in captured.err
        assert "# ---" not in captured.out

    def test_analysis_accounting_reported(self, loop_file, capsys):
        assert main(["opt", loop_file]) == 0
        err = capsys.readouterr().err
        assert "analyses_computed=" in err and "analyses_reused=" in err

    def test_unknown_pass_is_an_error(self, loop_file):
        with pytest.raises(SystemExit, match="unknown pass 'bogus'"):
            main(["opt", loop_file, "--passes", "bogus"])

    def test_empty_pass_list_is_an_error(self, loop_file):
        with pytest.raises(SystemExit, match="named no passes"):
            main(["opt", loop_file, "--passes", ","])

    def test_output_parses_and_runs(self, loop_file, capsys, tmp_path):
        from repro.interp import run_function
        from repro.ir import parse_function

        assert main(["opt", loop_file,
                     "--passes", "lvn,licm,dce"]) == 0
        fn = parse_function(capsys.readouterr().out)
        assert run_function(fn, args=[5]).output == [40]


class TestPassesCommand:
    def test_lists_every_registered_pass(self, capsys):
        from repro.passes import PASS_REGISTRY

        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        for name in PASS_REGISTRY:
            assert name in out

    def test_shows_invalidation_contracts(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "preserves: dominance, loops" in out
        assert "preserves: none" in out
