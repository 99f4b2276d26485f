import ast
import gc
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import probarg
from probarg.cli import main

HERE = Path(__file__).parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden"
DATA = HERE / "data"
CORPUS = Path(probarg.__file__).parent / "corpus_data"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _unsatisfiable_antecedent(tmp_path):
    """A task file whose premise's antecedent has no world."""
    path = tmp_path / "unsat.arg"
    path.write_text(
        "task T {\n  atoms: A, C\n  premise: quite_sure(if(and(A, not(A)), C))\n"
        "  conclusion: C\n}\n"
    )
    return path


class TestExitCodes:
    def test_eval_ok(self):
        code, out, _ = run_cli("eval", str(DATA / "paradox.arg"))
        assert code == 0
        assert out

    def test_missing_file(self):
        code, _, err = run_cli("eval", str(DATA / "nope.arg"))
        assert code == 1
        assert "error:" in err

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.arg"
        bad.write_text("task { oops")
        code, _, err = run_cli("eval", str(bad))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("command", ["eval", "check"])
    def test_every_conclusion_is_a_located_parse_error(self, tmp_path, command):
        bad = tmp_path / "every.arg"
        bad.write_text("task T {\n  atoms: A, C\n  conclusion: every(A, C)\n}\n")
        code, out, err = run_cli(command, str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}:3:15: 'every' is a premise form, not a conclusion")
        assert "Traceback" not in err

    def test_incoherent_premises_exit_2(self):
        code, _, err = run_cli("eval", str(DATA / "incoherent.arg"))
        assert code == 2
        assert "incoherent" in err

    def test_usage_error_is_1(self):
        code, _, _ = run_cli("eval")
        assert code == 1

    def test_bad_theta_is_1(self):
        code, _, err = run_cli(
            "eval", str(DATA / "paradox.arg"), "--theta", "1/3"
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "theta, reason",
        [("abc", "Invalid literal for Fraction: 'abc'"), ("1/0", "Fraction(1, 0)")],
    )
    def test_unparsable_theta_is_1(self, theta, reason):
        code, _, err = run_cli("eval", str(DATA / "paradox.arg"), "--theta", theta)
        assert code == 1
        assert f"argument --theta: not a rational: {theta!r} ({reason})" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("eval", str(DATA / "paradox.arg"), "--theta"), "--theta"),
            (("stats", "holm", "0.01,0.2", "--alpha"), "--alpha"),
            (("counterfactual", "--c", "C", "--b", "B", "--a", "not(B)", "--p"), "--p"),
        ],
        ids=["theta", "alpha", "p"],
    )
    def test_exponent_is_1_at_once(self, argv, option):
        """Fraction("1e-10000000") writes out ten million digits, which
        takes seconds, before a range check could reject the value."""
        start = time.perf_counter()
        code, out, err = run_cli(*argv, "1e-10000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "") and "Traceback" not in err
        assert f"argument {option}: not a rational: '1e-10000000' (exponent notation)" in err

    def test_counterfactual_compatible_antecedents_is_1(self):
        code, out, err = run_cli(
            "counterfactual", "--c", "C", "--b", "B", "--a", "B", "--p", "1/2"
        )
        assert code == 1
        assert out == ""
        assert "incompatibility" in err

    @pytest.mark.parametrize(
        "argv, name, content",
        [
            (("eval",), "bad.arg", b"t\x9bask"),
            (("check",), "bad.arg", b"t\x9bask"),
            (("stats", "fisher"), "bad.csv", b"1,\x9b\n2,3\n"),
        ],
        ids=["eval", "check", "stats-fisher"],
    )
    def test_undecodable_file_names_its_path(self, tmp_path, argv, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        code, out, err = run_cli(*argv, str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0x9b")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "check"])
    def test_17_atoms_is_1_before_solving(self, tmp_path, monkeypatch, command):
        from probarg import coherence

        def refuse(*args, **kwargs):
            raise AssertionError("a layer was solved before the atom set was checked")

        monkeypatch.setattr(coherence, "Region", refuse)
        monkeypatch.setattr(coherence, "solve_lp", refuse)
        wide = tmp_path / "wide.arg"
        atoms = ", ".join(f"X{i}" for i in range(17))
        wide.write_text(
            f"task W {{\n  atoms: {atoms}\n  premise: quite_sure(if(X0, X1))\n"
            "  conclusion: X1\n}\n"
        )
        code, out, err = run_cli(command, str(wide))
        assert code == 1
        assert out == ""
        assert err == "error: at most 16 atoms supported, got 17\n"

    def test_lowering_error_names_file_task_and_reading(self, tmp_path):
        path = _unsatisfiable_antecedent(tmp_path)
        code, out, err = run_cli("eval", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {path}: task T [conditional_event]: "
            "antecedent is unsatisfiable: and(A, not(A))\n"
        )

    def test_unsatisfiable_antecedent_is_top_under_material_wide(self, tmp_path):
        # the material readings turn the conditional into an unconditional event
        code, out, err = run_cli(
            "check", str(_unsatisfiable_antecedent(tmp_path)), "--interp", "material_wide"
        )
        assert code == 0
        assert out.startswith("T: coherent")
        assert err == ""

    def test_check_ok(self):
        code, out, _ = run_cli("check", str(DATA / "paradox.arg"))
        assert code == 0
        assert "coherent" in out

    @pytest.mark.parametrize("formula", ["C B", "not(C))", "C $"])
    def test_counterfactual_bad_formula_is_1(self, formula):
        # trailing input after the formula, and a character no token starts with
        code, out, err = run_cli(
            "counterfactual", "--c", formula, "--b", "B", "--a", "not(B)", "--p", "1/2"
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: --c {formula!r}: 1:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", ["--b", "--a"])
    def test_counterfactual_unsatisfiable_condition_names_its_option(self, option):
        formulas = {"--b": "B", "--a": "not(B)", option: "and(A, not(A))"}
        argv = [x for pair in formulas.items() for x in pair]
        code, out, err = run_cli("counterfactual", "--c", "C", *argv, "--p", "1/2")
        assert (code, out) == (1, "")
        assert err == f"error: {option} 'and(A, not(A))': conditioning event is unsatisfiable\n"

    def test_check_reports_incoherence_without_failing(self):
        # check is diagnostic: it prints the verdict and exits 0
        code, out, _ = run_cli("check", str(DATA / "incoherent.arg"))
        assert code == 0
        assert "incoherent at level 0" in out

    def test_internal_error_is_1_without_traceback(self, monkeypatch):
        import probarg.cli

        def broken(args):
            raise RuntimeError("layer system unexpectedly unbounded")

        monkeypatch.setattr(probarg.cli, "_cmd_check", broken)
        code, out, err = run_cli("check", str(DATA / "paradox.arg"))
        assert code == 1
        assert out == ""
        assert err == "error: layer system unexpectedly unbounded\n"


class TestGolden:
    def test_eval_text(self):
        _, out, _ = run_cli("eval", str(DATA / "paradox.arg"))
        assert out == (GOLDEN / "eval_paradox.txt").read_text()

    def test_eval_json(self):
        _, out, _ = run_cli("eval", str(DATA / "paradox.arg"), "--json")
        assert out == (GOLDEN / "eval_paradox.json").read_text()
        parsed = json.loads(out)
        assert parsed[0]["task"] == "Prdx"
        assert {"task", "interpretation", "lo", "hi", "category"} == set(parsed[0])

    def test_corpus_text(self):
        _, out, _ = run_cli("corpus")
        assert out == (GOLDEN / "corpus.txt").read_text()

    def test_corpus_json(self):
        _, out, _ = run_cli("corpus", "--json")
        assert out == (GOLDEN / "corpus.json").read_text()
        parsed = json.loads(out)
        assert parsed["match_counts"]["conditional_event"] == 8

    def test_check_witness(self):
        # the witness is the vertex the simplex reaches, so this pins its path
        _, out, _ = run_cli("check", str(CORPUS / "mp.arg"))
        assert out == "MP: coherent; witness masses (0, 0, 0, 1)\n"

    def test_counterfactual_text(self):
        _, out, _ = run_cli(
            "counterfactual", "--c", "C", "--b", "B", "--a", "not(B)", "--p", "7/10"
        )
        assert out == (GOLDEN / "counterfactual.txt").read_text()


class TestStatsCommands:
    def test_fisher(self):
        code, out, _ = run_cli("stats", "fisher", str(DATA / "table_2x2.csv"))
        assert code == 0
        assert "p = 41/14858" in out

    def test_mc_deterministic(self):
        args = ("stats", "mc", str(DATA / "table_2x2.csv"), "--iters", "2000")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a == b
        assert a[0] == 0
        assert "seed 42" in a[1]

    def test_holm(self):
        code, out, _ = run_cli("stats", "holm", "0.01,0.04,0.03")
        assert code == 0
        assert out.splitlines() == [
            "p = 0.01: reject",
            "p = 0.04: keep",
            "p = 0.03: keep",
        ]

    @pytest.mark.parametrize("pvals", [",", "", " , "])
    def test_holm_without_p_values(self, pvals):
        assert run_cli("stats", "holm", pvals) == (1, "", "error: no p-values given\n")

    def test_fisher_names_the_file_and_its_shape(self, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("1,2,3\n4,5,6\n")
        assert run_cli("stats", "fisher", str(wide)) == (
            1, "", f"error: {wide}: fisher needs a 2x2 table, got 2x3\n"
        )

    @pytest.mark.parametrize("pvals", ["abc", "0.01, abc", "0.5,1e", "0.5, 2", "nan"])
    def test_holm_names_the_entry_that_is_no_p_value(self, pvals):
        bad = pvals.split(",")[-1].strip()
        assert run_cli("stats", "holm", pvals) == (
            1, "", f"error: not a p-value in [0, 1]: {bad!r}\n"
        )

    def test_malformed_table(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n2,3\n")
        code, _, err = run_cli("stats", "fisher", str(bad))
        assert code == 1
        assert "malformed" in err


class TestSubprocessEntryPoints:
    def test_module_invocation_repeatable(self):
        cmd = [sys.executable, "-m", "probarg", "corpus", "--json"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_console_script_installed(self):
        try:
            res = subprocess.run(
                ["probarg", "stats", "holm", "0.5"], capture_output=True, text=True
            )
        except FileNotFoundError:
            pytest.skip("console script not on PATH")
        assert res.returncode == 0
        assert "keep" in res.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus"],
            ["eval", str(DATA / "paradox.arg")],
            ["counterfactual", "--c", "C", "--b", "A", "--a", "not(A)", "--p", "7/10"],
        ],
        ids=["corpus", "eval", "counterfactual"],
    )
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        # stdout is a pipe whose read end is already closed
        r, w = os.pipe()
        os.close(r)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "probarg", *argv],
                env=_env(), stdout=w, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(w)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr


def _env():
    """The environment with this checkout's src/ on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _python(*args):
    """Run the interpreter on args with this checkout's src/ on PYTHONPATH."""
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True, check=True)


class TestFreeze:
    """main() freezes the start-up heap only when it reads the process's
    own command line."""

    def test_main_with_argv_freezes_nothing(self):
        before = gc.get_freeze_count()
        assert run_cli("stats", "holm", "0.5")[0] == 0
        assert run_cli("eval", str(DATA / "nope.arg"))[0] == 1
        assert gc.get_freeze_count() == before

    def test_main_without_argv_freezes_the_start_up_heap(self):
        code = (
            "import gc, sys; from probarg.cli import main; "
            "sys.argv = ['probarg', 'stats', 'holm', '0.5']; "
            "before = gc.get_freeze_count(); code = main(); "
            "print(code, before, gc.get_freeze_count() > 1000)"
        )
        res = _python("-c", code)
        assert res.stdout.decode().split()[-3:] == ["0", "0", "True"]


class TestStartup:
    def test_import_loads_no_heavy_modules(self):
        # -S: this environment's site preloads typing through certifi
        res = _python("-S", "-c", "import probarg.cli, sys; print(*sys.modules)")
        loaded = set(res.stdout.decode().split())
        assert "probarg.cli" in loaded
        heavy = {"dataclasses", "inspect", "typing", "json", "csv", "probarg.stats"}
        assert loaded & heavy == set()

    def test_corpus_reads_its_files_without_importlib_resources(self):
        # importlib.resources would load these four, at 36-50 ms under -S
        code = (
            "import sys; from probarg.cli import main; main(['corpus']); "
            "print(*sys.modules, file=sys.stderr)"
        )
        res = _python("-S", "-c", code)
        assert res.stdout == (GOLDEN / "corpus.txt").read_bytes()
        loaded = set(res.stderr.decode().split())
        assert "probarg.corpus" in loaded
        assert loaded & {"pathlib", "zipfile", "tempfile", "typing"} == set()

    @pytest.mark.parametrize("args, golden", [((), "corpus.txt"), (("--json",), "corpus.json")])
    def test_corpus_under_optimisation_matches_golden(self, args, golden):
        # -O strips asserts, so none may sit on the decision path
        res = _python("-O", "-m", "probarg", "corpus", *args)
        assert res.stdout == (GOLDEN / golden).read_bytes()

    def test_package_has_no_assert(self):
        # -O strips asserts, so a check that must hold raises an error of
        # its own; this finds an assert before any golden run could miss it
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted((SRC / "probarg").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestABCli:
    """tools/ab_cli.py, which times `python -m probarg corpus` processes
    from two checkouts."""

    def ab_cli(self, base, new):
        tool = HERE.parent / "tools" / "ab_cli.py"
        return subprocess.run(
            [sys.executable, str(tool), str(base), str(new), "--pairs", "1", "--rounds", "1"],
            capture_output=True, text=True,
        )

    def test_one_pair_of_the_tree_against_itself(self):
        res = self.ab_cli(HERE.parent, HERE.parent)
        assert (res.returncode, res.stderr) == (0, "")
        lines = res.stdout.splitlines()
        assert lines[1].split() == ["side", "q1", "median", "q3"]
        assert [line.split()[0] for line in lines[2:4]] == ["base", "new"]
        assert lines[4].endswith(" of 1 pairs")

    def test_output_that_differs_fails(self, tmp_path):
        fake = tmp_path / "src" / "probarg"
        fake.mkdir(parents=True)
        (fake / "__init__.py").write_text("")
        (fake / "__main__.py").write_text("print('not the report')\n")
        res = self.ab_cli(HERE.parent, tmp_path)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "error: probarg corpus: the two trees print different output\n"
