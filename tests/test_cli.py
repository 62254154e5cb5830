import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quasilab import cyclic, format_table, parse_group_spec, parse_table_text, subtraction_quasigroup
from quasilab import cli, search, structure
from quasilab.cli import main
from conftest import addition_table
from quasilab import Quasigroup


@pytest.fixture
def z4_sub_file(tmp_path):
    path = tmp_path / "z4_sub.tbl"
    path.write_text(format_table(subtraction_quasigroup(cyclic(4))))
    return str(path)


@pytest.fixture
def z3_add_file(tmp_path):
    path = tmp_path / "z3_add.tbl"
    path.write_text(format_table(Quasigroup(addition_table(3))))
    return str(path)


# -- check ----------------------------------------------------------------------


def test_check_holds(z4_sub_file, capsys):
    assert main(["check", z4_sub_file, "--identity", "neumann"]) == 0
    assert capsys.readouterr().out.strip() == "HOLDS"


def test_check_fails_with_counterexample(z3_add_file, capsys):
    assert main(["check", z3_add_file, "--identity", "neumann"]) == 1
    assert capsys.readouterr().out.strip() == "FAILS at x=1,y=0,z=0"


def test_check_expr(z4_sub_file, capsys):
    assert main(["check", z4_sub_file, "--identity-expr", "x*x = y*y"]) == 0


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_text("order 2\n0 1\n0 1\n")
    assert main(["check", str(path), "--identity", "neumann"]) == 2
    path.write_text("not a table\n")
    assert main(["check", str(path), "--identity", "neumann"]) == 2
    assert main(["check", str(tmp_path / "missing.tbl"), "--identity", "neumann"]) == 2


def test_check_bad_identity_expr(z4_sub_file):
    assert main(["check", z4_sub_file, "--identity-expr", "x*(y = y"]) == 2
    assert main(["check", z4_sub_file, "--identity", "nosuch"]) == 2


def test_check_deeply_nested_identity_is_a_parse_error(z4_sub_file, capsys):
    expr = "x = " + "(" * 3000 + "x" + ")" * 3000
    assert main(["check", z4_sub_file, "--identity-expr", expr]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_check_json(z3_add_file, capsys):
    assert main(["--format", "json", "check", z3_add_file, "--identity", "neumann"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"holds": False, "counterexample": {"x": 1, "y": 0, "z": 0}}


# -- find ------------------------------------------------------------------------


def test_find_count_only(capsys):
    assert main(["find", "--order", "4", "--identity", "neumann", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_find_streams_blocks(capsys):
    assert main(["find", "--order", "1"]) == 0
    assert capsys.readouterr().out == "order 1\n0\n"


def test_find_blocks_are_parseable(capsys):
    assert main(["find", "--order", "3", "--identity", "neumann"]) == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 3
    for block in blocks:
        q = parse_table_text(block)
        assert q.order == 3


def test_find_order_too_large(capsys):
    assert main(["find", "--order", "99", "--identity", "neumann"]) == 2


def test_find_up_to_iso_and_limit(capsys):
    assert main(["find", "--order", "4", "--identity", "neumann", "--up-to-iso", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["find", "--order", "4", "--limit", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_find_limit_zero_counts_nothing(capsys):
    assert main(["find", "--order", "3", "--limit", "0", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_find_limit_prints_the_first_blocks_of_the_full_output(capsys):
    assert main(["find", "--order", "4"]) == 0
    full = capsys.readouterr().out
    assert main(["find", "--order", "4", "--limit", "3"]) == 0
    blocks = full.split("\n\n")
    assert capsys.readouterr().out == "\n\n".join(blocks[:3]) + "\n"


def test_find_up_to_iso_above_the_canonical_bound_exits_before_searching(monkeypatch, capsys):
    monkeypatch.setenv("QUASILAB_MAX_ORDER", "17")
    monkeypatch.setattr(search, "_search", lambda opts: pytest.fail("searched"))
    assert main(["find", "--order", "17", "--up-to-iso", "--limit", "2"]) == 2
    assert "order 17 above canonical-form bound 16" in capsys.readouterr().err


def test_find_refuses_a_non_integer_max_order_from_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("QUASILAB_MAX_ORDER", "six")
    assert main(["find", "--order", "3", "--count-only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "QUASILAB_MAX_ORDER must be an integer, got 'six'" in captured.err


def test_find_max_order_override(capsys):
    assert main(["--max-order", "3", "find", "--order", "4", "--count-only"]) == 2


def test_find_combines_identities(capsys):
    assert main([
        "find", "--order", "4",
        "--identity", "neumann",
        "--identity-expr", "x*y = y*x",
        "--count-only",
    ]) == 0
    assert capsys.readouterr().out.strip() == "4"


# -- analyze -----------------------------------------------------------------------


def test_analyze_z4_subtraction(z4_sub_file, capsys):
    assert main(["analyze", z4_sub_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["order"] == 4
    assert report["autotopy_count"] == 32
    assert report["automorphism_count"] == 2
    assert report["nuclei"]["right"] == [0, 2]
    assert report["identities"]["neumann"] is True
    assert report["identities"]["schweizer"] is True
    assert report["unipotent"] is True
    assert report["units"] == {"left": None, "right": 0, "is_loop": False}
    assert report["bol"] is True and report["moufang"] is True
    assert report["core_distributive"] == {"left": True, "right": True}
    assert report["ga"]["ga"] is True
    assert report["g"] == {"left_g": False, "right_g": True}
    assert report["decomposition_ok"] is True


def test_analyze_reports_an_autotopy_outside_the_built_group(z4_sub_file, capsys, forged_autotopies):
    assert main(["analyze", z4_sub_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["autotopy_count"] == 32
    assert report["decomposition_ok"] is False


def test_analyze_z5_addition(tmp_path, capsys):
    path = tmp_path / "z5_add.tbl"
    path.write_text(format_table(Quasigroup(addition_table(5))))
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["automorphism_count"] == 4
    assert report["nuclei"] == {
        "left": [0, 1, 2, 3, 4],
        "right": [0, 1, 2, 3, 4],
        "middle": [0, 1, 2, 3, 4],
    }
    assert report["identities"]["neumann"] is False
    assert report["decomposition_ok"] is None


def test_analyze_counts_automorphisms_up_to_order_16(tmp_path, capsys):
    path = tmp_path / "z3z3_sub.tbl"
    path.write_text(format_table(subtraction_quasigroup(parse_group_spec("Z3xZ3"))))
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["automorphism_count"] == 48        # |GL(2, 3)|
    assert report["autotopy_count"] is None          # above the autotopy bound 7


@pytest.mark.parametrize("spec, count", [("Z2xZ2xZ2xZ2", 20160), ("Z4xZ4", 96), ("Z2xZ8", 16)])
def test_analyze_counts_automorphisms_without_listing_them(spec, count, tmp_path, capsys,
                                                            monkeypatch):
    def listed(*args, **kwargs):
        raise AssertionError("analyze listed the automorphisms")

    monkeypatch.setattr(structure, "automorphisms", listed)
    path = tmp_path / "sub.tbl"
    path.write_text(format_table(subtraction_quasigroup(parse_group_spec(spec))))
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["automorphism_count"] == count


def test_analyze_and_check_above_the_evaluation_budget_exit_2(tmp_path, capsys):
    path = tmp_path / "z65_add.tbl"
    path.write_text(format_table(Quasigroup(addition_table(65))))
    for argv in (["analyze", str(path)], ["check", str(path), "--identity", "medial"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "budget" in captured.err
    assert main(["check", str(path), "--identity", "associative"]) == 0


def test_analyze_order_one(tmp_path, capsys):
    path = tmp_path / "one.tbl"
    path.write_text("order 1\n0\n")
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 1
    assert report["autotopy_count"] == 1
    assert report["ga"]["ga"] is True


def test_analyze_of_the_largest_input_stays_small(tmp_path):
    # Z2^6 is order 64, the largest analyze admits; its 4-variable laws span
    # 64^4 cells, which an evaluation of all of them at once held as int64
    # intermediates of 128 MiB each.  ru_maxrss of the children of a
    # wrapper process is the peak of the analyze process alone.
    path = tmp_path / "z2_6_sub.tbl"
    path.write_text(format_table(subtraction_quasigroup(parse_group_spec("Z2xZ2xZ2xZ2xZ2xZ2"))))
    wrapper = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'quasilab', 'analyze', sys.argv[1]],"
        " stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", wrapper, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / 1024     # ru_maxrss is in KB on Linux
    assert peak_mb < 100, peak_mb


# -- construct ------------------------------------------------------------------------


def test_construct_subtraction(capsys):
    assert main(["construct", "--group", "Z4", "--subtraction"]) == 0
    out = capsys.readouterr().out
    assert "# group: Z4" in out
    q = parse_table_text(out)
    assert q == subtraction_quasigroup(cyclic(4))


def test_construct_klein_subtraction_equals_addition(capsys):
    assert main(["construct", "--group", "Z2xZ2", "--subtraction"]) == 0
    sub = parse_table_text(capsys.readouterr().out)
    assert main(["construct", "--group", "z2Xz2"]) == 0
    add = parse_table_text(capsys.readouterr().out)
    assert sub == add


@pytest.mark.parametrize("spec", ["Z3000", "Z257", "Z16xZ17"])
def test_construct_above_the_evaluation_budget_exits_2(spec, capsys):
    assert main(["construct", "--group", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "budget" in captured.err


def test_construct_bad_spec(capsys):
    assert main(["construct", "--group", "Z0"]) == 2
    assert main(["construct", "--group", "Q8"]) == 2


def test_construct_to_file_roundtrip(tmp_path, capsys):
    out = tmp_path / "z5.tbl"
    assert main(["construct", "--group", "Z5", "--subtraction", "--output", str(out)]) == 0
    assert main(["check", str(out), "--identity", "neumann"]) == 0


# -- verify-paper -----------------------------------------------------------------------


def test_verify_paper_small_bounds(capsys):
    code = main([
        "--max-order", "2",
        "verify-paper", "--max-autotopy-order", "4", "--max-construction-order", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_verify_paper_max_order_one_passes_or_skips(capsys):
    code = main([
        "--max-order", "1",
        "verify-paper", "--max-autotopy-order", "1", "--max-construction-order", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fail" not in out.split("overall")[0]
    assert "skipped" in out


def test_verify_paper_with_nothing_to_test_skips_every_claim(capsys):
    code = main([
        "--max-order", "0",
        "verify-paper", "--max-autotopy-order", "1", "--max-construction-order", "0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[2].split()[:2] == ["T6", "skipped"]
    assert out.splitlines()[-1] == "overall: PASS (15 claims, 0 failed, 15 skipped)"


def test_verify_paper_mutation_hook_fails(capsys):
    code = main([
        "--max-order", "2",
        "verify-paper", "--max-autotopy-order", "4", "--max-construction-order", "4",
        "--debug-mutate-rows", "0,1",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "T6" in out and "fail" in out


@pytest.mark.parametrize("rows", ["0,1000", "0,0", "7,8"])
def test_verify_paper_mutation_hook_rejects_rows_it_cannot_swap(rows, capsys):
    # 8 is the default construction order, so rows 0..7 exist in the largest tables
    code = main(["verify-paper", "--debug-mutate-rows", rows])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_verify_paper_passes_max_order_to_the_search(monkeypatch, capsys):
    monkeypatch.setenv("QUASILAB_MAX_ORDER", "2")
    code = main([
        "--max-order", "3",
        "verify-paper", "--max-autotopy-order", "3", "--max-construction-order", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS (15 claims, 0 failed, 0 skipped)" in out


def test_verify_paper_construction_order_above_enumeration_bound(capsys):
    code = main(["verify-paper", "--max-construction-order", "65"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "enumeration bound 64" in captured.err


def test_verify_paper_passes_only_the_bounds_the_user_set(monkeypatch, capsys):
    # the default bounds live in run_verification alone
    import quasilab.cli

    report = quasilab.cli.run_verification(max_order=0, max_autotopy_order=1,
                                           max_construction_order=0)
    calls = []
    monkeypatch.setattr(quasilab.cli, "run_verification", lambda **kw: calls.append(kw) or report)
    main(["verify-paper"])
    main(["--max-order", "3", "verify-paper", "--max-construction-order", "4"])
    capsys.readouterr()
    assert calls == [{"mutate_rows": None},
                     {"max_order": 3, "max_construction_order": 4, "mutate_rows": None}]


def test_verify_paper_json(capsys):
    code = main([
        "--format", "json", "--max-order", "2",
        "verify-paper", "--max-autotopy-order", "2", "--max-construction-order", "2",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["schema"] == 1
    assert payload["overall"] is True
    assert {c["claim_id"] for c in payload["claims"]} >= {"T1", "T5", "T6", "T10"}


def test_verify_paper_deterministic(capsys):
    args = ["--max-order", "2", "verify-paper", "--max-autotopy-order", "3",
            "--max-construction-order", "3"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


# -- global flags ---------------------------------------------------------------------------


def test_threads_flag_is_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "find", "--order", "2", "--count-only"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["find", "--order", "0"],
    ["find", "--order", "2", "--limit", "-1"],
    ["verify-paper", "--debug-mutate-rows", "0"],
    ["verify-paper", "--debug-mutate-rows", "a,b"],
    ["verify-paper", "--debug-mutate-rows=-1,2"],
    ["verify-paper", "--debug-mutate-rows", "0,1,2"],
    ["verify-paper", "--max-autotopy-order", "-1"],
    ["verify-paper", "--max-construction-order", "-5"],
    ["--max-order", "-5", "verify-paper"],
])
def test_malformed_numeric_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_the_parser_is_built_once_and_keeps_nothing_between_calls(monkeypatch, capsys):
    # repeated --identity and --identity-expr flags append to a fresh list in
    # each call, and a usage error leaves the next call's result unchanged
    resolved = []
    resolve = cli._resolve_identities
    monkeypatch.setattr(cli, "_resolve_identities",
                        lambda names, exprs: resolved.append((list(names), list(exprs))) or resolve(names, exprs))
    both = ["find", "--order", "4", "--identity", "neumann", "--identity", "schweizer",
            "--identity-expr", "x*x = y*y", "--identity-expr", "x*y = y*x", "--count-only"]
    assert main(both) == 0
    first = capsys.readouterr().out
    assert main(["find", "--order", "4", "--identity", "eq5", "--count-only"]) == 0
    assert main(["find", "--order", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.split() == ["16", "12"]
    with pytest.raises(SystemExit) as exc:
        main(["find", "--order", "4", "--identity", "neumann", "--limit", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(both) == 0
    assert capsys.readouterr().out == first
    assert resolved == [(["neumann", "schweizer"], ["x*x = y*y", "x*y = y*x"]), (["eq5"], []), ([], []),
                        (["neumann", "schweizer"], ["x*x = y*y", "x*y = y*x"])]
    assert cli._build_parser() is cli._build_parser()


def test_find_json(capsys):
    assert main(["--format", "json", "find", "--order", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert [[0, 1], [1, 0]] in payload["tables"]


def test_verbose_logs_progress_to_stderr_and_keeps_stdout(capsys):
    argv = ["find", "--order", "6", "--identity", "neumann"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert main(["-v"] + argv) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert quiet.err == ""
    assert "nodes" in loud.err
    # the handler is removed again after the run
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_table_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.tbl"
    path.write_bytes(b"order 1\n\xff\n")
    for argv in (["check", str(path), "--identity", "neumann"], ["analyze", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "byte 8" in captured.err


def test_construct_with_an_overlong_factor_exits_2(capsys):
    assert main(["construct", "--group", "Z" + "9" * 5000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "5000 digits" in captured.err
    # a factor int() can read still reaches the evaluation budget
    assert main(["construct", "--group", "Z" + "9" * 50]) == 2
    assert "budget" in capsys.readouterr().err


def test_verify_paper_mutation_hook_rejects_construction_orders_below_3(capsys):
    code = main(["verify-paper", "--max-construction-order", "2", "--debug-mutate-rows", "0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "at least 3" in captured.err


@pytest.mark.parametrize("command", [["check", "--identity", "neumann"], ["analyze"]])
def test_a_table_of_order_above_sys_maxsize_is_a_format_error(command, tmp_path, capsys):
    path = tmp_path / "huge.tbl"
    path.write_text("order 99999999999999999999\n0\n")
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
