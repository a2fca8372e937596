import json

import pytest

from abovetight import maxlin, moments, rsat
from abovetight.cli import main, run
from abovetight.instances import gen_instance

THREE_CYCLE = "p digraph 3 3\na 1 2 1\na 2 3 1\na 3 1 1\n"
SINGLE_ARC = "p digraph 2 1\na 1 2 2\n"
ODD_SET_FOUR = "p lin2 4 4\ne 1 1 1\ne 1 1 2\ne 1 1 3\ne 1 1 4\n"
SINGLE_CLAUSE = "p ecnf 2 1 2\n1 2 0\n"
COMPLETE_R2 = "p ecnf 2 4 2\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_loalb_three_cycle_is_no(tmp_path):
    result = run(["loalb", write(tmp_path, "g.txt", THREE_CYCLE), "--k", "1"])
    assert result.verdict == "NO"
    assert result.exit_code == 0
    assert result.diagnostics["w2_threshold"] == 12


def test_loalb_witness_output(tmp_path):
    result = run(["loalb", write(tmp_path, "g.txt", SINGLE_ARC), "--k", "1"])
    assert result.verdict == "YES_WITNESS"
    assert result.witness == [1, 2]


def test_fas_three_cycle_is_no(tmp_path):
    result = run(["fas", write(tmp_path, "g.txt", THREE_CYCLE), "--k", "1"])
    assert result.verdict == "NO"


def test_linalb_odd_set_bound(tmp_path):
    result = run(
        ["linalb", write(tmp_path, "s.txt", ODD_SET_FOUR), "--k", "1", "--case", "odd-set"]
    )
    assert result.verdict == "YES_BY_BOUND"
    assert result.diagnostics["m_threshold"] == 4


def test_linalb_auto_case(tmp_path):
    result = run(["linalb", write(tmp_path, "s.txt", ODD_SET_FOUR), "--k", "1"])
    assert result.verdict == "YES_BY_BOUND"
    assert result.diagnostics["case"] == "odd-set"


def test_rsat_single_clause(tmp_path):
    result = run(["rsat", write(tmp_path, "f.txt", SINGLE_CLAUSE), "--k-num", "1"])
    assert result.verdict == "YES_WITNESS"
    assert result.witness == [1, 0]


def test_rsat_refusal_exit_code(tmp_path):
    path = write(tmp_path, "f.txt", COMPLETE_R2)
    result = run(["rsat", path, "--k-num", "1"])
    assert result.verdict == "REFUSED"
    assert result.exit_code == 2
    assert "conflict number" in result.error

    diagnostic = run(["rsat", path, "--k-num", "1", "--diagnostic"])
    assert diagnostic.verdict == "NO"
    assert diagnostic.exit_code == 0


def test_missing_file_is_error():
    result = run(["loalb", "/nonexistent/file.txt", "--k", "1"])
    assert result.verdict == "ERROR"
    assert result.exit_code == 2


def test_wrong_format_is_error(tmp_path):
    result = run(["loalb", write(tmp_path, "s.txt", ODD_SET_FOUR), "--k", "1"])
    assert result.verdict == "ERROR"


def test_emit_writes_json(tmp_path):
    out = tmp_path / "result.json"
    run(
        [
            "loalb",
            write(tmp_path, "g.txt", SINGLE_ARC),
            "--k",
            "1",
            "--emit",
            str(out),
        ]
    )
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "YES_WITNESS"
    assert payload["witness"] == [1, 2]


def test_kernel_verdict_via_cap(tmp_path):
    text = "p digraph 9 8\n" + "".join("a %d %d 1\n" % (i, i + 1) for i in range(1, 9))
    result = run(["loalb", write(tmp_path, "g.txt", text), "--k", "1", "--cap", "4"])
    assert result.verdict == "KERNEL"
    assert result.kernel == {"n": 9, "arcs": 8}


def test_moments_command_reports_exact_values(tmp_path):
    result = run(["moments", write(tmp_path, "g.txt", THREE_CYCLE)])
    assert result.verdict == "OK"
    assert result.diagnostics["e2"] == 0.25 or str(result.diagnostics["e2"]) == "1/4"
    assert result.diagnostics["symmetric"] is True
    assert result.diagnostics["second_moment_holds"] is True


def test_moments_command_tail_flag(tmp_path):
    result = run(["moments", write(tmp_path, "s.txt", ODD_SET_FOUR), "--b", "64"])
    assert result.verdict == "OK"
    assert result.diagnostics["tail_holds"] is True


def test_moments_command_estimate(tmp_path):
    result = run(
        ["moments", write(tmp_path, "g.txt", THREE_CYCLE), "--estimate", "200", "--seed", "3"]
    )
    assert result.verdict == "OK"
    assert result.diagnostics["estimate"] is True


def test_moments_skips_claim_for_unrestricted_formula(tmp_path):
    result = run(["moments", write(tmp_path, "f.txt", COMPLETE_R2)])
    assert result.verdict == "OK"
    assert "second_moment_skipped" in result.diagnostics


def test_moments_cap_exceeded_is_error(tmp_path):
    result = run(["moments", write(tmp_path, "g.txt", THREE_CYCLE), "--cap", "2"])
    assert result.verdict == "ERROR"
    assert result.exit_code == 2
    assert "cap" in result.error


def test_moments_cap_zero_is_error(tmp_path):
    unmerged = write(tmp_path, "s.txt", "p lin2 2 2\ne 1 1 1 2\ne 2 0 1 2\n")
    for path in (unmerged, write(tmp_path, "g.txt", THREE_CYCLE)):
        result = run(["moments", path, "--cap", "0"])
        assert result.verdict == "ERROR"
        assert "cap 0" in result.error


def test_moments_enumerates_each_sample_space_once(tmp_path, monkeypatch):
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(moments, "dist_linord")
    counting(maxlin, "x_distribution_counts")
    counting(rsat, "scaled_x_counts")
    cases = {
        "dist_linord": THREE_CYCLE,
        "x_distribution_counts": ODD_SET_FOUR,
        "scaled_x_counts": "p ecnf 4 2 2\n1 2 0\n3 4 0\n",
    }
    for enumerator, text in cases.items():
        calls.update(dict.fromkeys(cases, 0))
        result = run(["moments", write(tmp_path, "i.txt", text), "--b", "64"])
        assert result.verdict == "OK"
        assert result.diagnostics["second_moment_holds"] is True
        assert calls == {name: int(name == enumerator) for name in cases}


def test_gen_round_trips_through_cli(tmp_path):
    out = tmp_path / "inst.txt"
    result = run(["gen", "symmetric-digraph", "--n", "4", "--seed", "5", "--emit", str(out)])
    assert result.verdict == "OK"
    assert out.read_text() == gen_instance("symmetric-digraph", seed=5, n=4).text
    decided = run(["loalb", str(out), "--k", "1"])
    assert decided.verdict == "NO"


def test_gen_to_stdout():
    result = run(["gen", "remark2", "--n", "3"])
    assert result.verdict == "OK"
    assert result.diagnostics["text"].startswith("p lin2 3 7")


def test_workers_flag_does_not_change_results(tmp_path):
    path = write(tmp_path, "s.txt", "p lin2 3 3\ne 1 1 1 2\ne 2 0 2 3\ne 1 1 1 3\n")
    serial = run(["linalb", path, "--k", "1", "--case", "general"])
    threaded = run(["linalb", path, "--k", "1", "--case", "general", "--workers", "4"])
    assert serial.verdict == threaded.verdict
    assert serial.witness == threaded.witness


def test_moments_on_formula_reports_decomposition(tmp_path):
    path = write(tmp_path, "f.txt", "p ecnf 4 2 2\n1 2 0\n3 4 0\n")
    result = run(["moments", path])
    assert result.verdict == "OK"
    assert str(result.diagnostics["pairwise_e2"]) == "3/8"
    assert result.diagnostics["second_moment_holds"] is True


def test_main_prints_lines_and_exit_codes(tmp_path, capsys):
    code = main(["loalb", write(tmp_path, "g.txt", SINGLE_ARC), "--k", "1"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "verdict YES_WITNESS" in captured
    assert "witness 1 2" in captured
    assert any(line.startswith("time_ms") for line in captured.splitlines())

    code = main(["rsat", write(tmp_path, "f.txt", COMPLETE_R2), "--k-num", "1"])
    assert code == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run(["frobnicate", "x"])
