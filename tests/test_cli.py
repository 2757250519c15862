"""Command-line contract: exit codes, formats, determinism."""

import json

import pytest

from qident.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "qgauss" in out and "ft3" in out and "cpte5" in out


def test_verify_equal_exit0(capsys):
    code, out, _ = run(capsys, "verify", "--id", "qgauss", "--order", "30",
                       "--seed", "7", "--samples", "1")
    assert code == 0
    assert "EQUAL" in out


def test_suite_error_report_exit1(capsys, wrong_floor_catalog):
    # a record whose summand declares a wrong floor: the suite reports it
    # as an error, runs the next record and exits non-zero
    code, out, _ = run(capsys, "suite", "--order", "20", "--samples", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("ERROR    wrong-floor")
    assert "(BoundViolation: term 1 has valuation 0" in lines[0]
    # a parameter-free record: no padding after its last column
    assert lines[1] == "EQUAL    ft3                exact"
    assert lines[-1] == "-- 1/2 equal"


def test_suite_undeclared_floor_exit1(capsys, no_floor_catalog):
    # a factor declared without a floor: an error report, not a skip
    # with a numeric fallback, and the suite exits non-zero
    code, out, _ = run(capsys, "suite", "--order", "20", "--samples", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("ERROR    no-floor           exact")
    assert "(UndeclaredFloor: opaque factor without a valuation floor)" \
        in lines[0]
    assert lines[1].startswith("EQUAL    ft3")
    assert lines[-1] == "-- 1/2 equal"


def test_suite_undeclared_bound_exit1(capsys, no_bound_catalog):
    # a factor declared without a bound: the numeric draw that the exact
    # skip falls back to is an error report, and the suite exits non-zero
    code, out, _ = run(capsys, "suite", "--order", "20", "--samples", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("ERROR    no-bound           numeric")
    assert "(UndeclaredBound: opaque factor without a magnitude bound; " \
        "exact skipped (ValuationStall" in lines[0]
    assert lines[1].startswith("EQUAL    ft3")
    assert lines[-1] == "-- 1/2 equal"
    code, out, _ = run(capsys, "suite", "--strategy", "numeric", "--order",
                       "20", "--samples", "1")
    assert code == 1
    assert out.splitlines()[0].startswith("ERROR    no-bound           numeric")


def test_an_error_of_no_listed_class_exits1(capsys, bridge_catalog):
    # verify and suite take one path: an error report, no fallback, exit 1
    for argv in (["verify", "--id", "bridge"], ["suite", "--filter", "b*"]):
        code, out, _ = run(capsys, *argv, "--order", "20", "--samples", "1")
        assert code == 1
        assert out.splitlines() == [
            "ERROR    bridge             exact    (BridgeConstraintError: a "
            "build that fails its bridge condition)", "-- 0/1 equal"]


def test_verify_unknown_id_exit2(capsys):
    code, _, err = run(capsys, "verify", "--id", "nope")
    assert code == 2
    assert "unknown identity" in err


def test_usage_error_exit2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["suite", "--order", "0"]) == 2


def test_pte_check_failure_exit1(capsys):
    code, out, _ = run(capsys, "pte-check", "--a", "1,5,6", "--b", "2,3,7",
                       "--k", "3")
    assert code == 1
    assert "e=3" in out and "342" in out and "378" in out


def test_pte_check_pass_exit0(capsys):
    code, out, _ = run(capsys, "pte-check", "--a", "1/2,5,6", "--b",
                       "5,6,1/2", "--k", "4")
    assert code == 0


def test_pte_family(capsys):
    code, out, _ = run(capsys, "pte-family", "--family", "6", "--m", "1",
                       "--n", "2")
    assert code == 0
    assert "power sums equal through e = 5: True" in out
    code, out, _ = run(capsys, "pte-family", "--family", "12", "--m", "2",
                       "--K", "3")
    assert code == 0
    assert "e = 11: True" in out


def test_suite_json_determinism(capsys, tmp_path):
    argv = ["suite", "--filter", "r2*", "--order", "24", "--seed", "3",
            "--samples", "2", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timing")
    d2.pop("timing")
    assert json.dumps(d1) == json.dumps(d2)


def test_suite_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "suite", "--filter", "gg1a", "--order", "20",
                       "--format", "json", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["reports"][0]["id"] == "gg1a"
    assert doc["reports"][0]["status"] == "equal"


def test_suite_mismatch_exit1(capsys, monkeypatch):
    # force a defect through the catalog to check the exit-code contract
    import qident.registry as reg
    from qident.registry import with_injected_fault
    idx = next(i for i, r in enumerate(reg.RECORDS) if r.id == "gg1a")
    original = reg.RECORDS[idx]
    reg.RECORDS[idx] = with_injected_fault(original, 5)
    try:
        code, out, _ = run(capsys, "suite", "--filter", "gg1a", "--order",
                           "20")
    finally:
        reg.RECORDS[idx] = original
    assert code == 1
    assert "MISMATCH" in out and "q^5" in out

@pytest.mark.parametrize("argv", [
    ["verify", "--id", "qgauss", "--order", "0"],
    ["verify", "--id", "qgauss", "--order", "-3"],
    ["verify", "--id", "qgauss", "--samples", "0"],
    ["suite", "--filter", "qgauss", "--samples", "0"],
    ["suite", "--filter", "qgauss", "--order", "0"],
])
def test_counts_below_one_exit2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "must be >= 1" in err
    assert "EQUAL" not in out


def test_suite_empty_filter_exit2(capsys):
    code, out, err = run(capsys, "suite", "--filter", "zzz*")
    assert code == 2
    assert "no identity matches 'zzz*'" in err
    assert "equal" not in out


@pytest.mark.parametrize("argv,message", [
    (["pte-check", "--a", "1,2", "--b", "3,4", "--k", "0"],
     "--k: must be >= 1"),
    (["pte-family", "--family", "6", "--m", "0"], "--m: must be nonzero"),
    (["pte-family", "--family", "6", "--n", "0"], "--n: must be nonzero"),
    (["pte-family", "--family", "12", "--m", "0"], "--m: must be nonzero"),
    (["pte-family", "--family", "6", "--m", "1/0"], "--m: bad rational"),
    (["pte-family", "--family", "6", "--K", "3"],
     "--K: not used by --family 6"),
    (["pte-family", "--family", "12", "--n", "5"],
     "--n: not used by --family 12"),
])
def test_pte_degenerate_arguments_exit2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert "equal" not in out



@pytest.mark.parametrize("argv,code,line", [
    (["pte-check", "--a", "-1,2", "--b", "0,1", "--k", "1"], 0,
     "equal power sums for e = 1..1"),
    (["pte-check", "--a", "-1,2", "--b", "-.5,1.5", "--k", "2"], 1,
     "failure at e=2: 5 != 5/2"),
    (["pte-check", "--a", "1,-2", "--b", "-1/2,-1/2", "--k", "1"], 0,
     "equal power sums for e = 1..1"),
    (["pte-family", "--family", "6", "--m", "2", "--n", "-1/2"], 0,
     "B = -75/4, -43/4, -53/4, 13/2, -3/2, 1"),
    (["pte-family", "--family", "12", "--m", "-1/3", "--K", "-2"], 0,
     "power sums equal through e = 11: True"),
])
def test_negative_rationals_after_a_space(capsys, argv, code, line):
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert line in out.splitlines()
