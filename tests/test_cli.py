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
    ["suite", "--filter", "qgauss", "--workers", "0"],
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
