import json
import os
import subprocess
import sys
import time

import pytest

import compib
from compib.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_stays_light():
    # neither the pool machinery nor the test oracle loads with the package
    src = os.path.dirname(os.path.dirname(compib.__file__))
    code = ("import sys, compib, compib.cli; "
            "print(sorted(m for m in ('multiprocessing', 'sympy') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--a", "2")
    assert code == 0
    assert "2000" in out


def test_field_info_json(capsys, tmp_path):
    p = tmp_path / "fi.json"
    code, out, _ = run(capsys, "field-info", "--a", "2", "--json", str(p))
    assert code == 0
    data = json.loads(p.read_text())
    assert data["disc"] == 2000
    assert data["poly"] == [1, 2, -6, -2, 1]


def test_index_command(capsys):
    code, out, _ = run(capsys, "index", "--a", "2", "--coords", "0,1,0")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("1")


def test_index_json_stdout_suppresses_text(capsys):
    code, out, _ = run(capsys, "index", "--a", "2", "--coords", "4,2,-1",
                       "--json", "-")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 1
    assert data["coords"] == [4, 2, -1]


def test_composite_index(capsys):
    code, out, _ = run(capsys, "composite-index", "--a", "2", "--d", "7",
                       "--x", "0,1,0", "--y", "1,0,0,0", "--json", "-")
    assert code == 0
    data = json.loads(out)
    assert data["eq1"] == 1 and data["eq2"] == 1
    assert data["index"] == abs(data["F"]) == 33086464


def _octic_coords(scale):
    x = f"{scale + 11},{-7 * scale // 3},{5 * scale // 2}"
    y = f"{3 * scale // 2},{-scale - 13},{2 * scale + 1},{-9 * scale // 4}"
    return ["composite-index", "--field", "tests/golden/octic_field.json", "--d", "2",
            f"--x={x}", f"--y={y}"]


def test_composite_index_precision_cap_exit_4(capsys):
    # coordinates near 10^250 need more than the fixed 8192-bit cap to
    # certify eq1 and F, so the command stops with exit code 4; near 10^150
    # the cap suffices and the factors reproduce the exact index
    code, _, err = run(capsys, *_octic_coords(10**250))
    assert code == 4
    assert "precision cap exceeded" in err
    code, out, _ = run(capsys, *_octic_coords(10**150), "--json", "-")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == data["eq1"] * abs(data["eq2"]) * abs(data["F"]) > 0


def test_composite_index_prints_values_past_the_digit_limit(capsys):
    # near 10^200 the certified values have more than Python's default 4300
    # digits; they print in full, as text and as JSON, with exit code 0
    argv = _octic_coords(10**200)
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json", "-")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        data = json.loads(out)
        lines = dict(line.split(" = ") for line in text.splitlines())
        values = {k: int(v.split()[0]) for k, v in lines.items()}
    finally:
        sys.set_int_max_str_digits(limit)
    assert data["index"] >= 10**limit
    assert data["index"] == data["eq1"] * abs(data["eq2"]) * abs(data["F"])
    assert values == {k: data[k] for k in ("index", "eq1", "eq2", "F")}


def test_input_keeps_the_digit_limit(capsys, tmp_path):
    # reading coordinates and field files keeps Python's guard on int(str)
    limit = sys.get_int_max_str_digits()
    huge = "1" * (limit + 1)
    with pytest.raises(SystemExit) as exc:
        main(["index", "--a", "2", "--coords", f"{huge},0,1"])
    assert exc.value.code == 2
    path = tmp_path / "field.json"
    path.write_text(f'{{"poly": [{huge}, 0, 1], "basis": [["1", "0"], ["0", "1"]]}}')
    code, _, err = run(capsys, "field-info", "--field", str(path))
    assert code == 3 and "digits" in err
    assert sys.get_int_max_str_digits() == limit


def test_precision_cap_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["--precision-cap", "8192", "check-example5"])
    assert exc.value.code == 2


def test_solve_json_deterministic(capsys):
    code, first, _ = run(capsys, "solve", "--a", "2", "--d", "7",
                         "--box", "8", "--json", "-")
    assert code == 0
    code, second, _ = run(capsys, "solve", "--a", "2", "--d", "7",
                          "--box", "8", "--json", "-")
    assert code == 0
    assert first == second
    data = json.loads(first)
    assert data["verdict"] == "NOT_MONOGENIC"
    # canonical serialization: reloading and re-dumping is byte identical
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == first


def test_solve_field_file(capsys, tmp_path):
    p = tmp_path / "octic.json"
    p.write_text(json.dumps({
        "poly": [1, -1, -4, 0, 1],
        "basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "expected_disc": 1957,
    }))
    code, out, _ = run(capsys, "solve", "--field", str(p), "--d", "1",
                       "--box", "6", "--json", "-")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "MONOGENIC"
    assert ((0, 0, 0), (0, 1, 0, 0)) in {
        (tuple(g["x"]), tuple(g["y"])) for g in data["generators"]}


def test_verify_cq_small(capsys):
    code, out, _ = run(capsys, "verify-cq", "--a-max", "2", "--d-max", "6",
                       "--box", "6")
    assert code == 0
    assert "counterexamples: none" in out
    assert out.count("NOT_MONOGENIC") >= 4


def test_d3_search(capsys):
    code, out, _ = run(capsys, "d3-search", "--a", "1", "--box", "4",
                       "--json", "-")
    assert code == 0
    assert json.loads(out)["verdict"] == "INCONCLUSIVE"


def test_check_example5(capsys):
    code, out, _ = run(capsys, "check-example5")
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out
    assert "980441344" in out


def test_exit_code_validation():
    assert main(["field-info", "--a", "3"]) == 3
    assert main(["solve", "--a", "2", "--d", "4", "--box", "5"]) == 3
    assert main(["solve", "--a", "2", "--d", "1", "--box", "5"]) == 3
    assert main(["index", "--a", "2", "--coords", "1,2"]) == 3


def test_undecided_squarefree_d_exits_3(capsys):
    # a 31-digit prime d: trial division stops at 10^6 and refuses
    t0 = time.perf_counter()
    code, out, err = run(capsys, "solve", "--a", "1", "--d", str(10**30 + 57))
    assert code == 3 and out == "" and "squarefree" in err
    assert time.perf_counter() - t0 < 5.0


def test_box_over_the_sweep_limit_exits_3(capsys):
    # (401^3 - 1)/2 vectors: refused before any sweep starts
    code, out, err = run(capsys, "solve", "--a", "1", "--d", "1", "--box", "200")
    assert code == 3 and out == ""
    assert err.startswith("error: box radius 200 in degree 4 spans 32240600 vectors")


def test_exit_code_parse():
    with pytest.raises(SystemExit) as exc:
        main(["index", "--a", "2", "--coords", "1,x,3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_field_file_errors(tmp_path):
    assert main(["field-info", "--field", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["field-info", "--field", str(bad)]) == 3
    bad.write_text('"poly basis"')     # valid JSON, but not an object
    assert main(["field-info", "--field", str(bad)]) == 3


def _identity_basis(entry="1"):
    # the degree-4 identity basis as strings, with entry at row 1, column 1
    rows = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    rows[1][1] = entry
    return rows


@pytest.mark.parametrize("poly,basis", [
    ([1.9, -1, -4, 0, 1], _identity_basis()),          # int() would read 1
    ([True, -1, -4, "0", 1], _identity_basis()),       # bool and str coefficients
    ([1, -1, -4, 0, 1], _identity_basis("x")),
    ([1, -1, -4, 0, 1], _identity_basis("1/0")),
], ids=["float_coefficient", "bool_and_str_coefficients", "basis_x", "basis_1_over_0"])
def test_field_file_bad_entries_exit_3(capsys, tmp_path, poly, basis):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"poly": poly, "basis": basis}))
    code, _, err = run(capsys, "field-info", "--field", str(path))
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("disc", ["1957", 1957.0, True], ids=["string", "float", "bool"])
def test_field_file_expected_disc_must_be_int(capsys, tmp_path, disc):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"poly": [1, -1, -4, 0, 1], "basis": _identity_basis(),
                                "expected_disc": disc}))
    code, _, err = run(capsys, "field-info", "--field", str(path))
    assert code == 3
    assert err.startswith("error: expected_disc must be an integer")


def test_timings_go_to_stderr(capsys, tmp_path):
    p = tmp_path / "cq.json"
    code, out, err = run(capsys, "verify-cq", "--a-max", "1", "--d-max", "2",
                         "--box", "5", "--timings", "--json", str(p))
    assert code == 0
    assert "cells in" in err
    # the JSON report itself carries no wall-clock data
    assert "cells in" not in p.read_text()
    rep = json.loads(p.read_text())
    assert all("ms" not in r for r in rep["rows"] if r["status"] == "OK")


def test_timings_one_line_per_group_with_jobs(capsys):
    # one a-group runs serially even with --jobs 2, and reports its time once
    code, _, err = run(capsys, "verify-cq", "--a-max", "1", "--d-max", "2", "--box", "2",
                       "--jobs", "2", "--timings")
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("a = 1: ")
