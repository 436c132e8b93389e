"""Golden JSON: each command's ``--json -`` output, byte for byte.

The files under ``tests/golden/`` pin verdicts, labels, candidate counts,
assumptions and the serialisation itself; a refactor must keep them
byte-identical.  Every case whose base field has composite degree holds
subfield zeros inside its box.  ``L2_field.json`` is the ``poly`` and
``basis`` that ``field-info --a 2`` prints, so the ``--field`` route solves
the same field as ``--a 2``.  The ``field_info`` cases cover a basis
denominator of 4 (``a = 8``), an odd ``a`` and the octic example's base field
x^4 - 4x^2 - x + 1 (``octic_field.json``); their ``real_roots`` and ``basis``
strings pin root isolation and the basis.  ``field_info_quintic`` reads the
quintic x^5 - 5x^3 + 4x - 1 with the identity basis (``quintic_field.json``):
degree-5 root strings, and irreducibility shown mod p rather than by the
quartic factor search.  ``solve_octic_field_d3_box4`` is the case at d = 3
that still tests candidates after the F bounds.
"""

import os

import pytest

from compib.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = [
    ("field_info_a2", ["field-info", "--a", "2"]),
    ("field_info_a8", ["field-info", "--a", "8"]),
    ("field_info_a1", ["field-info", "--a", "1"]),
    ("field_info_octic",
     ["field-info", "--field", os.path.join(GOLDEN, "octic_field.json")]),
    ("field_info_quintic",
     ["field-info", "--field", os.path.join(GOLDEN, "quintic_field.json")]),
    ("composite_index_a2_d7",
     ["composite-index", "--a", "2", "--d", "7", "--x", "0,1,0", "--y", "1,0,0,0"]),
    ("solve_a2_d7_box8", ["solve", "--a", "2", "--d", "7", "--box", "8"]),
    ("solve_field_L2_d7_box4",
     ["solve", "--field", os.path.join(GOLDEN, "L2_field.json"), "--d", "7", "--box", "4"]),
    ("solve_octic_field_d3_box4",
     ["solve", "--field", os.path.join(GOLDEN, "octic_field.json"), "--d", "3", "--box", "4"]),
    ("d3_search_a2_box4", ["d3-search", "--a", "2", "--box", "4"]),
    ("verify_cq_a2_d10_box5", ["verify-cq", "--a-max", "2", "--d-max", "10", "--box", "5"]),
    ("check_example5", ["check-example5"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_json(capsys, name, argv):
    assert main(argv + ["--json", "-"]) == 0
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert out == fh.read()
