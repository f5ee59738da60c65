"""``tests/closed_form_hashes.py compare``, on canned outputs: no solve runs."""

from pathlib import Path

from tests import closed_form_hashes
from tests.closed_form_hashes import compare_outputs

PARENT = """\
rates           1854944 7b8f62fb
perturb_msg        148 16de45f4
solves2d 6efc5498
wrote 2 snapshot(s) to /tmp/a/parent/solve
solve 6c7a68ce
slope = 0.991948  r^2 = 0.999986  floor = 5.29e-06  consistent = True
c02 ['0x1.6d344c24c38b0p-6'] 0x1.fbe0a0cead110p-1 0x1.633c005e00000p-18
"""


def test_equal_outputs_are_the_same_key_by_key():
    # the CLI's own lines, such as the path it wrote to, are no record
    ours = PARENT.replace("/tmp/a/parent/", "/tmp/b/ours/")
    lines, moved = compare_outputs(ours, PARENT)
    assert lines == ["rates same", "perturb_msg same", "solves2d same", "solve same", "c02 same"]
    assert not moved


def test_a_changed_count_hash_or_value_moves_its_key():
    for old, new, key in (("1854944", "1854945", "rates"), ("16de45f4", "16de45f5", "perturb_msg"),
                          ("0x1.fbe0a0cead110p-1", "0x1.fbe0a0cead111p-1", "c02")):
        lines, moved = compare_outputs(PARENT.replace(old, new), PARENT)
        assert moved and [line for line in lines if line.endswith("moved")] == [f"{key} moved"]


def test_a_key_one_side_lacks_moves():
    ours = PARENT.replace("solves2d 6efc5498\n", "") + "checks 099af428\n"
    lines, moved = compare_outputs(ours, PARENT)
    assert moved
    assert lines == ["rates same", "perturb_msg same", "solves2d moved", "solve same",
                     "c02 same", "checks moved"]


def test_compare_exits_1_when_a_key_moved(monkeypatch, capsys):
    parent = Path("/nonexistent/parent")
    for ours, code in ((PARENT, 0), (PARENT.replace("6c7a68ce", "00000000"), 1)):
        monkeypatch.setattr(closed_form_hashes, "hashes_of",
                            lambda checkout, out: PARENT if checkout == parent else ours)
        assert closed_form_hashes.main(["compare", str(parent)]) == code
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 5 and ("solve moved" in printed) == bool(code)
