"""Same answers: replay the CLI reference runs in ``golden/cli_outputs.json``.

The references hold the exit code and the stdout and stderr lines of 42
commands on ``ba_graph(n, 2, seed)`` for n in {12, 40, 2000} and seed in
{0, 1}; ``golden/make_golden.py`` regenerates them. Each line is split into
numbers and the text between them. The text and every integer must match
exactly, so a changed node id, phase, header or message fails. A float may
move by at most ``FLOAT_TOL * (1 + |reference|)``. The CLI prints floats with
``%.12g``, so a change in the last printed digits passes, and a larger move
fails.
"""

import importlib.util
import json
import os
import re

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "cli_outputs.json")

# the generator's own graph writer and runner replay the references
_spec = importlib.util.spec_from_file_location(
    "make_golden", os.path.join(GOLDEN_DIR, "make_golden.py"))
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

FLOAT_TOL = 1e-9

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_INTEGER = re.compile(r"[-+]?\d+")

with open(GOLDEN, encoding="utf-8") as _fh:
    RECORDS = json.load(_fh)


def line_mismatch(want: str, got: str):
    """Why ``got`` differs from the reference line ``want``, or None."""
    want_parts, got_parts = _NUMBER.split(want), _NUMBER.split(got)
    if len(want_parts) != len(got_parts):
        return "different number of fields"
    for k, (a, b) in enumerate(zip(want_parts, got_parts)):
        if k % 2 == 0:  # text between numbers
            if a != b:
                return f"text {b!r} != {a!r}"
        elif _INTEGER.fullmatch(a) and _INTEGER.fullmatch(b):
            if int(a) != int(b):
                return f"integer {b} != {a}"
        elif not abs(float(b) - float(a)) <= FLOAT_TOL * (1.0 + abs(float(a))):
            return f"float {b} != {a}"
    return None


def assert_lines_match(want: list, got: list, what: str) -> None:
    assert len(got) == len(want), f"{what}: {len(got)} lines, reference {len(want)}"
    for number, (a, b) in enumerate(zip(want, got), 1):
        problem = line_mismatch(a, b)
        assert problem is None, f"{what} line {number}: {problem}\n  got  {b}\n  want {a}"


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("golden"))
    return {name: make_golden.write_graph(directory, name)
            for name in {record["graph"] for record in RECORDS}}


def test_reference_covers_the_fast_commands():
    assert len(RECORDS) == 42
    assert [(r["graph"], r["argv"]) for r in RECORDS] == list(make_golden.commands())
    assert all(record["code"] == 0 for record in RECORDS)


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{r['graph']}:{' '.join(r['argv'])}" for r in RECORDS]
)
def test_cli_gives_the_reference_answers(record, graphs):
    code, out, err = make_golden.run(record["argv"] + ["--graph", graphs[record["graph"]]])
    assert code == record["code"]
    assert_lines_match(record["stdout"], out, "stdout")
    assert_lines_match(record["stderr"], err, "stderr")


class TestLineComparison:
    def test_float_moves_within_the_tolerance_pass(self):
        assert line_mismatch("1,2.5,x", "1,2.500000001,x") is None
        assert line_mismatch("100", "99.9999999999") is None
        assert line_mismatch("-0", "0") is None

    def test_float_moves_beyond_the_tolerance_fail(self):
        assert line_mismatch("1,2.5,x", "1,2.50000001,x") is not None
        assert line_mismatch("0.3", "0.3000000014") is not None

    def test_integers_and_text_must_match_exactly(self):
        assert line_mismatch("good,3,1,0.5", "good,4,1,0.5") is not None
        assert line_mismatch("good,3,1,0.5", "bad,3,1,0.5") is not None
        assert line_mismatch("good,,1", "good,3,1") is not None
        assert line_mismatch("kb=50", "kb=50.5") is not None
