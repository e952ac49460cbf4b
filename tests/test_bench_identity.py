"""`tests/bench_identity.py` compares the CLI bytes of two trees, or of one tree
under two BLAS thread counts, on every benchmark case."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench_identity import largest_change

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tests" / "bench_identity.py"


def _run(*mode: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(TOOL), *mode, "--seeds", "101"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def _summary(proc) -> tuple[int, int, float, int]:
    """(differing, total, largest relative change, with another exit code or structure)."""
    last = proc.stdout.splitlines()[-1]
    pattern = r"(\d+) of (\d+) cases differ \(seeds 101\); largest relative change (\S+), (\d+) with another exit code or structure"
    differ, total, largest, other = re.fullmatch(pattern, last).groups()
    return int(differ), int(total), float(largest), int(other)


def test_tree_is_identical_to_itself():
    proc = _run("--parent", str(ROOT))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    differ, total, largest, other = _summary(proc)
    assert differ == other == largest == 0 and total > 0


@pytest.mark.parametrize("threads", ["1,1", "1,2"])
def test_same_thread_count_is_identical(threads):
    # one and two BLAS threads give the same bytes: no factorization or reduction of the
    # output depends on how BLAS splits its work
    proc = _run("--threads", threads)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    differ, total, largest, other = _summary(proc)
    assert differ == other == largest == 0 and total > 0


def test_changed_output_is_reported(tmp_path):
    # a tree whose envelope names another tool differs on every case
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ingham" / "cli.py"
    cli.write_text(cli.read_text().replace('{"name": "ingham"', '{"name": "other"'))
    proc = _run("--parent", str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ, total, largest, other = _summary(proc)
    assert differ == total == other > 0 and largest == 0
    assert proc.stdout.startswith("DIFFERS 101/")
    assert proc.stdout.splitlines()[0].endswith(": exit 0 -> 0, structure differs")


def test_warning_is_reported(tmp_path):
    # the workers run under -W error::RuntimeWarning: a tree that warns in cli.run differs on every case
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ingham" / "cli.py"
    head = '    """Execute one command, write the report, return the exit code."""\n'
    text = cli.read_text()
    assert head in text
    cli.write_text(text.replace(head, head + '    __import__("warnings").warn("patched", RuntimeWarning)\n'))
    proc = _run("--parent", str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ, total, _, other = _summary(proc)
    assert differ == total == other > 0


@pytest.mark.parametrize("before, after, moved", [
    ('{"c": [4.0, 1.5], "s": "ok", "n": 3}', '{"c": [4.0, 1.5], "s": "ok", "n": 3}', 0.0),
    ('{"c": [4.0, 1.5], "s": "ok"}', '{"c": [4.0, 1.5000000000000004], "s": "ok"}', 4.440892098500626e-16 / 1.5),
    ('{"c": [4.0, -2.0]}', '{"c": [4.0000001, -2.1]}', 0.1 / 2.1),
    ('{"c": 0}', '{"c": 0.0}', 0.0),
    ('{"c": 0.0}', '{"c": 1e-300}', 1.0),
    ('{"c": [4.0, 1.5]}', '{"c": [4.0]}', None),
    ('{"c": 1.0}', '{"d": 1.0}', None),
    ('{"c": "inf"}', '{"c": 1.0}', None),
    ('{"s": "ok"}', '{"s": "no"}', None),
    ('{"b": true}', '{"b": 1}', None),
    ('{"b": true}', '{"b": false}', None),
    ('{"c": null}', '{"c": 1.0}', None),
    ("ValueError: x", '{"c": 1.0}', None),
], ids=["same", "last-bit", "relative", "int-float", "from-zero", "length", "key", "string-number",
        "string", "bool-int", "bool", "null", "not-json"])
def test_largest_change(before, after, moved):
    # the relative change of paired numbers, and None where anything else differs
    for got in (largest_change(before, after), largest_change(after, before)):
        assert got == (None if moved is None else pytest.approx(moved, rel=1e-12, abs=0.0))
