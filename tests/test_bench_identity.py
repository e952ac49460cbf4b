"""`tests/bench_identity.py` compares the CLI bytes of two trees, or of one tree
under two BLAS thread counts, on every benchmark case."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tests" / "bench_identity.py"


def _run(*mode: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(TOOL), *mode, "--seeds", "101"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def _summary(proc) -> tuple[int, int]:
    last = proc.stdout.splitlines()[-1]
    differ, total = re.fullmatch(r"(\d+) of (\d+) cases differ \(seeds 101\)", last).groups()
    return int(differ), int(total)


def test_tree_is_identical_to_itself():
    proc = _run("--parent", str(ROOT))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    differ, total = _summary(proc)
    assert differ == 0 and total > 0


@pytest.mark.parametrize("threads", ["1,1", "1,2"])
def test_same_thread_count_is_identical(threads):
    # one and two BLAS threads give the same bytes: no factorization or reduction of the
    # output depends on how BLAS splits its work
    proc = _run("--threads", threads)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    differ, total = _summary(proc)
    assert differ == 0 and total > 0


def test_changed_output_is_reported(tmp_path):
    # a tree whose envelope names another tool differs on every case
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ingham" / "cli.py"
    cli.write_text(cli.read_text().replace('{"name": "ingham"', '{"name": "other"'))
    proc = _run("--parent", str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ, total = _summary(proc)
    assert differ == total > 0
    assert proc.stdout.startswith("DIFFERS 101/")


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
    differ, total = _summary(proc)
    assert differ == total > 0
