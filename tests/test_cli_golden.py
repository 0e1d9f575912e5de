"""Every CLI command on every bundled manifest, in JSON and ``--table`` form,
exits with the code and prints the bytes recorded in ``cli_golden.json``.

The CLI runs in-process through ``cli.main``.  Each record is the exit code
and the sha256 of stdout, so any change to a printed form shows here.  To
re-record after a deliberate output change, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import pytest

from maninmaps import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
MANIFESTS = sorted(p.name for p in (ROOT / "manifests").glob("*.cfg"))
FORMATS = {"json": [], "table": ["--table"]}
CASES = ["%s %s %s" % (c, m, f) for c in cli.COMMANDS for m in MANIFESTS for f in FORMATS]


def run_case(case):
    """[exit code, sha256 of stdout] of one case, run from the repository root."""
    command, manifest, fmt = case.split()
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "manifests/" + manifest, *FORMATS[fmt]])
    finally:
        os.chdir(cwd)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(golden, case):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    GOLDEN.write_text(json.dumps({c: run_case(c) for c in CASES}, indent=1, sort_keys=True) + "\n")
