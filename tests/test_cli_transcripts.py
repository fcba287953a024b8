"""Golden transcripts of the CLI: exit code, stdout, stderr and the sha256
of every file each command writes, for every subcommand in text and JSON
form on small inputs.  The commands run in order in one scratch directory
(relative paths keep the output free of machine paths), so later commands
read what earlier ones wrote.

``PYTHONPATH=src python tests/test_cli_transcripts.py`` appends the records
of commands the goldens lack.  It refuses, writing nothing, when an existing
record would change or lose its command: every changed byte is a change in
behaviour.  To re-record a command, delete its record by hand first.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from blockdesigns.cli import main

GOLDEN = Path(__file__).with_name("cli_transcripts.json")

# Outputs longer than this are kept as a digest, not verbatim.
MAX_VERBATIM = 2000

# Inputs the generators cannot emit, written before the first command.
FILES = {
    # 4 points, k = 2: a 1-design whose pairs are not balanced.
    "unbalanced.design": "design v=4 k=2 b=2\n0 1\n2 3\n",
    # Two one-factors of K_8: a resolvable master that is only a 1-design.
    "k8_two_classes.res": (
        "design v=8 k=2 b=8\n"
        "class 0\n0 1\n2 3\n4 5\n6 7\n"
        "class 1\n0 2\n1 3\n4 6\n5 7\n"
    ),
    # The Fano plane 2-(7,3,1): 2-balanced, not 3-balanced, k' = 3.
    "fano.design": (
        "design v=7 k=3 b=7\n"
        "0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"
    ),
    # A repeated block on points 0 and 1; points 2 and 3 lie in no block.
    "repeated.design": "design v=4 k=2 b=2\n0 1\n0 1\n",
    "bad.design": "not a design\n",
    "bad.json": '{"v": 4, "k": 2}\n',
    # Two blocks that share point 0: no parallel class exists.
    "nores.design": "design v=4 k=2 b=2\n0 1\n0 2\n",
    # Two complementary halves of 65536 points.
    "halves.design": "design v=65536 k=32768 b=2\n" + "".join(
        " ".join(map(str, range(lo, lo + 32768))) + "\n" for lo in (0, 32768)
    ),
}

COMMANDS = [
    # gen
    ["gen", "trivial", "4", "2"],
    ["gen", "trivial", "4", "2", "--json"],
    ["gen", "trivial", "4", "2", "--out", "t42.design"],
    ["gen", "trivial", "6", "3", "--out", "t63.design"],
    ["gen", "trivial", "6", "3", "--out", "t63.json", "--json"],
    ["gen", "trivial", "8", "2", "--out", "t82.design"],
    ["gen", "affine", "2", "3"],
    ["gen", "affine", "2", "3", "--json"],
    ["gen", "affine", "2", "3", "--out", "ag23.res"],
    ["gen", "affine", "2", "8", "--out", "ag28.res"],
    ["gen", "affine", "3", "2", "--out", "ag32.res"],
    ["gen", "affine", "3", "2", "--out", "ag32.json", "--json"],
    ["gen", "one-factorization", "6"],
    ["gen", "sub-one-factorization", "2"],
    ["gen", "sub-one-factorization", "2", "--json"],
    ["gen", "sub-one-factorization", "2", "--out", "k8.res"],
    ["gen", "catalog", "3-(24,12,15)", "--out", "c24.res"],
    ["gen", "catalog", "3-(24,12,15)", "--base"],
    ["gen", "catalog", "3-(24,12,15)", "--base", "--json"],
    ["gen", "catalog", "3-(24,12,15)", "--base", "--out", "c24base.design"],
    ["gen", "catalog", "bogus"],
    # verify
    ["verify", "t63.design", "--t", "2", "--t", "3"],
    ["verify", "t63.design", "--t", "2", "--t", "3", "--json"],
    ["verify", "t63.design", "--t", "3", "--expect-lambda", "1",
     "--expect-simple", "--expect-params", "6,20,10,3"],
    ["verify", "t63.design", "--t", "3", "--expect-lambda", "2", "--json"],
    ["verify", "t63.json", "--t", "2"],
    ["verify", "c24.res", "--t", "2"],
    ["verify", "c24.res", "--t", "2", "--json"],
    ["verify", "k8_two_classes.res", "--t", "2", "--expect-params", "8,8,2,2"],
    ["verify", "ag28.res", "--expect-params", "x"],
    ["verify", "bad.design"],
    ["verify", "bad.json"],
    ["verify", "missing.design"],
    # resolve
    ["resolve", "t42.design", "--limit", "5", "--out", "k4.res"],
    ["resolve", "t42.design", "--limit", "5", "--json"],
    ["resolve", "ag23.res", "--limit", "2"],
    ["resolve", "ag32.res", "--limit", "2", "--json"],
    ["resolve", "t82.design", "--limit", "10000", "--budget", "10"],
    ["resolve", "t82.design", "--limit", "10000", "--budget", "10", "--json"],
    ["resolve", "unbalanced.design", "--limit", "3"],
    # prp
    ["prp", "ag23.res"],
    ["prp", "ag23.res", "--json"],
    ["prp", "k8.res"],
    ["prp", "k8.res", "--alpha", "2", "--json"],
    ["prp", "k8.res", "--alpha", "3"],
    ["prp", "ag28.res", "--alpha", "4"],
    ["prp", "k8.res", "--budget", "5"],
    ["prp", "k8.res", "--budget", "5", "--json"],
    ["prp", "c24.res", "--alpha", "2", "--budget", "200"],
    ["prp", "t63.design"],
    ["prp", "ag23.res", "--alpha", "3"],
    # develop
    ["develop", "c24base.design", "--out", "dev.res"],
    ["develop", "c24base.design", "--out", "dev.json", "--json"],
    ["develop", "c24base.design"],
    ["develop", "c24base.design", "--json"],
    ["develop", "t42.design", "--no-infinity"],
    # construct
    ["construct", "c24.res", "t42.design", "--out", "built.design",
     "--provenance", "prov.json", "--check-three"],
    ["construct", "c24.res", "t42.design", "--out", "built.json",
     "--check-three", "--json"],
    ["construct", "c24.res", "t42.design", "--resolution", "c24.res",
     "--out", "built2.design"],
    ["construct", "ag28.res", "ag32.res", "--out", "ag_built.design"],
    ["construct", "ag28.res", "ag32.res", "--out", "ag_built.json", "--json"],
    ["construct", "t82.design", "t42.design", "--auto-resolve",
     "--out", "k8_built.design"],
    ["construct", "t82.design", "t42.design", "--auto-resolve",
     "--out", "k8_built.json", "--json"],
    ["construct", "t82.design", "t42.design", "--out", "x.design"],
    ["construct", "c24.res", "t63.design", "--out", "x.design"],
    ["construct", "c24.res", "unbalanced.design", "--out", "unbal.design"],
    ["construct", "c24.res", "unbalanced.design", "--out", "unbal.json",
     "--json"],
    ["construct", "k8_two_classes.res", "t42.design", "--out", "t1.design"],
    ["construct", "k8_two_classes.res", "t42.design", "--out", "t1.json",
     "--json"],
    ["construct", "c24.res", "t42.design", "--resolution", "k8.res",
     "--out", "x.design"],
    # profile
    ["profile", "built.design"],
    ["profile", "built.design", "--json"],
    ["profile", "built.design", "--expect",
     "69,0,46,0,506,2208,3864,2208,506,0,46,0,0"],
    ["profile", "built.design", "--expect", "1,2,3", "--json"],
    ["profile", "built.design", "--expect", "x"],
    # reproduce
    ["reproduce", "3-(24,12,15)"],
    ["reproduce", "3-(24,12,15)", "--json"],
    ["reproduce", "nope"],
    ["reproduce"],
    # construct with an indexing design that is 2- but not 3-balanced
    ["gen", "affine", "2", "7", "--out", "ag27.res"],
    ["construct", "ag27.res", "fano.design", "--out", "fano_built.design"],
    ["construct", "ag27.res", "fano.design", "--out", "fano_built.json",
     "--json"],
    ["verify", "fano_built.design", "--t", "2", "--t", "3"],
    # paths of the report builders that the records above leave out
    ["verify", "repeated.design", "--t", "2", "--expect-simple"],
    ["verify", "repeated.design", "--t", "2", "--expect-simple", "--json"],
    ["verify", "t63.design", "--t", "2", "--t", "2"],
    ["verify", "t63.design", "--t", "2", "--t", "2", "--json"],
    ["profile", "built.design", "--expect", "1,2,3"],
    ["prp", "k8.res", "--budget", "20"],
    ["prp", "k8.res", "--budget", "20", "--json"],
    # error exits of verify and construct
    ["verify", "t63.design", "--t", "2", "--t", "3", "--expect-lambda", "1"],
    ["verify", "t63.design", "--expect-params", "1,2,3"],
    ["construct", "nores.design", "t42.design", "--auto-resolve",
     "--out", "x.design"],
    ["construct", "t82.design", "t42.design", "--auto-resolve", "--budget", "1",
     "--out", "x.design"],
    # generators refuse designs above the size limits before building them
    ["gen", "one-factorization", "20000"],
    ["gen", "affine", "4", "64"],
    # search arguments: a budget below 0 or a limit below 1 is a usage
    # error at parse time; a budget of 0 places no block
    ["resolve", "t82.design", "--budget", "-1"],
    ["resolve", "t82.design", "--limit", "0"],
    ["prp", "k8.res", "--budget", "-1"],
    ["construct", "t82.design", "t42.design", "--auto-resolve", "--budget", "-1",
     "--out", "x.design"],
    ["resolve", "t82.design", "--budget", "0"],
    ["prp", "k8.res", "--budget", "0"],
    # counts too large to compute in full are refused by a capped binomial
    ["gen", "trivial", "20000", "10000"],
    ["gen", "trivial", "1048576", "524288"],
    ["verify", "halves.design", "--t", "3000"],
    # empty expectations and entry names next to --all are refused, and a
    # field order with no built-in modulus names the orders gen affine takes
    ["reproduce", "--all", "nope"],
    ["profile", "built.design", "--expect", ""],
    ["verify", "t63.design", "--expect-params", ""],
    ["gen", "affine", "2", "17"],
]


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _kept(text: str) -> str:
    return text if len(text) <= MAX_VERBATIM else _digest(text.encode())


def _snapshot(directory: Path) -> dict[str, str]:
    return {p.name: _digest(p.read_bytes()) for p in sorted(directory.iterdir())}


def run_transcript(directory: Path) -> list[dict]:
    """Run every command in `directory`; one record per command."""
    for name, text in FILES.items():
        (directory / name).write_text(text)
    records = []
    previous_cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in COMMANDS:
            before = _snapshot(directory)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            after = _snapshot(directory)
            written = {
                name: digest for name, digest in after.items()
                if before.get(name) != digest
            }
            records.append({
                "argv": argv,
                "exit": code,
                "stdout": _kept(out.getvalue()),
                "stderr": _kept(err.getvalue()),
                "written": written,
            })
    finally:
        os.chdir(previous_cwd)
    return records


@pytest.fixture(scope="module")
def transcript(tmp_path_factory):
    return run_transcript(tmp_path_factory.mktemp("transcript"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert [record["argv"] for record in golden] == COMMANDS


@pytest.mark.parametrize(
    "index", range(len(COMMANDS)), ids=[" ".join(argv) for argv in COMMANDS]
)
def test_transcript_matches_golden(transcript, golden, index):
    assert transcript[index] == golden[index]


@pytest.mark.parametrize("columns", ["60", "200"])
def test_usage_lines_do_not_follow_terminal_width(golden, monkeypatch, columns):
    # argparse would wrap usage lines to COLUMNS; the CLI fixes the width.
    argv = ["construct", "t82.design", "t42.design", "--auto-resolve",
            "--budget", "-1", "--out", "x.design"]
    monkeypatch.setenv("COLUMNS", columns)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        main(argv)
    record = next(record for record in golden if record["argv"] == argv)
    assert (info.value.code, err.getvalue()) == (record["exit"], record["stderr"])


def append_new_records(directory: Path) -> int:
    """Record the commands the goldens lack; exit status 0, or 1 (nothing
    written) when an existing record would change or has no command."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    old = {tuple(record["argv"]): record for record in golden}
    records = run_transcript(directory)
    kept = {tuple(record["argv"]) for record in records}
    changed = [
        record["argv"] for record in records
        if old.get(tuple(record["argv"]), record) != record
    ] + [list(argv) for argv in old if argv not in kept]
    if changed:
        print("records would change or go; nothing written:", file=sys.stderr)
        for argv in changed:
            print(f"  {' '.join(argv)}", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    print(f"appended {len(records) - len(golden)} records to {GOLDEN.name}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        sys.exit(append_new_records(Path(scratch)))
