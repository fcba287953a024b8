import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockdesigns
from blockdesigns import cli, core, resolution
from blockdesigns.cli import main
from blockdesigns.core import MAX_POINTS, make_design, t_coverage_spectrum
from blockdesigns.formats import load_design, load_resolution, save_design, save_resolution
from blockdesigns.generators import (
    affine_hyperplane_design,
    round_robin_one_factorization,
    trivial_design,
)
from blockdesigns.resolution import ParallelClass, Resolution

from oracles import naive_profile, naive_spectrum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tri63(tmp_path):
    path = tmp_path / "tri63.design"
    save_design(trivial_design(6, 3), path)
    return str(path)


@pytest.fixture()
def master_24(tmp_path, capsys):
    path = tmp_path / "master.res"
    code, _, _ = run(capsys, "gen", "catalog", "3-(24,12,15)", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def idx42(tmp_path, capsys):
    path = tmp_path / "idx42.design"
    code, _, _ = run(capsys, "gen", "trivial", "4", "2", "--out", str(path))
    assert code == 0
    return str(path)


# --- verify -------------------------------------------------------------------

def test_verify_trivial(capsys, tri63):
    code, out, _ = run(capsys, "verify", tri63, "--t", "3")
    assert code == 0
    assert "ibd: v=6 b=20 r=10 k=3" in out
    assert "coverage t=3: 1:20" in out
    assert "trivial: yes" in out


def test_verify_expectations_pass(capsys, tri63):
    code, out, _ = run(
        capsys, "verify", tri63, "--t", "3", "--expect-lambda", "1",
        "--expect-simple", "--expect-params", "6,20,10,3",
    )
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_expectation_failure(capsys, tri63):
    code, out, _ = run(capsys, "verify", tri63, "--t", "3", "--expect-lambda", "2")
    assert code == 1
    assert "FAIL" in out


def test_verify_parse_error(capsys, tmp_path):
    cases = {
        "bad.design": "not a design\n",
        "bad_b.json": '{"v": 4, "k": 2, "b": "x", "blocks": [[0, 1]]}',
        "labels_int.json": '{"v": 4, "k": 2, "labels": 5, "blocks": [[0, 1]]}',
        "labels_nonstr.json":
            '{"v": 4, "k": 2, "labels": [1, 2, 3, 4], "blocks": [[0, 1]]}',
        "float_point.json": '{"v": 4, "k": 2, "blocks": [[0, 1.9]]}',
        "infinite_v.json": '{"v": Infinity, "k": 2, "blocks": [[0, 1]]}',
        "superscript_index.res": "design v=4 k=2 b=2\nclass \u00b2\n0 1\n2 3\n",
        "float_classes.json":
            '{"v": 4, "k": 2, "blocks": [[0, 1], [2, 3]], "classes": [[0.7, 1.2]]}',
        "str_classes.json":
            '{"v": 4, "k": 2, "blocks": [[0, 1], [2, 3]], "classes": [["x"], [1]]}',
    }
    for name, text in cases.items():
        bad = tmp_path / name
        bad.write_text(text)
        for command in ("verify", "prp"):
            code, _, err = run(capsys, command, str(bad))
            assert code == 2, (name, command)
            assert err.startswith("error:"), (name, command)


def test_points_above_the_limit_exit_2(capsys, tmp_path):
    # Without the bound each of these allocates megabytes or more in
    # proportion to v (the label tuple, replication counts, block rows).
    v = 4 * MAX_POINTS
    files = {
        "big.design": f"design v={v} k=2 b=1\n0 1\n",
        "big_labelled.design": f"design v={v} k=2 b=1\nlabel 0 a\n0 1\n",
        "big.json": json.dumps({"v": v, "k": 2, "blocks": [[0, 1]]}),
    }
    tracemalloc.start()
    try:
        for name, text in files.items():
            (tmp_path / name).write_text(text)
            for command in ("verify", "profile"):
                code, out, err = run(capsys, command, str(tmp_path / name))
                assert (code, out) == (2, ""), (name, command)
                assert err == (f"error: point set of {v} points is above "
                               f"the limit of {MAX_POINTS}\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_profile_above_the_row_limit_exits_2(capsys, tmp_path, monkeypatch):
    # 100 disjoint pairs: 100 rows of 4 words over the 200 points in use.
    path = tmp_path / "pairs.design"
    save_design(make_design(1000, [(2 * i, 2 * i + 1) for i in range(100)]), path)
    monkeypatch.setattr(core, "MAX_ROW_WORDS", 399)
    code, out, err = run(capsys, "profile", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: the rows of 100 blocks over 200 points would hold "
                   "400 words, above the limit of 399\n")


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/x.design")
    assert code == 2


def test_verify_json(capsys, tri63):
    code, out, _ = run(capsys, "verify", tri63, "--t", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ibd"] == {"v": 6, "b": 20, "r": 10, "k": 3}
    assert doc["spectra"]["2"] == {"4": 15}


def test_verify_accepts_resolution_files(capsys, master_24):
    code, out, _ = run(capsys, "verify", master_24, "--t", "2")
    assert code == 0
    assert "ibd: v=24 b=92 r=23 k=6" in out
    assert "coverage t=2: 5:276" in out


def test_construct_json(capsys, tmp_path, master_24, idx42):
    out_path = tmp_path / "built.design"
    code, out, _ = run(
        capsys, "construct", master_24, idx42,
        "--out", str(out_path), "--check-three", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted_params"] == [24, 138, 69, 12]
    assert doc["params_match"] is True
    assert doc["predicted_triple_coverage"] == 15
    assert doc["observed_triple_spectrum"] == {"15": 2024}


# --- construct -----------------------------------------------------------------

def test_construct_catalog_master(capsys, tmp_path, master_24, idx42):
    out_path = tmp_path / "built.design"
    code, out, _ = run(
        capsys, "construct", master_24, idx42,
        "--out", str(out_path), "--provenance", str(tmp_path / "prov.json"),
    )
    assert code == 0
    assert "predicted: v=24 b=138 r=69 k=12" in out
    assert "observed:  v=24 b=138 r=69 k=12" in out
    assert "predicted pair coverage: 33" in out
    assert "three-design case: k-prime-is-half-w" in out
    assert "predicted triple coverage: 15" in out
    assert "constructed simple: yes" in out
    built = load_design(out_path)
    assert len(built.blocks) == 138
    prov = json.loads((tmp_path / "prov.json").read_text())
    assert prov["blocks"] == 138
    assert prov["provenance"][0] == [0, 0]


def test_construct_dimension_mismatch(capsys, tmp_path, master_24):
    idx = tmp_path / "idx63.design"
    save_design(trivial_design(6, 3), idx)
    code, _, err = run(
        capsys, "construct", master_24, str(idx), "--out", str(tmp_path / "x.design")
    )
    assert code == 2
    assert "error" in err


def test_construct_affine_with_resolution_format_indexing(capsys, tmp_path):
    master = tmp_path / "ag28.res"
    indexing = tmp_path / "ag32.res"
    run(capsys, "gen", "affine", "2", "8", "--out", str(master))
    run(capsys, "gen", "affine", "3", "2", "--out", str(indexing))
    out_path = tmp_path / "built.design"
    code, out, _ = run(
        capsys, "construct", str(master), str(indexing), "--out", str(out_path)
    )
    assert code == 0
    assert "predicted: v=64 b=126 r=63 k=32" in out
    assert "predicted triple coverage: 15" in out
    assert "constructed simple: yes" in out


def test_construct_auto_resolve(capsys, tmp_path, idx42):
    # a plain design file for the master: trivial (8,2) is resolvable
    master = tmp_path / "k8.design"
    save_design(trivial_design(8, 2), master)
    out_path = tmp_path / "built.design"
    code, out, _ = run(
        capsys, "construct", str(master), idx42, "--out", str(out_path),
        "--auto-resolve",
    )
    assert code == 0
    assert "auto-resolved" in out


def test_construct_indexing_pair_balanced_only(capsys, tmp_path):
    # Fano plane 2-(7,3,1): lambda2' = 1 but triples are not balanced.
    fano = tmp_path / "fano.design"
    fano.write_text(
        "design v=7 k=3 b=7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"
    )
    master = tmp_path / "ag27.res"
    assert run(capsys, "gen", "affine", "2", "7", "--out", str(master))[0] == 0
    out_path = tmp_path / "built.design"
    code, out, _ = run(
        capsys, "construct", str(master), str(fano), "--out", str(out_path)
    )
    assert code == 0
    assert "lambda2'=1 (not 3-balanced; triple-coverage prediction skipped)" in out
    assert "predicted pair coverage: 10" in out  # 1*3 + (8-1)*1
    assert "three-design case" not in out
    assert "predicted triple coverage" not in out
    assert t_coverage_spectrum(load_design(out_path), 2) == {10: math.comb(49, 2)}


def test_construct_doubled_pair_indexing(capsys, tmp_path, master_24):
    # trivial(4,2) listed twice has lambda2' = 2, so every triple is
    # covered 2 * 3 * lambda = 30 times.
    doubled = tmp_path / "doubled.design"
    save_design(make_design(4, trivial_design(4, 2).blocks * 2), doubled)
    code, out, _ = run(capsys, "construct", master_24, str(doubled),
                       "--out", str(tmp_path / "built.design"), "--check-three")
    assert code == 0
    assert "predicted triple coverage: 30\n" in out
    assert f"observed coverage t=3: 30:{math.comb(24, 3)}\n" in out


def test_construct_requires_resolution(capsys, tmp_path, idx42):
    master = tmp_path / "k8.design"
    save_design(trivial_design(8, 2), master)
    code, _, err = run(
        capsys, "construct", str(master), idx42, "--out", str(tmp_path / "x.design")
    )
    assert code == 2


# --- resolve --------------------------------------------------------------------

def test_resolve_unique(capsys, tmp_path):
    design = tmp_path / "k4.design"
    save_design(trivial_design(4, 2), design)
    out_path = tmp_path / "k4.res"
    code, out, _ = run(
        capsys, "resolve", str(design), "--limit", "5", "--out", str(out_path)
    )
    assert code == 0
    assert "resolutions found: 1" in out
    _, res = load_resolution(out_path)
    assert len(res.classes) == 3


def test_resolve_budget_exhaustion(capsys, tmp_path):
    design = tmp_path / "k8.design"
    save_design(trivial_design(8, 2), design)
    code, out, _ = run(
        capsys, "resolve", str(design), "--limit", "10000", "--budget", "10"
    )
    assert code == 3
    assert "budget" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["resolve", "x.design", "--budget", "-1"], "--budget: must be at least 0, got -1"),
        (["resolve", "x.design", "--limit", "0"], "--limit: must be at least 1, got 0"),
        (["resolve", "x.design", "--limit", "-5"], "--limit: must be at least 1, got -5"),
        (["prp", "x.res", "--budget", "-2"], "--budget: must be at least 0, got -2"),
        (["construct", "m.res", "i.design", "--auto-resolve", "--budget", "-1",
          "--out", "x.design"], "--budget: must be at least 0, got -1"),
        (["resolve", "x.design", "--budget", "many"], "--budget: invalid int value: 'many'"),
    ],
)
def test_search_arguments_rejected_at_parse_time(capsys, argv, message):
    # The input files need not exist: the arguments fail before any is read.
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {message}\n")


def test_zero_budget_is_a_valid_search_budget(capsys, tmp_path):
    design = tmp_path / "k8.design"
    save_design(trivial_design(8, 2), design)
    code, out, _ = run(capsys, "resolve", str(design), "--budget", "0")
    assert code == 3
    assert "search budget of 0 nodes exhausted" in out


def test_resolve_a_class_of_1500_blocks(capsys, tmp_path, wide_classes):
    # A search recursing once per placed block ended here in a
    # RecursionError traceback.
    design = tmp_path / "wide.design"
    save_design(wide_classes, design)
    code, out, err = run(capsys, "resolve", str(design), "--limit", "1")
    assert code == 0
    assert "resolutions found: 1 (limit 1)" in out
    assert err == ""


# --- prp ------------------------------------------------------------------------

def test_prp_free(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "affine", "2", "3", "--out", str(tmp_path / "ag.res"))
    assert code == 0
    code, out, _ = run(capsys, "prp", str(tmp_path / "ag.res"))
    assert code == 0
    assert "violations: none" in out


def test_prp_violations_listed(capsys, tmp_path):
    code, _, _ = run(
        capsys, "gen", "sub-one-factorization", "2", "--out", str(tmp_path / "k8.res")
    )
    assert code == 0
    code, out, _ = run(capsys, "prp", str(tmp_path / "k8.res"), "--alpha", "2")
    assert code == 0
    assert "classes 0 and 1 satisfy alpha=2" in out


def test_prp_rejects_plain_design(capsys, tri63):
    code, _, err = run(capsys, "prp", tri63)
    assert code == 2


def test_prp_ag28_alpha4_free(capsys, tmp_path):
    path = tmp_path / "ag28.res"
    code, _, _ = run(capsys, "gen", "affine", "2", "8", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "prp", str(path), "--alpha", "4")
    assert code == 0
    assert "violations: none" in out


# --- develop --------------------------------------------------------------------

def test_develop_catalog_base(capsys, tmp_path):
    base = tmp_path / "base.design"
    code, _, _ = run(capsys, "gen", "catalog", "3-(24,12,15)", "--base", "--out", str(base))
    assert code == 0
    out_path = tmp_path / "master.res"
    code, out, _ = run(capsys, "develop", str(base), "--out", str(out_path))
    assert code == 0
    assert "developed: v=24 b=92 r=23 k=6 classes=23" in out
    design, res = load_resolution(out_path)
    assert len(design.blocks) == 92


def test_develop_no_infinity(capsys, tmp_path):
    base = tmp_path / "base.design"
    save_design(trivial_design(4, 2), base)  # not a class; expect error
    code, _, err = run(capsys, "develop", str(base), "--no-infinity")
    assert code == 2


# --- gen ------------------------------------------------------------------------

def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "trivial", "4", "2")
    assert code == 0
    assert out.startswith("design v=4 k=2 b=6")


def test_module_entry_point(tmp_path):
    src = str(Path(blockdesigns.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "blockdesigns", "gen", "trivial", "4", "2"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("design v=4 k=2 b=6\n")
    done = subprocess.run(
        [sys.executable, "-m", "blockdesigns", "verify", "missing.design"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:")


def test_parser_is_built_once_and_commands_dispatch_by_name(capsys, monkeypatch, tri63):
    assert cli.build_parser() is cli.build_parser()
    assert run(capsys, "verify", tri63)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.file) or 7)
    assert run(capsys, "verify", tri63) == (7, "", "")
    assert seen == [tri63]


def test_a_rejected_command_line_leaves_the_next_one_unchanged(capsys):
    # Recorded transcripts: a parse-time rejection, then a valid command,
    # then the rejection again, all through the one cached parser.
    golden = json.loads((Path(__file__).parent / "cli_transcripts.json").read_text())
    records = {tuple(record["argv"]): record for record in golden}
    rejected = ("resolve", "t82.design", "--budget", "-1")
    for argv in (rejected, ("gen", "trivial", "4", "2"), rejected):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        record = records[argv]
        assert (code, captured.out, captured.err) == (
            record["exit"], record["stdout"], record["stderr"])


def test_gen_one_factorization(capsys, tmp_path):
    path = tmp_path / "k6.res"
    code, _, _ = run(capsys, "gen", "one-factorization", "6", "--out", str(path))
    assert code == 0
    design, res = load_resolution(path)
    assert len(res.classes) == 5


def test_oversized_counts_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "trivial", "40", "20")
    assert (code, out) == (2, "")
    assert "above the limit" in err
    big = tmp_path / "big.design"
    big.write_text(
        "design v=2000 k=1000 b=1\n" + " ".join(map(str, range(1000))) + "\n"
    )
    code, _, err = run(capsys, "verify", str(big), "--t", "3")
    assert code == 2
    assert "spectrum" in err and "above the limit" in err


def _halves(tmp_path, v):
    """A design file of two complementary halves of v points."""
    path = tmp_path / f"halves{v}.design"
    path.write_text(f"design v={v} k={v // 2} b=2\n" + "".join(
        " ".join(map(str, range(lo, lo + v // 2))) + "\n" for lo in (0, v // 2)
    ))
    return str(path)


def test_verify_halves_of_the_largest_point_set(capsys, tmp_path):
    # is_trivial compares b = 2 with C(2^20, 2^19) capped at 2.
    code, out, err = run(capsys, "verify", _halves(tmp_path, MAX_POINTS))
    assert (code, err) == (0, "")
    assert out.endswith("simple: yes\ntrivial: no\n")


def test_verify_refuses_a_binomial_past_the_bit_bound(capsys, tmp_path, monkeypatch):
    # C(2^20, 2^19) has 1,048,566 bits; computing it took 14.6 s, and the
    # run exited 0 after 16 s.  It is refused before any binomial is built.
    def small_comb(n, r, comb=math.comb):
        assert min(r, n - r) < 1000, "a large binomial was computed"
        return comb(n, r)

    path = _halves(tmp_path, MAX_POINTS)
    monkeypatch.setattr(core.math, "comb", small_comb)
    code, out, err = run(capsys, "verify", path, "--t", str(MAX_POINTS // 2))
    assert (code, out) == (2, "")
    assert f"a number of more than {core.MAX_COMB_BITS} bits, above the limit" in err


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_prints_counts_of_any_length(capsys, tmp_path, as_json):
    # C(16384, 8192) - 2 uncovered 8192-subsets: 4930 digits, past the
    # 4300 that str() and int() take by default; the two halves are
    # found 8191 columns deep.
    path = _halves(tmp_path, 16384)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "verify", path, "--t", "8192", *["--json"] * as_json)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # lifted only while printing
    sys.set_int_max_str_digits(0)
    try:
        if as_json:
            spectrum = json.loads(out)["spectra"]["8192"]
        else:
            line = next(line for line in out.splitlines() if line.startswith("coverage"))
            spectrum = dict(item.split(":") for item in line.split()[2:])
        assert {int(c): int(n) for c, n in spectrum.items()} == {
            0: math.comb(16384, 8192) - 2, 1: 2}
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_spectrum_of_one_block_on_many_points(capsys, tmp_path):
    # C(23000, 2) pairs, but only the pair of the one block is covered.
    sparse = tmp_path / "sparse.design"
    sparse.write_text("design v=23000 k=2 b=1\n0 1\n")
    code, out, _ = run(capsys, "verify", str(sparse), "--t", "2")
    assert code == 0
    assert f"coverage t=2: 0:{math.comb(23000, 2) - 1} 1:1" in out


def test_gen_unknown_catalog(capsys):
    code, _, err = run(capsys, "gen", "catalog", "bogus")
    assert code == 2
    assert "unknown catalog entry" in err


# --- profile --------------------------------------------------------------------

def test_profile_expect(capsys, tmp_path, master_24, idx42, monkeypatch):
    out_path = tmp_path / "built.design"
    run(capsys, "construct", master_24, idx42, "--out", str(out_path))
    expected = "69,0,46,0,506,2208,3864,2208,506,0,46,0,0"
    code, out, _ = run(capsys, "profile", str(out_path), "--expect", expected)
    assert code == 0
    assert "pairs: 9453" in out
    code, out, _ = run(capsys, "profile", str(out_path), "--expect", "1,2,3")
    assert code == 1


def test_empty_expectations_are_refused(capsys, tri63):
    # An empty --expect or --expect-params is a malformed expectation,
    # not a missing one.
    code, out, err = run(capsys, "profile", tri63, "--expect", "")
    assert (code, out, err) == (2, "", "error: --expect wants integers, got ''\n")
    code, out, err = run(capsys, "verify", tri63, "--expect-params", "")
    assert (code, out, err) == (2, "", "error: --expect-params wants 'v,b,r,k', got ''\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--t", "2", "--t", "4"], "need 1 <= t <= k, got t=4 k=3"),
        (["--t", "0", "--t", "2"], "need 1 <= t <= k, got t=0 k=3"),
        (["--t", "2", "--t", "3", "--expect-lambda", "1"],
         "--expect-lambda needs exactly one --t"),
        (["--expect-lambda", "1"], "--expect-lambda needs exactly one --t"),
        (["--t", "3", "--expect-params", "6,20,10"],
         "--expect-params wants four integers 'v,b,r,k'"),
        (["--t", "3", "--expect-params", "6,20,x,3"],
         "--expect-params wants 'v,b,r,k', got '6,20,x,3'"),
        # The t values are checked first, then --expect-lambda, then
        # --expect-params.
        (["--t", "4", "--t", "2", "--expect-lambda", "1", "--expect-params", "x"],
         "need 1 <= t <= k, got t=4 k=3"),
        (["--t", "2", "--t", "3", "--expect-lambda", "1", "--expect-params", "x"],
         "--expect-lambda needs exactly one --t"),
    ],
)
def test_verify_refuses_its_arguments_before_counting(capsys, tri63, monkeypatch,
                                                     argv, message):
    def no_counting(design, t):
        raise AssertionError(f"counted the t={t} spectrum before refusing")

    monkeypatch.setattr(cli, "t_coverage_spectrum", no_counting)
    code, out, err = run(capsys, "verify", tri63, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_searches_refuse_rows_above_the_bound(capsys, tmp_path, monkeypatch):
    # The resolution and PRP searches read the blocks off the verifiers'
    # packed rows, so they share the rows' bound: the 12 rows of AG(2,3)
    # and the 15 of K_6's one-factorization, one word each, are refused
    # before any column is packed.
    master, res = affine_hyperplane_design(2, 3)
    ag23, plain = tmp_path / "ag23.res", tmp_path / "ag23.design"
    save_resolution(res, ag23)
    save_design(master, plain)
    save_design(trivial_design(3, 2), tmp_path / "t32.design")
    k6, one = tmp_path / "k6.res", tmp_path / "one.res"
    save_resolution(round_robin_one_factorization(6)[1], k6)
    pairs = make_design(6, [(0, 1), (2, 3), (4, 5)])
    save_resolution(Resolution(pairs, (ParallelClass((0, 1, 2)),)), one)

    def refuse(*args):
        raise AssertionError("a column was packed")

    monkeypatch.setattr(core, "MAX_ROW_WORDS", 3)
    monkeypatch.setattr(resolution, "_columns", refuse)
    message = ("error: the rows of 12 blocks over 9 points would hold 12 words, "
               "above the limit of 3\n")
    for argv in (["resolve", str(plain)],
                 ["construct", str(plain), str(tmp_path / "t32.design"),
                  "--auto-resolve", "--out", str(tmp_path / "x.design")]):
        assert run(capsys, *argv) == (2, "", message), argv
    assert not (tmp_path / "x.design").exists()
    # K_6 has blocks of k = 2 < w = 3 points, so its class pairs need the
    # rows; AG(2,3) (k >= w) has every pair decided at once, and one class
    # has no pair, so neither packs a row.
    assert run(capsys, "prp", str(k6)) == (
        2, "", "error: the rows of 15 blocks over 6 points would hold 15 words, "
        "above the limit of 3\n")
    for path in (ag23, one):
        code, out, err = run(capsys, "prp", str(path))
        assert (code, err) == (0, ""), path
        assert out.endswith("violations: none (PRP-free)\n")


# --- reproduce ------------------------------------------------------------------

def test_reproduce_single_entry(capsys):
    code, out, _ = run(capsys, "reproduce", "3-(24,12,15)")
    assert code == 0
    assert "entry 3-(24,12,15): PASS" in out
    assert "summary: 1/1 entries reproduced" in out


def test_reproduce_unknown(capsys):
    code, _, err = run(capsys, "reproduce", "nope")
    assert code == 2


def test_reproduce_refuses_names_with_all(capsys):
    code, out, err = run(capsys, "reproduce", "--all", "nope")
    assert (code, out, err) == (2, "", "error: pass entry names or --all, not both\n")


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "3-(28,14,18)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["entries"][0]["name"] == "3-(28,14,18)"


def test_reproduce_all(capsys):
    code, out, _ = run(capsys, "reproduce", "--all")
    assert code == 0
    assert "summary: 8/8 entries reproduced" in out


def test_reproduce_mismatch_exits_1(capsys, monkeypatch):
    import dataclasses

    from blockdesigns import catalog

    entry = catalog.catalog_entry("3-(24,12,15)")
    tampered = dataclasses.replace(entry, mu=16)
    monkeypatch.setitem(catalog._ENTRIES, entry.name, tampered)
    code, out, _ = run(capsys, "reproduce", "3-(24,12,15)")
    assert code == 1
    assert "FAIL" in out
    assert "expected" in out and "observed" in out


# --- determinism ------------------------------------------------------------------

def test_commands_are_deterministic(capsys, tri63, master_24):
    first = run(capsys, "verify", tri63, "--t", "2", "--t", "3", "--json")
    second = run(capsys, "verify", tri63, "--t", "2", "--t", "3", "--json")
    assert first == second
    first = run(capsys, "prp", master_24, "--alpha", "2")
    second = run(capsys, "prp", master_24, "--alpha", "2")
    assert first == second


def test_emitted_files_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.res", tmp_path / "b.res"
    run(capsys, "gen", "affine", "2", "4", "--out", str(a))
    run(capsys, "gen", "affine", "2", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# --- one block array on every pipeline path -----------------------------------

@pytest.fixture()
def built_designs(monkeypatch):
    """Every design built while the test runs, in order."""
    built = []
    post_init = core.Design.__post_init__

    def recording(self, *args):
        post_init(self, *args)
        built.append(self)

    monkeypatch.setattr(core.Design, "__post_init__", recording)
    return built


def test_catalog_reproduction_builds_no_block_tuples(built_designs):
    from blockdesigns.catalog import catalog_names
    from blockdesigns.reproduce import reproduce_entry

    for name in catalog_names():
        assert reproduce_entry(name).ok
    assert len(built_designs) >= 3 * len(catalog_names())
    assert not [d for d in built_designs if "blocks" in vars(d)]


def test_readme_pipeline_builds_no_block_tuples(capsys, tmp_path, built_designs):
    w = str(tmp_path)
    steps = [
        f"gen affine 2 8 --out {w}/ag28.res",
        f"prp {w}/ag28.res --alpha 4",
        f"gen trivial 8 4 --out {w}/t84.design",
        f"construct {w}/ag28.res {w}/t84.design --out {w}/built.design",
        f"verify {w}/built.design --t 3 --expect-lambda 75 --expect-simple",
        f"profile {w}/built.design",
    ]
    for step in steps:
        assert run(capsys, *step.split())[0] == 0, step
    assert len(built_designs) >= 8
    assert not [d for d in built_designs if "blocks" in vars(d)]


# --- generated files ------------------------------------------------------------

@st.composite
def design_files(draw):
    """(text, v, blocks, t): a text design file on v = 3 to 12 points with
    1 to 20 blocks, repeats likely, and a strength of 2 or 3; blocks is None
    when one block line was replaced by a short line of digits, spaces,
    signs and letters, which may or may not still parse."""
    v = draw(st.integers(3, 12))
    k = draw(st.integers(2, v - 1))
    pool = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True).map(sorted),
        min_size=1, max_size=6,
    ))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    lines = [f"design v={v} k={k} b={len(blocks)}"]
    lines += [" ".join(map(str, block)) for block in blocks]
    if draw(st.booleans()):
        line = draw(st.integers(1, len(blocks)))
        lines[line] = draw(st.text("0123456789 -x\t", max_size=12))
        blocks = None
    return "\n".join(lines) + "\n", v, blocks, draw(st.integers(2, 3))


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue().splitlines()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(design_files())
def test_verify_and_profile_of_generated_files_match_the_naive_oracles(case):
    # Files carry no automorphisms, so every spectrum here is counted on
    # half of the blocks or point by point.
    text, v, blocks, t = case
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "generated.design")
        Path(path).write_text(text)
        verified = _main("verify", path, "--t", str(t))
        profiled = _main("profile", path)
    if blocks is None:
        return
    if t > len(blocks[0]):
        assert verified[0] == 2
    else:
        spectrum = naive_spectrum(v, blocks, t)
        assert verified[0] == 0
        assert f"coverage t={t}: " + " ".join(
            f"{c}:{n}" for c, n in spectrum.items()) in verified[1]
    assert profiled[0] == 0
    assert "profile: " + " ".join(map(str, naive_profile(blocks))) in profiled[1]
