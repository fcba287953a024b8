"""Self-tests of the benchmark.  Run from the checkout root with

    python3 -m pytest -q perfbench
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GOLDENS = json.loads((HERE / "goldens.json").read_text())


class Subset:
    """A workload restricted to the items whose label starts with a prefix."""

    def __init__(self, workload, *prefixes):
        self.workload = workload
        self.prefixes = prefixes

    def items(self, pass_index):
        return [
            item
            for item in self.workload.items(pass_index)
            if item.label.startswith(self.prefixes)
        ]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def built(name, goldens=GOLDENS, seed=7):
    workload = workloads.WORKLOADS[name](seed, goldens)
    workload.build()
    return workload


def test_wrong_catalog_golden_is_a_failed_item():
    goldens = copy.deepcopy(GOLDENS)
    goldens["catalog"]["3-(24,12,15)"]["mu"] += 1
    result = run.run_pass(Subset(built("catalog", goldens), "3-(24,12,15)", "3-(28,14,18)"), 0)
    failed = [r for r in result["items"] if not r["ok"]]
    assert [r["label"] for r in failed] == ["3-(24,12,15)"]
    assert "triple coverage" in failed[0]["detail"]


def test_wrong_cli_golden_is_a_failed_item():
    goldens = copy.deepcopy(GOLDENS)
    step = "profile perfbench/_work/ag34_t42.design"
    goldens["affine-cli"]["AG(3,4)xtrivial(4,2)"][step]["stdout"] += "x"
    result = run.run_pass(Subset(built("affine-cli", goldens), "AG(3,4)"), 0)
    failed = [r["label"] for r in result["items"] if not r["ok"]]
    assert failed == [f"AG(3,4)xtrivial(4,2): {step}"]


def test_budget_exhausted_search_is_unsolved_not_failed(monkeypatch):
    monkeypatch.setattr(workloads, "HARD_BUDGET", 50)
    monkeypatch.setattr(workloads, "POOL", 1)
    result = run.run_pass(Subset(built("search"), "resolve (24,3,2)", "prp sub2"), 0)
    records = result["items"]
    assert [r["ok"] for r in records] == [True] * 3
    assert [r["solved"] for r in records] == [False, False, True]
    metrics, details = run.end_to_end([result], setup_s=1.0)
    assert metrics["solved_ratio"] == pytest.approx(1 / 3)
    assert details["failed_ratio"] == 0


def test_tail_is_the_slowdown_within_each_kind():
    # Kind "a" takes 1 s and kind "b" 10 ms; a quarter of the "a" calls
    # run 1.5 times slower.  The tail reflects that slowdown, whatever the
    # kinds' own sizes.
    def item(label, t):
        return {"label": label, "call_s": t, "call_ref_s": t, "ok": True, "solved": None}

    passes = [
        {"pass_s": 1.01, "pass_ref_s": 1.01,
         "items": [item("a", 1.5 if i < 5 else 1.0), item("b", 0.01)]}
        for i in range(20)
    ]
    metrics, details = run.end_to_end(passes, setup_s=1.0)
    assert details["tail_slowdown"] == pytest.approx(1.5)
    assert metrics["wall_tail_s"] == pytest.approx(1.01 * 1.5)


def test_cli_budget_exit_is_unsolved_not_failed():
    outcome = workloads._check_step(["prp", "x.res"], {"code": 0}, (3, "", ""))
    assert outcome.ok and outcome.solved is False


def test_traced_self_times_add_up_to_the_pass():
    workload = Subset(built("catalog"), "3-(24,12,15)", "3-(30,15,65)")
    tracer = spans.Tracer()
    result = run.run_pass(workload, 0, tracer)
    acc = result["accounting"]
    assert abs(acc["residual_s"]) <= 0.02 * acc["pass_s"] + 0.005
    layers = result["summary"]["layers"]
    assert layers["reproduce.reproduce_entry"]["calls"] == 2
    # master t=2 and built t=3 per entry, plus the indexing design at t=2
    # (and t=3 unless k' = 2, as in 3-(24,12,15)).
    assert layers["core.t_coverage_spectrum"]["calls"] == 3 + 4
    entry = GOLDENS["catalog"]["3-(24,12,15)"]
    b = entry["constructed"][1]
    assert layers["core.intersection_profile"]["block_pairs"] == (
        math.comb(b, 2) + math.comb(GOLDENS["catalog"]["3-(30,15,65)"]["constructed"][1], 2)
    )


def test_traced_cli_pass_adds_up_and_counts_fallback_parses():
    workload = Subset(built("affine-cli"), "AG(3,4)")
    tracer = spans.Tracer()
    result = run.run_pass(workload, 0, tracer)
    acc = result["accounting"]
    assert abs(acc["residual_s"]) <= 0.02 * acc["pass_s"] + 0.005
    assert all(r["ok"] for r in result["items"])
    metrics = spans.layer_metrics(result["summary"])
    # prp, construct (master, indexing), verify and profile each parse;
    # the indexing design and the built design fail as resolutions first.
    assert metrics["formats.load_resolution.calls"] == 5
    assert metrics["formats.load_design.calls"] == 3
    assert metrics["formats.parse_useful_ratio"] == pytest.approx(5 / 8)
    assert metrics["galois.add.calls"] == 4**3 * 21 * 3
    assert metrics["cli.main.nonzero_exits"] == 0


def test_tracer_restores_every_binding():
    import blockdesigns

    modules = [m for n, m in sys.modules.items() if n.startswith("blockdesigns")]
    before = [dict(vars(m)) for m in modules]
    original = blockdesigns.core.t_coverage_spectrum
    post_init = blockdesigns.core.Design.__post_init__
    with spans.Tracer():
        wrapped = blockdesigns.core.t_coverage_spectrum
        assert wrapped is not original
        for module in (blockdesigns, blockdesigns.cli, blockdesigns.construct,
                       blockdesigns.reproduce):
            assert module.t_coverage_spectrum is wrapped
        assert blockdesigns.core.Design.__post_init__ is not post_init
    assert [dict(vars(m)) for m in modules] == before
    assert blockdesigns.core.Design.__post_init__ is post_init


def test_relabelled_inputs_keep_golden_invariants():
    masters = workloads._masters()
    for seed in range(3):
        rng = workloads.random.Random(seed)
        design, res = workloads.relabel(*masters["sub3"], rng)
        assert design != masters["sub3"][0]
        violations = workloads.resolution.prp_violations(design, res)
        assert [list(v) for v in violations] == GOLDENS["search"]["prp"]["sub3"]
        design, _ = workloads.relabel(*masters["(24,6,5)"], rng)
        found = workloads.resolution.find_resolutions(design, limit=2)
        assert len(found) == GOLDENS["search"]["unique"]["(24,6,5)"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        spans.LAYER_METRICS, trace_overhead_ratio="ratio"
    )


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
