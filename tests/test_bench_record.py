import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _result(wall, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "solved_ratio": {"value": 1.0, "unit": "ratio"},
    }}


def test_summary_is_the_median_over_seeds_of_each_metric():
    runs = {
        1: {"catalog": _result(0.3), "search": _result(2.0)},
        2: {"catalog": _result(0.1), "search": _result(1.0, correct=False, failed=2)},
        3: {"catalog": _result(0.2), "search": _result(3.0)},
    }
    summary = bench_record.summarize(runs)
    assert summary["catalog"]["metrics"]["wall_s"] == {
        "median": 0.2, "unit": "s", "values": [0.3, 0.1, 0.2]}
    assert summary["search"]["metrics"]["wall_s"]["median"] == 2.0
    assert summary["catalog"]["correct"] and not summary["search"]["correct"]
    assert (summary["search"]["attempted"], summary["search"]["failed"]) == (30, 2)


def _traced(spectrum_s):
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "core.t_coverage_spectrum.self_s": {"value": spectrum_s, "unit": "s"},
        "core.t_coverage_spectrum.calls": {"value": 16, "unit": "count"},
        "core.Design.validate_s": {"value": 0.001, "unit": "s"},
        "trace_overhead_ratio": {"value": 1.2, "unit": "ratio"},
    }}


def test_record_adds_the_self_times_of_one_traced_run_at_the_first_seed(
        monkeypatch, tmp_path):
    # Once from this tree, and once from a root without .git, as in an
    # export made with `git archive`, where the commit is not known.
    for root in (bench_record.ROOT, tmp_path / "export"):
        monkeypatch.setattr(bench_record, "ROOT", root)
        calls = []

        def run_seed(seed, seconds, trace=0):
            calls.append((seed, seconds, trace))
            if trace:
                return {"catalog": _traced(0.014), "search": _traced(0.0)}
            return {"catalog": _result(0.05), "search": _result(1.2)}

        monkeypatch.setattr(bench_record, "run_seed", run_seed)
        out = tmp_path / "BENCH_99.json"
        assert bench_record.main(["--pr", "99", "--seeds", "4", "5", "--seconds", "2",
                                  "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert calls == [(4, 2.0, 0), (5, 2.0, 0), (4, 2.0, 1)]
        assert record["per_layer"] == {
            "catalog": {"core.t_coverage_spectrum.self_s": 0.014,
                        "core.Design.validate_s": 0.001},
            "search": {"core.t_coverage_spectrum.self_s": 0.0,
                       "core.Design.validate_s": 0.001},
        }
        assert record["workloads"]["catalog"]["metrics"]["wall_s"]["median"] == 0.05
        if (root / ".git").exists():
            assert len(record["git_sha"]) == 40 and isinstance(record["git_dirty"], bool)
        else:
            assert (record["git_sha"], record["git_dirty"]) == (None, None)
