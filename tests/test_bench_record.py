import importlib.util
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
