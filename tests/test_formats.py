import json

import pytest

from blockdesigns.core import Design, PointSet, make_design
from blockdesigns.formats import (
    FormatError,
    design_from_dict,
    design_to_dict,
    format_design,
    format_resolution,
    load_design,
    load_design_or_resolution,
    load_resolution,
    parse_design,
    parse_resolution,
    resolution_from_dict,
    resolution_to_dict,
    save_design,
    save_resolution,
)
from blockdesigns.generators import cyclic_develop, round_robin_one_factorization
from blockdesigns.catalog import catalog_entry
from blockdesigns.resolution import verify_resolution


def sample_design():
    return make_design(4, [(0, 1), (2, 3), (0, 2)], labels=["a", "b", "c", "d"])


def test_design_round_trip_text():
    design = sample_design()
    text = format_design(design)
    assert parse_design(text) == design
    assert format_design(parse_design(text)) == text


def test_design_round_trip_unlabelled():
    design = make_design(5, [(0, 1, 2), (2, 3, 4)])
    text = format_design(design)
    assert "label" not in text
    assert parse_design(text) == design


def test_resolution_round_trip_text():
    design, res = round_robin_one_factorization(6)
    text = format_resolution(res)
    parsed_design, parsed_res = parse_resolution(text)
    assert parsed_design == design
    assert parsed_res == res
    assert format_resolution(parsed_res) == text


def test_cyclic_master_round_trip_with_labels():
    master, res = cyclic_develop(catalog_entry("3-(24,12,15)").base)
    text = format_resolution(res)
    parsed_design, parsed_res = parse_resolution(text)
    assert parsed_design == master
    assert parsed_design.points.labels[-1] == "inf"
    assert verify_resolution(parsed_design, parsed_res)


def test_comments_and_blank_lines():
    text = """
# a comment
design v=4 k=2 b=2   # trailing comment

0 1
# another
2 3
"""
    design = parse_design(text)
    assert design.blocks == ((0, 1), (2, 3))


def test_header_required_first():
    with pytest.raises(FormatError):
        parse_design("0 1\ndesign v=4 k=2 b=1\n")
    with pytest.raises(FormatError):
        parse_design("")


def test_block_count_must_match_header():
    with pytest.raises(FormatError):
        parse_design("design v=4 k=2 b=3\n0 1\n2 3\n")


def test_bad_tokens():
    with pytest.raises(FormatError):
        parse_design("design v=4 k=2\n0 1\n")  # missing b
    with pytest.raises(FormatError):
        parse_design("design v=4 k=2 b=1\n0 x\n")
    with pytest.raises(FormatError):
        parse_design("design v=4 k=2 b=1\nlabel 9 z\n0 1\n")


def test_class_lines_must_be_sequential():
    bad = "design v=4 k=2 b=2\nclass 1\n0 1\n2 3\n"
    with pytest.raises(FormatError):
        parse_resolution(bad)


def test_blocks_before_first_class_rejected():
    bad = "design v=4 k=2 b=2\n0 1\nclass 0\n2 3\n"
    with pytest.raises(FormatError):
        parse_resolution(bad)


def test_parse_design_rejects_resolution_file():
    design, res = round_robin_one_factorization(4)
    with pytest.raises(FormatError):
        parse_design(format_resolution(res))
    with pytest.raises(FormatError):
        parse_resolution(format_design(design))


def test_json_round_trip():
    design = sample_design()
    data = json.loads(json.dumps(design_to_dict(design)))
    assert design_from_dict(data) == design


def test_json_resolution_round_trip():
    design, res = round_robin_one_factorization(6)
    data = json.loads(json.dumps(resolution_to_dict(res)))
    parsed_design, parsed_res = resolution_from_dict(data)
    assert parsed_design == design
    assert parsed_res == res


def test_json_block_count_check():
    data = design_to_dict(sample_design())
    data["b"] = 99
    with pytest.raises(FormatError):
        design_from_dict(data)


def test_save_load_by_suffix(tmp_path):
    design = sample_design()
    text_path = tmp_path / "d.design"
    json_path = tmp_path / "d.json"
    save_design(design, text_path)
    save_design(design, json_path)
    assert load_design(text_path) == design
    assert load_design(json_path) == design

    _, res = round_robin_one_factorization(4)
    res_text = tmp_path / "r.res"
    res_json = tmp_path / "r.json"
    save_resolution(res, res_text)
    save_resolution(res, res_json)
    assert load_resolution(res_text)[1] == res
    assert load_resolution(res_json)[1] == res


def test_load_design_or_resolution_reads_either_flavor(tmp_path):
    design = sample_design()
    _, res = round_robin_one_factorization(4)
    for suffix in (".txt", ".json"):
        save_design(design, tmp_path / f"d{suffix}")
        save_resolution(res, tmp_path / f"r{suffix}")
        assert load_design_or_resolution(tmp_path / f"d{suffix}") == (design, None)
        assert load_design_or_resolution(tmp_path / f"r{suffix}") == (res.design, res)

    data = resolution_to_dict(res)
    data["classes"] = 5  # malformed classes: read as a plain design
    (tmp_path / "bad.json").write_text(json.dumps(data))
    assert load_design_or_resolution(tmp_path / "bad.json") == (res.design, None)

    data["b"] = 99  # a bad design raises as load_design does
    (tmp_path / "bad.json").write_text(json.dumps(data))
    with pytest.raises(FormatError, match="declares b=99"):
        load_design_or_resolution(tmp_path / "bad.json")
    (tmp_path / "bad.txt").write_text("design v=4 k=2 b=1\nclass 0\n0 1\n2 3\n")
    with pytest.raises(FormatError, match="declares b=1"):
        load_design_or_resolution(tmp_path / "bad.txt")
