import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdesigns.cli import main
from blockdesigns.core import Design, DesignError, PointSet, make_design
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
from blockdesigns.resolution import ParallelClass, Resolution, verify_resolution

from oracles import naive_block_lines


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
    for text, message in [
        ("0 1\ndesign v=4 k=2 b=1\n", "block before design header"),
        ("label 0 a\ndesign v=4 k=2 b=1\n0 1\n", "label before design header"),
        ("class 0\ndesign v=4 k=2 b=1\n0 1\n", "class before design header"),
        ("", "no design header found"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_design(text)


def test_block_count_must_match_header():
    with pytest.raises(FormatError):
        parse_design("design v=4 k=2 b=3\n0 1\n2 3\n")


def test_bad_tokens():
    for text, message in [
        ("design v=4 k=2\n0 1\n", "header missing"),
        ("design v=4 k=2 b=1\n0 x\n", "bad block line"),
        ("design v=4 k=2 b=1\nlabel 9 z\n0 1\n", "label index 9 out of range"),
        ("design v=4 k=2 b\n0 1\n", "bad header field 'b'"),
        ("design v=x k=2 b=1\n0 1\n", "header field 'v=x' is not an integer"),
        ("design v=4 k=2 b=1\nlabel 0\n0 1\n", "expected 'label <index> <name>'"),
        ("design v=4 k=2 b=1\nlabel x a\n0 1\n", "bad label index 'x'"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_design(text)


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


@pytest.mark.parametrize("suffix", [".res", ".json"])
def test_load_design_rejects_resolution_file(tmp_path, suffix, capsys):
    # A JSON "classes" key is refused like text class lines, not dropped,
    # so `develop` stops at the parse in both forms.
    _, res = round_robin_one_factorization(4)
    path = tmp_path / f"k4{suffix}"
    save_resolution(res, path)
    with pytest.raises(FormatError, match="file contains class lines"):
        load_design(path)
    assert main(["develop", str(path), "--no-infinity"]) == 2
    assert "file contains class lines" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".design", ".json"])
def test_load_resolution_rejects_design_file(tmp_path, suffix, capsys):
    # Both forms narrow the one parse of load_design_or_resolution, so a
    # JSON design without "classes" gets the text message.
    path = tmp_path / f"d{suffix}"
    save_design(sample_design(), path)
    with pytest.raises(FormatError, match="^file has no class lines; use parse_design$"):
        load_resolution(path)
    assert main(["prp", str(path)]) == 2
    assert "file has no class lines; use parse_design" in capsys.readouterr().err


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

    spaced = make_design(4, [(0, 1)], labels=["a b", "c", "d", "e"])
    with pytest.raises(FormatError, match="cannot be written to the text format"):
        save_design(spaced, tmp_path / "spaced.design")
    save_design(spaced, json_path)
    assert load_design(json_path) == spaced


def test_load_design_or_resolution_reads_either_flavor(tmp_path):
    design = sample_design()
    _, res = round_robin_one_factorization(4)
    for suffix in (".txt", ".json"):
        save_design(design, tmp_path / f"d{suffix}")
        save_resolution(res, tmp_path / f"r{suffix}")
        assert load_design_or_resolution(tmp_path / f"d{suffix}") == (design, None)
        assert load_design_or_resolution(tmp_path / f"r{suffix}") == (res.design, res)

    data = resolution_to_dict(res)
    data["classes"] = 5  # malformed classes are an error in every loader
    (tmp_path / "bad.json").write_text(json.dumps(data))
    for load in (load_design, load_resolution, load_design_or_resolution):
        with pytest.raises(FormatError, match="bad resolution object"):
            load(tmp_path / "bad.json")

    (tmp_path / "bad.json").write_text("{")
    for load in (load_design, load_resolution, load_design_or_resolution):
        with pytest.raises(FormatError, match="bad JSON"):
            load(tmp_path / "bad.json")

    data["b"] = 99  # a bad design raises as load_design does
    (tmp_path / "bad.json").write_text(json.dumps(data))
    with pytest.raises(FormatError, match="declares b=99"):
        load_design_or_resolution(tmp_path / "bad.json")
    (tmp_path / "bad.txt").write_text("design v=4 k=2 b=1\nclass 0\n0 1\n2 3\n")
    with pytest.raises(FormatError, match="declares b=1"):
        load_design_or_resolution(tmp_path / "bad.txt")


def test_values_must_be_integers():
    # int() would truncate a float, overflow on Infinity and accept a bool;
    # str.isdigit() accepts a superscript digit that int() refuses.
    data = design_to_dict(sample_design())
    for key, value in [("v", float("inf")), ("k", 2.0), ("b", True)]:
        with pytest.raises(FormatError, match="not an integer"):
            design_from_dict({**data, key: value})
    with pytest.raises(FormatError, match="not an integer"):
        design_from_dict({**data, "blocks": [[0, 1.9]]})
    with pytest.raises(FormatError, match="not an integer"):
        resolution_from_dict({**data, "classes": [[0.7, 1.2]]})
    with pytest.raises(FormatError, match="expected 'class <index>'"):
        parse_resolution("design v=4 k=2 b=2\nclass \u00b2\n0 1\n2 3\n")
    # In text, int() alone would take an underscore, a sign or an Arabic-Indic
    # digit, and would raise a bare ValueError past 4300 digits.
    for token in ["1_0", "+4", "\u0663", "-1", "0" * 5000]:
        for text, message in [
            (f"design v={token} k=2 b=1\n0 1\n", "is not an integer"),
            (f"design v=4 k=2 b=1\nlabel {token} a\n0 1\n", "bad label index"),
            (f"design v=4 k=2 b=1\n0 {token}\n", "bad block line"),
            (f"design v=4 k=2 b=1\nclass {token}\n0 1\n", "expected 'class <index>'"),
        ]:
            with pytest.raises(FormatError, match=message):
                parse_resolution(text)
    with pytest.raises(FormatError, match="bad block line"):
        parse_design("design v=10 k=2 b=1\n\u0663 +4\n")


# Block runs that are not written as `dumps` writes them, with what the
# line-by-line parser made of them: the blocks, or the error it raised.
# Every other line of these files is the form dumps writes.
RUN_HEADER = "design v=6 k=3 b=2\n"
IRREGULAR_RUNS = {
    "tabs": (RUN_HEADER + "0\t1 2\n3 4\t5\n", ((0, 1, 2), (3, 4, 5))),
    "double spaces": (RUN_HEADER + "0 1  2\n3 4 5\n", ((0, 1, 2), (3, 4, 5))),
    "unit separator": (RUN_HEADER + "0\x1f1 2\n3 4 5\n", ((0, 1, 2), (3, 4, 5))),
    "trailing whitespace": (RUN_HEADER + "0 1 2 \t \n3 4 5   \n", ((0, 1, 2), (3, 4, 5))),
    "carriage returns": (RUN_HEADER.replace("\n", "\r\n") + "0 1 2\r\n3 4 5\r\n",
                         ((0, 1, 2), (3, 4, 5))),
    "hash inside a run": (RUN_HEADER + "0 1 2 # c\n# whole\n3 4 5#x\n",
                          ((0, 1, 2), (3, 4, 5))),
    "leading zeros": (RUN_HEADER + "00 01 002\n3 4 0005\n", ((0, 1, 2), (3, 4, 5))),
    "25 digits of leading zeros": (RUN_HEADER + "0 1 2\n3 4 0000000000000000000000005\n",
                                   ((0, 1, 2), (3, 4, 5))),
    "leading zeros out of range": (
        RUN_HEADER + "0 1 2\n3 4 0006\n",
        (DesignError, "block (3, 4, 6) has points outside 0..5")),
    "25-digit point": (
        RUN_HEADER + "0 1 2\n3 4 1234567890123456789012345\n",
        (DesignError, "block (3, 4, 1234567890123456789012345) has points outside 0..5")),
    "25-digit point inside a block": (
        RUN_HEADER + "0 1 2\n3 1234567890123456789012345 5\n",
        (DesignError, "block (3, 1234567890123456789012345, 5) is not strictly increasing")),
    "20-digit point": (
        RUN_HEADER + "0 1 2\n3 4 99999999999999999999\n",
        (DesignError, "block (3, 4, 99999999999999999999) has points outside 0..5")),
    "19-digit point": (
        RUN_HEADER + "0 1 2\n3 4 9999999999999999999\n",
        (DesignError, "block (3, 4, 9999999999999999999) has points outside 0..5")),
    "5000-digit point": (
        RUN_HEADER + "0 1 2\n3 4 " + "0" * 5000 + "\n",
        (FormatError, "line 3: bad block line '3 4 " + "0" * 5000 + "'")),
    "ragged short line": (
        RUN_HEADER + "0 1 2\n3 4\n", (DesignError, "block (3, 4) has size 2, expected 3")),
    "ragged long line": (
        RUN_HEADER + "0 1 2 3\n3 4 5\n",
        (DesignError, "block (0, 1, 2, 3) has size 4, expected 3")),
    "ragged line after a bad block": (
        "design v=6 k=3 b=3\n0 2 1\n3 4\n3 4 5\n",
        (DesignError, "block (0, 2, 1) is not strictly increasing")),
    "ragged line and a wrong count": (
        "design v=6 k=3 b=3\n0 1 2\n3 4\n",
        (FormatError, "header declares b=3 but file has 2 blocks")),
    "ragged line and a bad block size": (
        "design v=6 k=99999999999999999999999 b=2\n0 1 2\n3 4\n",
        (DesignError, "block size must satisfy 2 <= k < v (k=99999999999999999999999, v=6)")),
    "bad block before a bad class line": (
        RUN_HEADER + "class 0\n0 1 x\nclass 2\n3 4 5\n",
        (FormatError, "line 3: bad block line '0 1 x'")),
    "bad class line after good blocks": (
        RUN_HEADER + "class 0\n0 1 2\nclass 2\n3 4 5\n",
        (FormatError, "line 4: expected class 1, got 2")),
    "non-ASCII digit": (
        RUN_HEADER + "0 1 2\n3 4 \u0665\n", (FormatError, "line 3: bad block line '3 4 \u0665'")),
    "sign": (RUN_HEADER + "0 1 2\n+3 4 5\n", (FormatError, "line 3: bad block line '+3 4 5'")),
    "keyword prefix": (
        RUN_HEADER + "designx 1 2\n3 4 5\n", (FormatError, "line 2: bad block line 'designx 1 2'")),
    "points out of order": (
        RUN_HEADER + "0 1 2\n3 5 4\n", (DesignError, "block (3, 5, 4) is not strictly increasing")),
    "no blocks and k = 0": (
        "design v=6 k=0 b=0\n",
        (DesignError, "block size must satisfy 2 <= k < v (k=0, v=6)")),
    "ragged line above the point limit": (
        "design v=99999999 k=3 b=2\n0 1 2\n3 4\n",
        (DesignError, "point set of 99999999 points is above the limit of 1048576")),
}


@pytest.mark.parametrize("text, expected", IRREGULAR_RUNS.values(), ids=IRREGULAR_RUNS)
def test_irregular_block_runs_read_as_line_by_line(text, expected):
    if isinstance(expected[0], tuple):
        design, _ = load_text(text)
        assert design.blocks == expected
        assert design._members.tolist() == [list(block) for block in expected]
        return
    error, message = expected
    with pytest.raises(error) as info:
        load_text(text)
    assert type(info.value) is error and str(info.value) == message


def load_text(text):
    """(design, resolution) as load_design_or_resolution reads a text file."""
    return parse_resolution(text) if "class " in text else (parse_design(text), None)


# --- properties ---------------------------------------------------------------

# Fixed and bounded so that the suite stays deterministic and quick.
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

# Labels the text format can hold: no whitespace, control characters or '#'.
LABELS = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
    min_size=1, max_size=3,
)


@st.composite
def designs(draw):
    """Small designs, some labelled, with repeated blocks likely."""
    v = draw(st.integers(3, 7))
    k = draw(st.integers(2, v - 1))
    pool = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=k, max_size=k),
                         min_size=1, max_size=3))
    blocks = draw(st.lists(st.sampled_from(pool), max_size=8))
    labels = draw(st.none() | st.lists(LABELS, min_size=v, max_size=v, unique=True))
    return make_design(v, blocks, labels=labels, k=k)


@st.composite
def resolutions(draw):
    """Resolutions as the text format writes them: consecutive runs of the
    block list, at least one class, empty classes allowed."""
    design = draw(designs())
    b = len(design.blocks)
    cuts = sorted(draw(st.lists(st.integers(0, b), max_size=4)))
    bounds = [0] + cuts + [b]
    classes = tuple(
        ParallelClass(tuple(range(lo, hi))) for lo, hi in zip(bounds, bounds[1:])
    )
    return Resolution(design, classes)


def _via_json(data):
    return json.loads(json.dumps(data))


@PROPERTY_SETTINGS
@given(designs())
def test_design_round_trips(design):
    assert parse_design(format_design(design)) == design
    assert design_from_dict(_via_json(design_to_dict(design))) == design


@PROPERTY_SETTINGS
@given(resolutions())
def test_resolution_round_trips(res):
    assert parse_resolution(format_resolution(res)) == (res.design, res)
    assert resolution_from_dict(_via_json(resolution_to_dict(res))) == (res.design, res)


# Inputs near the grammar reach past the header checks more often than
# arbitrary ones.  Numbers stay small: a labelled header with a huge v
# allocates v labels.
SMALL = st.integers(-1, 6)
HEADER = st.builds("design v={} k={} b={}".format, SMALL, SMALL, SMALL)
LINES = st.one_of(
    st.text(max_size=12),
    st.builds("{}={}".format, st.sampled_from("vkbx"), SMALL).map("design ".__add__),
    st.builds("label {} {}".format, SMALL, LABELS),
    st.builds("class {}".format, SMALL | st.text(max_size=2)),
    st.lists(SMALL.map(str), min_size=1, max_size=4).map(" ".join),
)
TEXTS = st.text() | st.builds(
    lambda head, rest: "\n".join([head, *rest]),
    HEADER, st.lists(LINES, max_size=8),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
SMALL_LISTS = st.lists(st.lists(SMALL, max_size=4), max_size=4)
JSON_OBJECTS = st.fixed_dictionaries(
    {"v": SMALL | JSON_VALUES, "k": SMALL | JSON_VALUES,
     "blocks": SMALL_LISTS | JSON_VALUES},
    optional={"b": SMALL | JSON_VALUES, "labels": st.lists(LABELS) | JSON_VALUES,
              "classes": SMALL_LISTS | JSON_VALUES},
)


@st.composite
def block_runs(draw):
    """(v, k, lines): block lines, mostly increasing points in range,
    some with another separator, outer spaces, a comment, a leading zero,
    a long or foreign token or one token fewer, and some blank lines."""
    v = draw(st.integers(3, 12))
    k = draw(st.integers(2, min(4, v - 1)))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        points = sorted(draw(st.sets(st.integers(0, v - 1), min_size=k, max_size=k)))
        tokens = [str(p) for p in points]
        if draw(st.booleans()):
            i = draw(st.integers(0, k - 1))
            tokens[i] = draw(st.sampled_from(
                ["007", "0" * 25 + "1", "9" * 20, "1" * 19, "x", "+1", "\u0663", "12", ""]
            ))
        tokens = [token for token in tokens if token]
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(st.sampled_from([" ", " ", " ", "  ", "\t", "\x1f"])) + token
        line = (draw(st.sampled_from(["", " ", "\t"])) + line
                + draw(st.sampled_from(["", "", "  ", " # c", "#"])))
        lines.append(line)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# note", "   "])))
    return v, k, lines


def _outcome(build):
    try:
        return build()
    except (FormatError, DesignError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(block_runs())
def test_block_lines_read_as_the_line_by_line_oracle(case):
    v, k, lines = case
    blocks, message = naive_block_lines(lines, first_lineno=2)
    b = len(blocks) if blocks is not None else len(lines)
    text = "\n".join([f"design v={v} k={k} b={b}", *lines]) + "\n"
    if message is not None:
        expected = (FormatError, message)
    else:
        expected = _outcome(lambda: Design(PointSet(v), blocks, k))
    assert _outcome(lambda: parse_design(text)) == expected


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _loads_or_refuses(path):
    try:
        design, res = load_design_or_resolution(path)
    except (FormatError, DesignError):
        return
    assert isinstance(design, Design)
    assert res is None or res.design is design


@PROPERTY_SETTINGS
@given(st.binary() | TEXTS.map(str.encode))
def test_text_input_loads_or_raises_format_errors(scratch, data):
    path = scratch / "fuzz.design"
    path.write_bytes(data)
    _loads_or_refuses(path)


@PROPERTY_SETTINGS
@given(JSON_VALUES | JSON_OBJECTS)
def test_json_input_loads_or_raises_format_errors(scratch, value):
    path = scratch / "fuzz.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    _loads_or_refuses(path)
