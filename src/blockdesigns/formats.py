"""Line-oriented design/resolution exchange format plus a JSON equivalent.

Design files::

    # comment
    design v=24 k=6 b=92
    label 23 inf
    0 1 7 15 20 23
    ...

One block per line as ascending 0-based point indices.  Resolution files
add ``class <i>`` separator lines; the blocks that follow a separator
belong to that class, and the design's block order is the file order.
``#`` starts a comment anywhere on a line, and every number is ASCII
digits.  The JSON form carries the same content as a key/value tree; a
``"classes"`` key that is present must hold a resolution.  Paths ending
in ``.json`` are JSON and all others text: ``load_design_or_resolution``
makes that choice for every loader, ``dumps`` for every writer.  No file
may declare more than ``core.MAX_POINTS`` points.

The text parser reads the header, label and class lines one by one and
the block lines all at once, as one array of points (``_read_points``);
a block line is looked at on its own only when the bulk check finds it
is not written the way ``dumps`` writes it.  ``dumps`` writes each point
through a table of point names built once per file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Design, PointSet
from .resolution import ParallelClass, Resolution

__all__ = [
    "FormatError",
    "design_from_dict",
    "design_to_dict",
    "dumps",
    "format_design",
    "format_resolution",
    "load_design",
    "load_design_or_resolution",
    "load_resolution",
    "parse_design",
    "parse_resolution",
    "resolution_from_dict",
    "resolution_to_dict",
    "save_design",
    "save_resolution",
]


class FormatError(ValueError):
    pass


def dumps(design: Design, res: Resolution | None, as_json: bool) -> str:
    """The file text, JSON or not, of the resolution, or of the design when
    res is None."""
    if as_json:
        data = resolution_to_dict(res) if res is not None else design_to_dict(design)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    # A plain design is one run of all its blocks, with no class line.
    runs = ([cls.block_refs for cls in res.classes] if res is not None
            else [range(len(design.blocks))])
    lines = [f"design v={design.points.size} k={design.k} b={sum(map(len, runs))}"]
    for i, label in enumerate(design.points.labels or ()):
        if not label or any(ch.isspace() for ch in label) or "#" in label:
            raise FormatError(f"label {label!r} cannot be written to the text format")
        lines.append(f"label {i} {label}")
    # The name of every point up to the largest in a block, the last of
    # its (increasing) block.
    top = max((block[-1] for block in design.blocks), default=-1)
    name = list(map(str, range(top + 1))).__getitem__
    for ci, refs in enumerate(runs):
        if res is not None:
            lines.append(f"class {ci}")
        lines.extend(" ".join(map(name, design.blocks[ref])) for ref in refs)
    return "\n".join(lines) + "\n"


def format_design(design: Design) -> str:
    return dumps(design, None, as_json=False)


def format_resolution(res: Resolution) -> str:
    return dumps(res.design, res, as_json=False)


def _int(token: str) -> int:
    """int(token) for ASCII digits only (int() alone also takes '1_0', '+4'
    and '٣'); ValueError otherwise, as from int() past 4300 digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not ASCII digits")
    return int(token)


def _parse_lines(text: str):
    """(design, resolution-or-None) from format text."""
    header = None
    labels: dict[int, str] = {}
    lines: list[str] = []  # the block lines, without comments and outer spaces
    linenos: list[int] = []
    class_breaks: list[int] = []  # block index where each class starts
    expected_class = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            keyword = line.split(None, 1)[0]
            if keyword == "design":
                if header is not None:
                    raise FormatError(f"line {lineno}: duplicate design header")
                fields = {}
                for token in line.split()[1:]:
                    if "=" not in token:
                        raise FormatError(f"line {lineno}: bad header field {token!r}")
                    key, _, value = token.partition("=")
                    try:
                        fields[key] = _int(value)
                    except ValueError:
                        raise FormatError(
                            f"line {lineno}: header field {token!r} is not an integer"
                        ) from None
                missing = {"v", "k", "b"} - fields.keys()
                if missing:
                    raise FormatError(
                        f"line {lineno}: header missing {sorted(missing)}"
                    )
                header = fields
            elif keyword == "label":
                if header is None:
                    raise FormatError(f"line {lineno}: label before design header")
                tokens = line.split()
                if len(tokens) != 3:
                    raise FormatError(f"line {lineno}: expected 'label <index> <name>'")
                try:
                    index = _int(tokens[1])
                except ValueError:
                    raise FormatError(
                        f"line {lineno}: bad label index {tokens[1]!r}"
                    ) from None
                if not 0 <= index < header["v"]:
                    raise FormatError(f"line {lineno}: label index {index} out of range")
                labels[index] = tokens[2]
            elif keyword == "class":
                if header is None:
                    raise FormatError(f"line {lineno}: class before design header")
                tokens = line.split()
                try:
                    (index,) = map(_int, tokens[1:])  # one index, else ValueError
                except ValueError:
                    raise FormatError(f"line {lineno}: expected 'class <index>'") from None
                if index != expected_class:
                    raise FormatError(
                        f"line {lineno}: expected class {expected_class}, got {tokens[1]}"
                    )
                if lines and not class_breaks:
                    raise FormatError(
                        f"line {lineno}: blocks appear before the first class line"
                    )
                class_breaks.append(len(lines))
                expected_class += 1
            else:
                if header is None:
                    raise FormatError(f"line {lineno}: block before design header")
                lines.append(line)
                linenos.append(lineno)
    except FormatError:
        _read_points(lines, linenos)  # a bad block line above comes first
        raise
    points, widths = _read_points(lines, linenos)
    if header is None:
        raise FormatError("no design header found")
    if len(lines) != header["b"]:
        raise FormatError(
            f"header declares b={header['b']} but file has {len(lines)} blocks"
        )
    v, k = header["v"], header["k"]
    point_set = PointSet(v)  # bounds v before v labels are built
    if labels:
        point_set = PointSet(v, tuple(labels.get(i, str(i)) for i in range(v)))
    if len(lines) and (widths == k).all():
        design = Design._from_members(point_set, points.reshape(len(lines), k))
    else:
        # No blocks, or blocks of another size than k, which are not an
        # array: the tuple check names the first of them.
        ends = np.cumsum(widths)
        blocks = tuple(
            tuple(points[lo:hi].tolist()) for lo, hi in zip(ends - widths, ends)
        )
        design = Design(points=point_set, blocks=blocks, k=k)
    if not class_breaks:
        return design, None
    bounds = class_breaks + [len(lines)]
    return design, Resolution(design, tuple(
        ParallelClass(tuple(range(lo, hi))) for lo, hi in zip(bounds, bounds[1:])))


# Most digits of a point read in bulk: int64 holds every such number.
_BULK_DIGITS = 18


def _read_points(lines: list[str], linenos: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(points, widths): the points of the block lines in file order as
    one exact array, and the number of points on each line.

    The lines are read with one check and one numpy conversion when they
    are written as dumps writes them: runs of at most _BULK_DIGITS ASCII
    digits split by single spaces.  Only the lines that are not are read
    one by one: the first that is not ASCII digits split by whitespace
    raises FormatError, and the rest are rewritten with single spaces.
    A point that still has more than _BULK_DIGITS digits lies outside
    every point set; the points are then kept as Python ints, in an
    object array, for the error that names its block.
    """
    text = "\n".join(lines)
    widths, irregular = _layout(text)
    if irregular.size:
        lines = list(lines)
        for i in irregular.tolist():
            lines[i] = " ".join(map(str, _block_line(lines[i], linenos[i])))
        text = "\n".join(lines)
        widths, irregular = _layout(text)
        if irregular.size:  # a point of more than _BULK_DIGITS digits
            return np.array(list(map(int, text.split())), dtype=object), widths
    return np.fromstring(text, dtype=np.int64, sep=" "), widths


def _layout(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(widths, irregular) for the lines of text, none empty and none
    with outer spaces: the number of space-split tokens on each line, and
    the indices of the lines holding a byte other than a digit, a single
    space or the line break, or a run of more than _BULK_DIGITS digits."""
    if not text:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    data = np.frombuffer(text.encode("utf-8", "replace"), dtype=np.uint8)
    # The break after each run of digits: every non-digit (bytes below
    # "0" wrap around past 9), then the end.
    ends = np.flatnonzero(np.append(data - 48 > 9, True))
    kinds = data[ends[:-1]]
    newline = kinds == 10
    gaps = np.diff(ends, prepend=-1)  # one more than the digits of each run
    flagged = np.concatenate((
        ends[:-1][(kinds != 32) & ~newline],
        ends[(gaps == 1) | (gaps > _BULK_DIGITS + 1)],
    ))
    widths = np.diff(np.flatnonzero(newline), prepend=-1, append=len(kinds))
    if not flagged.size:
        return widths, flagged
    # A flagged byte lies on the line of the first line break at or after it.
    return widths, np.unique(np.searchsorted(ends[:-1][newline], flagged))


def _block_line(line: str, lineno: int) -> tuple[int, ...]:
    """The points of one block line: ASCII digits split by whitespace."""
    tokens = line.split()
    try:
        # One check per line: the tokens hold no whitespace.
        if not (line.isascii() and "".join(tokens).isdigit()):
            raise ValueError(line)
        return tuple(map(int, tokens))  # ValueError past 4300 digits
    except ValueError:
        raise FormatError(f"line {lineno}: bad block line {line!r}") from None


def _design_only(design: Design, res: Resolution | None) -> Design:
    if res is not None:
        raise FormatError("file contains class lines; use parse_resolution")
    return design


def _resolution_only(
    design: Design, res: Resolution | None
) -> tuple[Design, Resolution]:
    if res is None:
        raise FormatError("file has no class lines; use parse_design")
    return design, res


def parse_design(text: str) -> Design:
    return _design_only(*_parse_lines(text))


def parse_resolution(text: str) -> tuple[Design, Resolution]:
    return _resolution_only(*_parse_lines(text))


def design_to_dict(design: Design) -> dict:
    return {
        "v": design.points.size,
        "k": design.k,
        "b": len(design.blocks),
        "labels": list(design.points.labels) if design.points.labels else None,
        "blocks": [list(block) for block in design.blocks],
    }


def _integer(value) -> int:
    """value when it is an int; bools, floats (which int() would truncate)
    and strings raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def design_from_dict(data: dict) -> Design:
    try:
        v = _integer(data["v"])
        k = _integer(data["k"])
        blocks = tuple(tuple(_integer(p) for p in block) for block in data["blocks"])
        declared_b = _integer(data.get("b", len(blocks)))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad design object: {exc}") from exc
    if declared_b != len(blocks):
        raise FormatError(
            f"object declares b={data['b']} but has {len(blocks)} blocks"
        )
    labels = data.get("labels")
    if labels and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise FormatError(f"labels must be a list of strings, got {labels!r}")
    points = PointSet(v, tuple(labels) if labels else None)
    return Design(points=points, blocks=blocks, k=k)


def resolution_to_dict(res: Resolution) -> dict:
    data = design_to_dict(res.design)
    data["classes"] = [list(cls.block_refs) for cls in res.classes]
    return data


def resolution_from_dict(data: dict) -> tuple[Design, Resolution]:
    design = design_from_dict(data)
    try:
        classes = tuple(
            ParallelClass(tuple(_integer(ref) for ref in cls))
            for cls in data["classes"]
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad resolution object: {exc}") from exc
    return design, Resolution(design, classes)


def _is_json_path(path) -> bool:
    return Path(path).suffix.lower() == ".json"


def load_design(path) -> Design:
    return _design_only(*load_design_or_resolution(path))


def load_resolution(path) -> tuple[Design, Resolution]:
    return _resolution_only(*load_design_or_resolution(path))


def load_design_or_resolution(path) -> tuple[Design, Resolution | None]:
    """(design, resolution) from one read and parse of a file of either
    flavor, JSON when path ends in .json and text otherwise; the
    resolution is None when the file has no classes."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not text: {exc}") from None
    if not _is_json_path(path):
        return _parse_lines(text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from exc
    if isinstance(data, dict) and "classes" in data:  # must hold a resolution
        return resolution_from_dict(data)
    return design_from_dict(data), None


def save_design(design: Design, path) -> None:
    Path(path).write_text(dumps(design, None, _is_json_path(path)))


def save_resolution(res: Resolution, path) -> None:
    Path(path).write_text(dumps(res.design, res, _is_json_path(path)))
