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
makes that choice for every loader, ``dumps`` for every writer.  Files
are UTF-8, and a byte-order mark that starts one is skipped.  No file may
declare more than ``core.MAX_POINTS`` points.

Text is read as bytes first (``_parse_bytes``): numpy finds the line
ends, the few lines that do not start with a digit (header, label,
class, comment and blank lines) are read one by one by ``_Lines``, and
the block lines are checked and converted with no Python step per line,
in slices of at most ``_TEXT_BYTES`` bytes (or one line), into one b x k
array of points.  A slice is read when it holds only digits, single
spaces and line breaks, k runs of at most 18 digits a line, and points
below v; that path raises no error of its own.  Any file it cannot read
exactly as the line-by-line parser (``_parse_lines``) does, such as one
with other whitespace, comments on block lines, other line breaks,
non-ASCII bytes or any error, is read by that parser, which reads the
header, label and class lines with the same ``_Lines`` and the block
lines all at once (``_read_points``), looking at a block line on its own
only when the bulk check finds it irregular; its errors name the line.

``dumps`` and the savers share one generator of the file's bytes
(``_text_parts``); the savers write each part as it is made, so a large
file is never held whole.  The block lines are made a slice of rows at a
time from one byte table of point names (``_point_names``), with no
Python step per point: each slice gathers its rows' names at once, ends
each row with a line break and drops the names' NUL padding.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .core import Design, DesignError, PointSet
from .resolution import ParallelClass, Resolution

__all__ = [
    "FormatError",
    "design_from_dict",
    "design_to_dict",
    "dumps",
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


# Bytes of point names that dumps gathers, and of block lines that
# _parse_bytes checks and converts, at a time: a slice stays this size (or
# one line) whatever k is.
_TEXT_BYTES = 1 << 18


def dumps(design: Design, res: Resolution | None, as_json: bool) -> str:
    """The file text, JSON or not, of the resolution, or of the design when
    res is None."""
    if as_json:
        data = resolution_to_dict(res) if res is not None else design_to_dict(design)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return b"".join(_text_parts(design, res)).decode("utf-8")


def _text_parts(design: Design, res: Resolution | None) -> Iterator[bytes]:
    """The text file of the resolution, or of the design when res is None,
    as UTF-8 bytes in parts: first the header and label lines, then the
    block and class lines, made one slice of block rows at a time.  The
    labels are checked when the first part is made."""
    members = design._members
    # The block rows in file order, and the row each class line goes
    # before: a plain design has all its rows and no class line.
    classes = [cls.block_refs for cls in res.classes] if res is not None else []
    order = (np.fromiter(itertools.chain.from_iterable(classes), dtype=np.intp)
             if res is not None else np.arange(len(members)))
    starts = np.cumsum([0, *map(len, classes)])[:-1].tolist()
    head = [f"design v={design.points.size} k={design.k} b={len(order)}\n"]
    for i, label in enumerate(design.points.labels or ()):
        if not label or any(ch.isspace() for ch in label) or "#" in label:
            raise FormatError(f"label {label!r} cannot be written to the text format")
        head.append(f"label {i} {label}\n")
    yield "".join(head).encode("utf-8")
    # Every point up to the largest in a block, the last of its
    # (increasing) block.
    names = _point_names(int(members[:, -1].max()) if len(members) else 0)
    step = max(1, _TEXT_BYTES // names[0].nbytes // design.k)
    ci = 0  # the next class line
    for lo in range(0, len(order), step):
        rows = np.take(names, members[order[lo : lo + step]], axis=0)
        rows = rows.reshape(len(rows), -1)
        rows[:, -1] = ord("\n")  # the separator after each row's last point
        text = rows.tobytes().replace(b"\0", b"")
        hi = lo + len(rows)
        if ci < len(starts) and starts[ci] < hi:
            # Where each row of the slice starts in text, and so each
            # class line of the slice goes.
            offsets = [0, *np.cumsum(np.count_nonzero(rows, axis=1)).tolist()]
            at = 0
            while ci < len(starts) and starts[ci] < hi:
                cut = offsets[starts[ci] - lo]
                yield text[at:cut]
                yield b"class %d\n" % ci
                at, ci = cut, ci + 1
            text = text[at:]
        yield text
    for i in range(ci, len(starts)):
        yield b"class %d\n" % i


def _point_names(top: int) -> np.ndarray:
    """The names of the points 0..top as rows of bytes: the decimal digits
    of p right-aligned behind NUL bytes, in as many bytes as top has
    digits, then a space."""
    width = len(str(top))
    names = np.zeros((top + 1, width + 1), dtype=np.uint8)
    names[:, width] = ord(" ")
    points = np.arange(top + 1)
    for col in range(width):
        place = 10 ** (width - 1 - col)
        lo = place if place > 1 else 0  # the points with a digit at place
        names[lo:, col] = points[lo:] // place % 10 + ord("0")
    return names


def _int(token: str) -> int:
    """int(token) for ASCII digits only (int() alone also takes '1_0', '+4'
    and '٣'); ValueError otherwise, as from int() past 4300 digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not ASCII digits")
    return int(token)


class _Lines:
    """The header, label and class lines of a text file, read one at a
    time by both parsers, and what they declare."""

    def __init__(self) -> None:
        self.header: dict[str, int] | None = None
        self.labels: dict[int, str] = {}
        self.class_breaks: list[int] = []  # block index where each class starts

    def read(self, lineno: int, raw: str, blocks: int) -> str | None:
        """Read line lineno, raw as str.splitlines gives it, below `blocks`
        block lines: None for a blank, comment, header, label or class
        line, else the block line without its comment and outer spaces."""
        line = raw.split("#", 1)[0].strip()
        if not line:
            return None
        keyword = line.split(None, 1)[0]
        if keyword == "design":
            if self.header is not None:
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
                raise FormatError(f"line {lineno}: header missing {sorted(missing)}")
            self.header = fields
        elif keyword == "label":
            if self.header is None:
                raise FormatError(f"line {lineno}: label before design header")
            tokens = line.split()
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: expected 'label <index> <name>'")
            try:
                index = _int(tokens[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad label index {tokens[1]!r}") from None
            if not 0 <= index < self.header["v"]:
                raise FormatError(f"line {lineno}: label index {index} out of range")
            self.labels[index] = tokens[2]
        elif keyword == "class":
            if self.header is None:
                raise FormatError(f"line {lineno}: class before design header")
            tokens = line.split()
            try:
                (index,) = map(_int, tokens[1:])  # one index, else ValueError
            except ValueError:
                raise FormatError(f"line {lineno}: expected 'class <index>'") from None
            if index != len(self.class_breaks):
                raise FormatError(
                    f"line {lineno}: expected class {len(self.class_breaks)}, "
                    f"got {tokens[1]}"
                )
            if blocks and not self.class_breaks:
                raise FormatError(
                    f"line {lineno}: blocks appear before the first class line"
                )
            self.class_breaks.append(blocks)
        else:
            if self.header is None:
                raise FormatError(f"line {lineno}: block before design header")
            return line
        return None

    def point_set(self, b: int) -> PointSet:
        """The point set the header declares, for a file of b block lines."""
        if self.header is None:
            raise FormatError("no design header found")
        if b != self.header["b"]:
            raise FormatError(f"header declares b={self.header['b']} but file has {b} blocks")
        v = self.header["v"]
        point_set = PointSet(v)  # bounds v before v labels are built
        if self.labels:
            point_set = PointSet(v, tuple(self.labels.get(i, str(i)) for i in range(v)))
        return point_set

    def result(self, design: Design) -> tuple[Design, Resolution | None]:
        """(design, its resolution into the classes read, or None)."""
        if not self.class_breaks:
            return design, None
        bounds = self.class_breaks + [len(design._members)]
        return design, Resolution(design, tuple(
            ParallelClass(tuple(range(lo, hi))) for lo, hi in zip(bounds, bounds[1:])))


def _parse_text(text: str):
    """(design, resolution-or-None) from format text: by the byte path
    when the text is ASCII and the byte path reads it, else line by line."""
    parsed = _parse_bytes(text.encode("ascii")) if text.isascii() else None
    return parsed if parsed is not None else _parse_lines(text)


# The bytes of the block lines dumps writes, and the ASCII line breaks of
# str.splitlines other than "\n".
_BLOCK_BYTES = b"0123456789 \n"
_OTHER_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"


def _parse_bytes(data: bytes):
    """(design, resolution-or-None) from format text as bytes, as
    _parse_lines reads data.decode(), or None when this path cannot read
    data exactly so; it raises no error of its own.

    The line ends are found with numpy.  The lines that do not start with
    a digit (header, label, class, comment and blank lines) are read one
    by one by _Lines; the block lines are checked and converted in slices
    of at most _TEXT_BYTES bytes (or one line), with no Python step per
    line.  It declines data that is not ASCII, does not end with "\n" or
    holds another line break, a block line not written as dumps writes
    it (_block_slice), any header, label or class error, a wrong b, or
    blocks that are not a design's.
    """
    if not (data.isascii() and data.endswith(b"\n")):
        return None
    view = np.frombuffer(data, dtype=np.uint8)
    ends = np.concatenate([
        np.flatnonzero(view[lo : lo + _TEXT_BYTES] == ord("\n")) + lo
        for lo in range(0, len(data), _TEXT_BYTES)
    ])
    starts = np.concatenate(([0], ends[:-1] + 1))
    is_block = view[starts] - ord("0") < 10  # bytes below "0" wrap past 9
    others = np.flatnonzero(~is_block)
    lines = _Lines()
    try:
        # Each other line, below `above` block lines.
        for i, above in zip(others.tolist(), (others - np.arange(len(others))).tolist()):
            raw = data[starts[i] : ends[i]]
            if (above and lines.header is None) or raw.translate(None, _OTHER_BREAKS) != raw:
                return None  # a block line before the header, or a line break
            if lines.read(i + 1, raw.decode("ascii"), above) is not None:
                return None  # a block line that does not start with a digit
        b = len(starts) - len(others)
        point_set = lines.point_set(b)
        v, k = point_set.size, lines.header["k"]
        starts, ends = starts[is_block], ends[is_block] + 1  # each block line's bytes
        # Each point of a block line takes a digit and a separator, so
        # data this short cannot hold b x k points (and must not allocate them).
        if not 2 <= k < v or 2 * b * k > int((ends - starts).sum()):
            return None
        members = np.empty((b, k), dtype=np.min_scalar_type(v - 1))
        lo = 0
        while lo < b:
            # The block lines from lo that end within _TEXT_BYTES bytes of
            # its start (at least one), joined across the other lines
            # between them.
            hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _TEXT_BYTES, "right")))
            cuts = [lo, *(np.flatnonzero(starts[lo + 1 : hi] != ends[lo : hi - 1])
                          + lo + 1).tolist(), hi]
            part = b"".join([data[starts[i] : ends[j - 1]] for i, j in zip(cuts, cuts[1:])])
            points = _block_slice(part, hi - lo, k, v)
            if points is None:
                return None
            members[lo:hi] = points.reshape(hi - lo, k)
            lo = hi
        return lines.result(Design._from_members(point_set, members))
    except (FormatError, DesignError):
        return None


def _block_slice(data: bytes, n: int, k: int, v: int) -> np.ndarray | None:
    """The points of data, n whole block lines that each start with a
    digit, in one int64 array, when each line is k runs of at most
    _BULK_DIGITS digits split by single spaces and every point is below
    v; else None."""
    if data.translate(None, _BLOCK_BYTES):
        return None
    view = np.frombuffer(data, dtype=np.uint8)
    separators = np.flatnonzero(view < ord("0"))  # the spaces and line breaks
    # data holds n line breaks, so when every k-th of n x k separators is
    # one, the others are spaces and each line holds k runs.  The first
    # run has separators[0] digits and each later one a gap less one.
    if len(separators) != n * k or separators[0] > _BULK_DIGITS:
        return None
    gaps = np.diff(separators)
    if (gaps.min() < 2 or gaps.max() > _BULK_DIGITS + 1
            or (view[separators[k - 1 :: k]] != ord("\n")).any()):
        return None
    points = np.fromstring(data, dtype=np.int64, sep=" ")
    return points if points.max() < v else None


def _parse_lines(text: str):
    """(design, resolution-or-None) from format text, read line by line."""
    lines = _Lines()
    block_lines: list[str] = []  # without comments and outer spaces
    linenos: list[int] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = lines.read(lineno, raw, len(block_lines))
            if line is not None:
                block_lines.append(line)
                linenos.append(lineno)
    except FormatError:
        _read_points(block_lines, linenos)  # a bad block line above comes first
        raise
    points, widths = _read_points(block_lines, linenos)
    b = len(block_lines)
    point_set = lines.point_set(b)
    k = lines.header["k"]
    if b and (widths == k).all():
        design = Design._from_members(point_set, points.reshape(b, k))
    else:
        # No blocks, or blocks of another size than k, which are not an
        # array: the tuple check names the first of them.
        ends = np.cumsum(widths)
        blocks = tuple(
            tuple(points[lo:hi].tolist()) for lo, hi in zip(ends - widths, ends)
        )
        design = Design(points=point_set, blocks=blocks, k=k)
    return lines.result(design)


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
    return _design_only(*_parse_text(text))


def parse_resolution(text: str) -> tuple[Design, Resolution]:
    return _resolution_only(*_parse_text(text))


def design_to_dict(design: Design) -> dict:
    return {
        "v": design.points.size,
        "k": design.k,
        "b": len(design._members),
        "labels": list(design.points.labels) if design.points.labels else None,
        "blocks": design._members.tolist(),
    }


def _integer(value) -> int:
    """value when it is an int; bools, floats (which int() would truncate)
    and strings raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _integer_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    """The blocks of a JSON object as tuples of their points, each an int;
    TypeError as from _integer for the first point that is not one, or
    from iterating what is not a list.  The points are looked at one by
    one only when the types of all of them, taken at once, are not just
    int; Design then reads the tuples into one array."""
    try:
        rows = tuple(map(tuple, blocks))
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
            return rows
    except TypeError:
        pass
    return tuple(tuple(_integer(p) for p in block) for block in blocks)


def design_from_dict(data: dict) -> Design:
    try:
        v = _integer(data["v"])
        k = _integer(data["k"])
        blocks = _integer_blocks(data["blocks"])
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
    resolution is None when the file has no classes.  The file is UTF-8,
    a leading byte-order mark skipped.  A text file is read as bytes by
    _parse_bytes, and read again as text and line by line only when that
    declines it."""
    if not _is_json_path(path):
        parsed = _parse_bytes(Path(path).read_bytes())
        if parsed is not None:
            return parsed
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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
    _save(design, None, path)


def save_resolution(res: Resolution, path) -> None:
    _save(res.design, res, path)


def _save(design: Design, res: Resolution | None, path) -> None:
    """Write the file of the resolution, or of the design when res is None:
    JSON whole, text one part at a time as _text_parts makes it."""
    if _is_json_path(path):
        Path(path).write_text(dumps(design, res, True), encoding="utf-8")
        return
    parts = _text_parts(design, res)
    head = next(parts)  # checks the labels before the file is opened
    with open(path, "wb") as file:
        file.write(head)
        file.writelines(parts)
