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
``#`` starts a comment anywhere on a line.  The JSON form carries the same
content as a key/value tree.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import Design, PointSet
from .resolution import ParallelClass, Resolution

__all__ = [
    "FormatError",
    "design_from_dict",
    "design_to_dict",
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


def _label_line(index: int, label: str) -> str:
    if not label or any(ch.isspace() for ch in label) or "#" in label:
        raise FormatError(
            f"label {label!r} cannot be written to the text format"
        )
    return f"label {index} {label}"


def format_design(design: Design) -> str:
    lines = [f"design v={design.points.size} k={design.k} b={len(design.blocks)}"]
    if design.points.labels is not None:
        for i, label in enumerate(design.points.labels):
            lines.append(_label_line(i, label))
    for block in design.blocks:
        lines.append(" ".join(str(p) for p in block))
    return "\n".join(lines) + "\n"


def format_resolution(res: Resolution) -> str:
    design = res.design
    b = sum(len(cls.block_refs) for cls in res.classes)
    lines = [f"design v={design.points.size} k={design.k} b={b}"]
    if design.points.labels is not None:
        for i, label in enumerate(design.points.labels):
            lines.append(_label_line(i, label))
    for ci, cls in enumerate(res.classes):
        lines.append(f"class {ci}")
        for ref in cls.block_refs:
            lines.append(" ".join(str(p) for p in design.blocks[ref]))
    return "\n".join(lines) + "\n"


def _parse_lines(text: str):
    """(design, classes-or-None) from format text."""
    header = None
    labels: dict[int, str] = {}
    blocks: list[tuple[int, ...]] = []
    class_breaks: list[int] = []  # block index where each class starts
    expected_class = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "design":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate design header")
            fields = {}
            for token in tokens[1:]:
                if "=" not in token:
                    raise FormatError(f"line {lineno}: bad header field {token!r}")
                key, _, value = token.partition("=")
                try:
                    fields[key] = int(value)
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
        elif tokens[0] == "label":
            if header is None:
                raise FormatError(f"line {lineno}: label before design header")
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: expected 'label <index> <name>'")
            try:
                index = int(tokens[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad label index {tokens[1]!r}") from None
            if not 0 <= index < header["v"]:
                raise FormatError(f"line {lineno}: label index {index} out of range")
            labels[index] = tokens[2]
        elif tokens[0] == "class":
            if header is None:
                raise FormatError(f"line {lineno}: class before design header")
            if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
                raise FormatError(f"line {lineno}: expected 'class <index>'")
            if int(tokens[1]) != expected_class:
                raise FormatError(
                    f"line {lineno}: expected class {expected_class}, got {tokens[1]}"
                )
            if blocks and not class_breaks:
                raise FormatError(
                    f"line {lineno}: blocks appear before the first class line"
                )
            class_breaks.append(len(blocks))
            expected_class += 1
        else:
            if header is None:
                raise FormatError(f"line {lineno}: block before design header")
            try:
                members = tuple(int(token) for token in tokens)
            except ValueError:
                raise FormatError(f"line {lineno}: bad block line {line!r}") from None
            blocks.append(members)
    if header is None:
        raise FormatError("no design header found")
    if len(blocks) != header["b"]:
        raise FormatError(
            f"header declares b={header['b']} but file has {len(blocks)} blocks"
        )
    label_tuple = None
    if labels:
        label_tuple = tuple(
            labels.get(i, str(i)) for i in range(header["v"])
        )
    design = Design(
        points=PointSet(header["v"], label_tuple),
        blocks=tuple(blocks),
        k=header["k"],
    )
    return design, class_breaks or None


def parse_design(text: str) -> Design:
    design, class_breaks = _parse_lines(text)
    if class_breaks is not None:
        raise FormatError("file contains class lines; use parse_resolution")
    return design


def _resolution_from_breaks(design: Design, class_breaks: list[int]) -> Resolution:
    breaks = class_breaks + [len(design.blocks)]
    classes = tuple(
        ParallelClass(tuple(range(breaks[i], breaks[i + 1])))
        for i in range(len(class_breaks))
    )
    return Resolution(design, classes)


def parse_resolution(text: str) -> tuple[Design, Resolution]:
    design, class_breaks = _parse_lines(text)
    if class_breaks is None:
        raise FormatError("file has no class lines; use parse_design")
    return design, _resolution_from_breaks(design, class_breaks)


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


def _classes_from_dict(data: dict) -> tuple[ParallelClass, ...]:
    try:
        return tuple(
            ParallelClass(tuple(_integer(ref) for ref in cls))
            for cls in data["classes"]
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad resolution object: {exc}") from exc


def resolution_from_dict(data: dict) -> tuple[Design, Resolution]:
    design = design_from_dict(data)
    return design, Resolution(design, _classes_from_dict(data))


def _is_json_path(path) -> bool:
    return Path(path).suffix.lower() == ".json"


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not text: {exc}") from None


def load_design(path) -> Design:
    text = _read_text(path)
    if _is_json_path(path):
        return design_from_dict(_load_json(text))
    return parse_design(text)


def load_resolution(path) -> tuple[Design, Resolution]:
    text = _read_text(path)
    if _is_json_path(path):
        return resolution_from_dict(_load_json(text))
    return parse_resolution(text)


def load_design_or_resolution(path) -> tuple[Design, Resolution | None]:
    """(design, resolution) from one read and parse of a file of either
    flavor.  The resolution is None when a text file has no class lines or
    a JSON object has no well-formed "classes" list; errors in the design
    itself raise as from load_design."""
    text = _read_text(path)
    if _is_json_path(path):
        data = _load_json(text)
        design = design_from_dict(data)
        try:
            classes = _classes_from_dict(data)
        except FormatError:
            return design, None
        return design, Resolution(design, classes)
    design, class_breaks = _parse_lines(text)
    if class_breaks is None:
        return design, None
    return design, _resolution_from_breaks(design, class_breaks)


def _load_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from exc


def save_design(design: Design, path) -> None:
    if _is_json_path(path):
        Path(path).write_text(
            json.dumps(design_to_dict(design), indent=2, sort_keys=True) + "\n"
        )
    else:
        Path(path).write_text(format_design(design))


def save_resolution(res: Resolution, path) -> None:
    if _is_json_path(path):
        Path(path).write_text(
            json.dumps(resolution_to_dict(res), indent=2, sort_keys=True) + "\n"
        )
    else:
        Path(path).write_text(format_resolution(res))
