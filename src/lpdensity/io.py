"""Ingestion and emission of the toolkit's file formats.

Site sets arrive as CSV (one point per row, optional header) or as JSON
generator descriptors; functions and systems as JSON specs.  Each may be
given inline, as {"path": file} or as a file path (see _load).  Reports go out
as JSON with decimal floats at 17 significant digits (round-trip exact) and
sorted keys, so identical runs produce identical bytes.
"""

import copy
import csv
import dataclasses
import hashlib
import json
import math
import os
import warnings
from pathlib import Path, PurePath
from typing import Optional, Union

import numpy as np

from .errors import InputError, PreconditionError
from .lpfunc import Box, ExponentPair, PiecewiseFn, canonicalize, sample_catalog_function
from .pointset import (
    PointSet,
    make_lattice,
    make_lattice_basis,
    make_reciprocal,
    union_point_sets,
)
from .translate_system import Generator, TranslateSystem

# ---------------------------------------------------------------------------
# spec fields

_REQUIRED = object()


def _need(spec: dict, key: str, default=_REQUIRED):
    """spec[key], or `default` when the key is absent and a default is given;
    a spec that is no JSON object is an input error."""
    if not isinstance(spec, dict):
        raise InputError(f"expected an object holding {key!r}, got {spec!r}")
    if key in spec:
        return spec[key]
    if default is _REQUIRED:
        raise InputError(f"spec is missing required key {key!r}")
    return default


def _number(spec: dict, key: str, default=_REQUIRED, kind=float, what="a number"):
    """spec[key] (or `default`) converted by `kind`; a value it cannot convert
    is an input error.  `kind` is a plain converter such as float, complex,
    _integer or _floats, never a domain constructor: PreconditionError is a
    ValueError too, and would be reported as an input error."""
    value = _need(spec, key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{key!r} must be {what}, got {value!r}") from None


def _integer(value) -> int:
    # a JSON integer only: int() would truncate 10.7 and read true as 1
    if type(value) is not int:
        raise TypeError(value)
    return value


def _floats(values) -> list:
    if isinstance(values, str):  # no list of its characters
        raise TypeError(values)
    return [float(v) for v in values]


def _float_rows(rows) -> list:
    return [_floats(row) for row in rows]


def _need_int(spec: dict, key: str, default=_REQUIRED) -> int:
    return _number(spec, key, default, _integer, "an integer")


def _need_floats(spec: dict, key: str, default=_REQUIRED) -> list:
    return _number(spec, key, default, _floats, "a list of numbers")


def _need_rows(spec: dict, key: str) -> list:
    return _number(spec, key, kind=_float_rows, what="a list of rows of numbers")


def _need_list(spec: dict, key: str) -> list:
    value = _need(spec, key)
    if not isinstance(value, list):
        raise InputError(f"{key!r} must be a list, got {value!r}")
    return value


def _need_object(spec: dict, key: str, default=_REQUIRED) -> dict:
    value = _need(spec, key, default)
    if not isinstance(value, dict):
        raise InputError(f"{key!r} must be an object, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# spec references


class Inputs:
    """The input files of one run.

    References resolve against `dir`, at first the spec file's directory.
    Each file that is parsed goes into `digests` as the sha256 of its bytes,
    keyed by its path relative to the spec's directory; an absolute reference
    keeps its absolute path.  `reading` holds the files whose references are
    still being read.
    """

    def __init__(self, spec_dir: Union[str, Path] = "."):
        self.spec_dir = self.dir = Path(spec_dir)
        self.digests = {}
        self.reading = frozenset()


def _load(source, inputs: Inputs, what: str) -> tuple:
    """(spec, inputs) for a spec value that is an inline object, a
    {"path": ...} reference or a path string.

    Each file is read once: its bytes are digested and then parsed.  The
    references in a file are read relative to its directory, by the reader
    that comes back as the new `inputs`.  A point-set path ending in .csv
    comes back as the PointSet it holds.  A file that refers back to one
    whose references are still being read is refused.
    """
    while True:
        if isinstance(source, dict):
            if "path" not in source:
                return source, inputs
            source = source["path"]
        if not isinstance(source, (str, PurePath)):
            raise InputError(f"a {what} must be an object or a path string, got {source!r}")
        path = inputs.dir / source
        key = str(path) if PurePath(source).is_absolute() else os.path.relpath(path, inputs.spec_dir)
        is_csv = what == "point set" and path.suffix.lower() == ".csv"
        try:
            real = path.resolve()
            data = path.read_bytes()
            source = data.decode() if is_csv else json.loads(data)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read {what} file {path}: {exc}") from exc
        if real in inputs.reading:
            raise InputError(f"{what} file {path} refers back to itself")
        inputs.digests[key] = hashlib.sha256(data).hexdigest()
        inputs = copy.copy(inputs)
        inputs.dir, inputs.reading = path.parent, inputs.reading | {real}
        if is_csv:
            return _points_from_csv(source, path), inputs


def _box_spec(b: dict) -> Box:
    return Box(_need_floats(b, "lower"), _need_floats(b, "upper"))


def _cube_spec_box(c: dict) -> Box:
    return Box.cube(_need_floats(c, "center"), _number(c, "side"))


# ---------------------------------------------------------------------------
# point sets


def ingest_points(source, inputs: Optional[Inputs] = None) -> PointSet:
    """Read a point set from a CSV file (one point per row, optional header)
    or a JSON descriptor, given inline, as {"path": file} or as a path.

    Kinds: "lattice" {spacing|basis, window, dimension, offset}, "reciprocal"
    {N}, "union" {children: [{label, points}]}, "explicit" {rows}.
    """
    spec, inputs = _load(source, inputs or Inputs(), "point set")
    if isinstance(spec, PointSet):
        return spec
    kind = spec.get("kind")
    if kind == "lattice":
        window = _number(spec, "window")
        offset = _need_floats(spec, "offset") if spec.get("offset") is not None else None
        if "basis" in spec:
            basis = _need_rows(spec, "basis")
            try:
                return make_lattice_basis(basis, window, offset=offset)
            except np.linalg.LinAlgError as exc:
                raise InputError(f"lattice basis {basis} is not invertible: {exc}") from None
        return make_lattice(
            _number(spec, "spacing"), window, _need_int(spec, "dimension", 1), offset=offset
        )
    if kind == "reciprocal":
        return make_reciprocal(_need_int(spec, "N" if "N" in spec else "count"))
    if kind == "union":
        members = []
        for i, m in enumerate(_need_list(spec, "children" if "children" in spec else "members")):
            points = ingest_points(_need(m, "points"), inputs)
            members.append((m.get("label", f"part-{i}"), points))
        return union_point_sets(members)
    if kind == "explicit":
        return PointSet(_need_rows(spec, "rows"))
    raise InputError(f"unknown point-set kind {kind!r}")


def _points_from_csv(text: str, path: Path) -> PointSet:
    rows = []
    reader = csv.reader(text.splitlines())
    for lineno, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            rows.append((lineno, tuple(float(cell) for cell in row)))
        except ValueError:
            if lineno == 1:
                continue  # header line
            raise InputError(f"{path}:{lineno}: non-numeric field in {row}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    seen = {}
    for lineno, coords in rows:
        if coords in seen:
            raise PreconditionError(
                f"{path}:{lineno}: duplicate point {list(coords)} (first at line {seen[coords]})"
            )
        seen[coords] = lineno
    return PointSet([coords for _, coords in rows])


# ---------------------------------------------------------------------------
# functions

# the most pieces an explicit function spec may list: PiecewiseFn's overlap
# test is near linear in 1-d, but bessel's scalar pair of two such functions
# takes O(n m) piece pairs, unmeasured past this size
_PIECE_BUDGET = 1 << 11


def ingest_function(source, inputs: Optional[Inputs] = None) -> PiecewiseFn:
    """Read a piecewise-constant function from a JSON spec, given inline, as
    {"path": file} or as a path."""
    spec, _ = _load(source, inputs or Inputs(), "function")
    kind = spec.get("kind")
    if kind == "indicator":
        box = _cube_spec_box(spec["cube"]) if "cube" in spec else _box_spec(_need(spec, "box"))
        return PiecewiseFn(((box, _number(spec, "value", 1.0, complex)),), box.dim)
    if kind == "sampled":
        expression = _need(spec, "expression")
        if not isinstance(expression, str):
            raise InputError(f"'expression' must be a string, got {expression!r}")
        fn, _err = sample_catalog_function(
            expression,
            _number(spec, "step"),
            _box_spec(_need(spec, "support")),
            _number(spec, "p", 2.0),
        )
        return fn
    if kind is None and "pieces" in spec:
        dim = _need_int(spec, "dimension")
        pieces = _need_list(spec, "pieces")
        if len(pieces) > _PIECE_BUDGET:
            raise PreconditionError(
                f"{len(pieces)} pieces are over the budget of {_PIECE_BUDGET} pieces"
            )
        raw = []
        for piece in pieces:
            value = complex(_number(piece, "re", 0.0), _number(piece, "im", 0.0))
            raw.append((_box_spec(piece), value))
        try:
            return PiecewiseFn(tuple(raw), dim)
        except PreconditionError:
            fn = canonicalize(raw, dim)  # refuses what is not an overlap, as PiecewiseFn does
            warnings.warn("overlapping pieces in function spec; canonicalizing")
            return fn
    raise InputError(f"unknown function spec kind {kind!r}")


# ---------------------------------------------------------------------------
# systems


def ingest_system(source, inputs: Optional[Inputs] = None) -> TranslateSystem:
    """Read a translate system {p, generators: [{f, gamma, label}]} given
    inline, as {"path": file} or as a path."""
    spec, inputs = _load(source, inputs or Inputs(), "system")
    p = ExponentPair(_number(spec, "p"))
    gens = [_generator(g, inputs, f"gen-{i}") for i, g in enumerate(_need_list(spec, "generators"))]
    return TranslateSystem(tuple(gens), p)


def _generator(spec: dict, inputs: Inputs, label: str) -> Generator:
    """A generator {f, gamma, label}, labelled `label` when it names none."""
    f = ingest_function(_need(spec, "f"), inputs)
    gamma = ingest_points(_need(spec, "gamma"), inputs)
    return Generator(f, gamma, str(spec.get("label", label)))


# ---------------------------------------------------------------------------
# JSON emission


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def emit_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats as decimals with 17 significant
    digits (exact double round trip); identical structures give identical bytes.
    Complex numbers, dataclasses and numpy scalars are written as plain JSON
    structures; no report holds a step function or a site set."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {emit_json(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, complex):
        return emit_json({"im": obj.imag, "re": obj.real}, indent)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):  # Box and reports
        return emit_json({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, indent)
    if hasattr(obj, "item"):  # numpy scalars
        return emit_json(obj.item(), indent)
    raise TypeError(f"emit_json got unsupported type {type(obj)!r}")


def write_csv(path: Union[str, Path], header, rows) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format(v, ".17g") if isinstance(v, float) else v for v in row]
            )

