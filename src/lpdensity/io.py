"""Ingestion and emission of the toolkit's file formats.

Point sets arrive as CSV (one point per row, optional header) or as JSON
generator descriptors; functions and systems as JSON specs.  Reports go out
as JSON with decimal floats at 17 significant digits (round-trip exact) and
sorted keys, so identical runs produce identical bytes.
"""

import csv
import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import InputError, PreconditionError
from .lpfunc import Box, ExponentPair, PiecewiseFn, canonicalize, sample_catalog_function
from .pointset import (
    Point,
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
    """spec[key], or `default` when the key is absent and a default is given."""
    if key in spec:
        return spec[key]
    if default is _REQUIRED:
        raise InputError(f"spec is missing required key {key!r}")
    return default


def _number(spec: dict, key: str, default=_REQUIRED, kind=float, what="a number"):
    """spec[key] (or `default`) converted by `kind`; a value it cannot convert
    is an input error.  `kind` is a plain converter such as float, int,
    complex or _floats, never a domain constructor: PreconditionError is a
    ValueError too, and would be reported as an input error."""
    value = _need(spec, key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{key!r} must be {what}, got {value!r}") from None


def _floats(values) -> list:
    return [float(v) for v in values]


def _float_rows(rows) -> list:
    return [_floats(row) for row in rows]


def _need_floats(spec: dict, key: str, default=_REQUIRED) -> list:
    return _number(spec, key, default, _floats, "a list of numbers")


def _need_rows(spec: dict, key: str) -> list:
    return _number(spec, key, kind=_float_rows, what="a list of rows of numbers")


# ---------------------------------------------------------------------------
# point sets


def ingest_points(source, fmt: Optional[str] = None, base_dir: Optional[Path] = None) -> PointSet:
    """Read a point set from a CSV/JSON file or an inline descriptor dict."""
    if isinstance(source, dict):
        return point_set_from_spec(source, base_dir=base_dir)
    path = _resolve(source, base_dir)
    kind = fmt or ("csv" if path.suffix.lower() == ".csv" else "json")
    if kind == "csv":
        return _points_from_csv(path)
    try:
        spec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read point-set file {path}: {exc}") from exc
    return point_set_from_spec(spec, base_dir=path.parent)


def _points_from_csv(path: Path) -> PointSet:
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
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


def point_set_from_spec(spec: dict, base_dir: Optional[Path] = None) -> PointSet:
    """Build a PointSet from a JSON descriptor.

    Kinds: "lattice" {spacing|basis, window, dimension, offset}, "reciprocal"
    {N}, "union" {children: [{label, points}]}, "explicit" {rows}; or
    {"path": file} to defer to another file.
    """
    if "path" in spec:
        return ingest_points(spec["path"], base_dir=base_dir)
    kind = spec.get("kind")
    try:
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
                _number(spec, "spacing"), window, _number(spec, "dimension", 1, int), offset=offset
            )
        if kind == "reciprocal":
            return make_reciprocal(_number(spec, "N" if "N" in spec else "count", kind=int))
        if kind == "union":
            children = spec["children"] if "children" in spec else spec["members"]
            members = [
                (m.get("label", f"part-{i}"), point_set_from_spec(m["points"], base_dir))
                for i, m in enumerate(children)
            ]
            return union_point_sets(members)
        if kind == "explicit":
            return PointSet(_need_rows(spec, "rows"))
    except KeyError as exc:
        raise InputError(f"point-set spec is missing key {exc}") from exc
    raise InputError(f"unknown point-set kind {kind!r}")


def points_to_csv(s: PointSet, path: Union[str, Path]) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in s.as_array.tolist():
            writer.writerow([format(c, ".17g") for c in row])


def point_set_spec(s: PointSet) -> dict:
    """Explicit-rows descriptor that round-trips through point_set_from_spec."""
    return {"kind": "explicit", "rows": s.as_array.tolist()}


# ---------------------------------------------------------------------------
# functions


def ingest_function(source, base_dir: Optional[Path] = None) -> PiecewiseFn:
    """Read a piecewise-constant function from a JSON file or inline spec."""
    if isinstance(source, dict):
        return function_from_spec(source, base_dir=base_dir)
    path = _resolve(source, base_dir)
    try:
        spec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read function file {path}: {exc}") from exc
    return function_from_spec(spec, base_dir=path.parent)


# the most pieces an explicit function spec may list: PiecewiseFn tests
# every pair of pieces for overlap, which takes about 2.5 s for 2048 pieces
# (2-vCPU Xeon, Python 3.11)
_PIECE_BUDGET = 1 << 11


def function_from_spec(spec: dict, base_dir: Optional[Path] = None) -> PiecewiseFn:
    if "path" in spec:
        return ingest_function(spec["path"], base_dir=base_dir)
    kind = spec.get("kind")
    try:
        if kind == "indicator":
            if "cube" in spec:
                box = _cube_spec_box(spec["cube"])
            else:
                b = spec["box"]
                box = Box(tuple(_need_floats(b, "lower")), tuple(_need_floats(b, "upper")))
            return PiecewiseFn(((box, _number(spec, "value", 1.0, complex)),), box.dim)
        if kind == "sampled":
            sup = spec["support"]
            support = Box(tuple(_need_floats(sup, "lower")), tuple(_need_floats(sup, "upper")))
            fn, _err = sample_catalog_function(
                spec["expression"], _number(spec, "step"), support, _number(spec, "p", 2.0)
            )
            return fn
        if kind is None and "pieces" in spec:
            dim = _number(spec, "dimension", kind=int)
            pieces = spec["pieces"]
            if not isinstance(pieces, list):
                raise InputError("'pieces' must be a list of pieces")
            if len(pieces) > _PIECE_BUDGET:
                raise PreconditionError(
                    f"{len(pieces)} pieces are over the budget of {_PIECE_BUDGET} pieces"
                )
            raw = []
            for piece in pieces:
                box = Box(tuple(_need_floats(piece, "lower")), tuple(_need_floats(piece, "upper")))
                raw.append((box, complex(_number(piece, "re", 0.0), _number(piece, "im", 0.0))))
            try:
                return PiecewiseFn(tuple(raw), dim)
            except PreconditionError:
                warnings.warn("overlapping pieces in function spec; canonicalizing")
                return canonicalize(raw, dim)
    except KeyError as exc:
        raise InputError(f"function spec is missing key {exc}") from exc
    raise InputError(f"unknown function spec kind {kind!r}")


def _cube_spec_box(c: dict) -> Box:
    return Box.cube(_need_floats(c, "center"), _number(c, "side"))


def function_spec(f: PiecewiseFn) -> dict:
    return {
        "dimension": f.dimension,
        "pieces": [
            {
                "lower": list(box.lower),
                "upper": list(box.upper),
                "re": v.real,
                "im": v.imag,
            }
            for box, v in f.pieces
        ],
    }


# ---------------------------------------------------------------------------
# systems


def ingest_system(source, base_dir: Optional[Path] = None) -> TranslateSystem:
    """Read a translate system {p, generators:[{f, gamma, label}]} from JSON."""
    if isinstance(source, dict):
        spec = source
    else:
        path = _resolve(source, base_dir)
        try:
            spec = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read system file {path}: {exc}") from exc
        base_dir = path.parent
    try:
        p = ExponentPair(_number(spec, "p"))
        gens = []
        for i, g in enumerate(spec["generators"]):
            f = function_from_spec(g["f"], base_dir) if isinstance(g["f"], dict) else ingest_function(g["f"], base_dir)
            gamma = (
                point_set_from_spec(g["gamma"], base_dir)
                if isinstance(g["gamma"], dict)
                else ingest_points(g["gamma"], base_dir=base_dir)
            )
            gens.append(Generator(f, gamma, str(g.get("label", f"gen-{i}"))))
    except KeyError as exc:
        raise InputError(f"system spec is missing key {exc}") from exc
    return TranslateSystem(tuple(gens), p)


# ---------------------------------------------------------------------------
# JSON emission


def jsonable(obj):
    """Recursively convert domain objects to plain JSON-ready structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if isinstance(obj, Point):
        return list(obj.coords)
    if isinstance(obj, Box):
        return {"lower": list(obj.lower), "upper": list(obj.upper)}
    if isinstance(obj, PiecewiseFn):
        return function_spec(obj)
    if isinstance(obj, PointSet):
        return point_set_spec(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalars
        return jsonable(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def emit_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats as decimals with 17 significant
    digits (exact double round trip); identical structures give identical bytes."""
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


def file_digest(path: Union[str, Path]) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _resolve(source, base_dir: Optional[Path]) -> Path:
    path = Path(source)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    return path
