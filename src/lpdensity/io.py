"""Ingestion and emission of the toolkit's file formats.

Site sets arrive as CSV (one point per row, optional header) or as JSON
generator descriptors; functions and systems as JSON specs.  Each may be
given inline, as {"path": file} or as a file path (see _load).  Reports go out
as JSON with decimal floats at 17 significant digits (round-trip exact) and
sorted keys, so identical runs produce identical bytes.
"""

import csv
import dataclasses
import hashlib
import json
import math
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


def _need_list(spec: dict, key: str) -> list:
    value = _need(spec, key)
    if not isinstance(value, list):
        raise InputError(f"{key!r} must be a list, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# spec references


def _load(source, base_dir: Optional[Path], what: str) -> tuple:
    """(spec, base_dir) for a spec value that is an inline object, a
    {"path": ...} reference or a path string.

    A path is read relative to `base_dir`, and the references in the file it
    names relative to that file's directory, which comes back as the new
    base_dir.  A point-set path ending in .csv comes back as the path
    itself.  A file that the chain of references reaches twice is refused.
    """
    seen = set()
    while True:
        if isinstance(source, dict):
            if "path" not in source:
                return source, base_dir
            source = source["path"]
        if not isinstance(source, (str, PurePath)):
            raise InputError(f"a {what} must be an object or a path string, got {source!r}")
        path = Path(source)
        if not path.is_absolute() and base_dir is not None:
            path = Path(base_dir) / path
        if not path.exists():
            raise InputError(f"input file not found: {path}")
        real = path.resolve()
        if real in seen:
            raise InputError(f"{what} file {path} refers back to itself")
        seen.add(real)
        if what == "point set" and path.suffix.lower() == ".csv":
            return path, path.parent
        try:
            source = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read {what} file {path}: {exc}") from exc
        base_dir = path.parent


def _box_spec(b: dict) -> Box:
    return Box(_need_floats(b, "lower"), _need_floats(b, "upper"))


def _cube_spec_box(c: dict) -> Box:
    return Box.cube(_need_floats(c, "center"), _number(c, "side"))


# ---------------------------------------------------------------------------
# point sets


def ingest_points(source, base_dir: Optional[Path] = None) -> PointSet:
    """Read a point set from a CSV file (one point per row, optional header)
    or a JSON descriptor, given inline, as {"path": file} or as a path.

    Kinds: "lattice" {spacing|basis, window, dimension, offset}, "reciprocal"
    {N}, "union" {children: [{label, points}]}, "explicit" {rows}.
    """
    spec, base_dir = _load(source, base_dir, "point set")
    if isinstance(spec, Path):
        return _points_from_csv(spec)
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
            _number(spec, "spacing"), window, _number(spec, "dimension", 1, int), offset=offset
        )
    if kind == "reciprocal":
        return make_reciprocal(_number(spec, "N" if "N" in spec else "count", kind=int))
    if kind == "union":
        members = []
        for i, m in enumerate(_need_list(spec, "children" if "children" in spec else "members")):
            points = ingest_points(_need(m, "points"), base_dir)
            members.append((m.get("label", f"part-{i}"), points))
        return union_point_sets(members)
    if kind == "explicit":
        return PointSet(_need_rows(spec, "rows"))
    raise InputError(f"unknown point-set kind {kind!r}")


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


def points_to_csv(s: PointSet, path: Union[str, Path]) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in s.as_array.tolist():
            writer.writerow([format(c, ".17g") for c in row])


def point_set_spec(s: PointSet) -> dict:
    """Explicit-rows descriptor that round-trips through ingest_points."""
    return {"kind": "explicit", "rows": s.as_array.tolist()}


# ---------------------------------------------------------------------------
# functions

# the most pieces an explicit function spec may list: PiecewiseFn tests
# every pair of pieces for overlap, which takes about 2.5 s for 2048 pieces
# (2-vCPU Xeon, Python 3.11)
_PIECE_BUDGET = 1 << 11


def ingest_function(source, base_dir: Optional[Path] = None) -> PiecewiseFn:
    """Read a piecewise-constant function from a JSON spec, given inline, as
    {"path": file} or as a path."""
    spec, _ = _load(source, base_dir, "function")
    kind = spec.get("kind")
    if kind == "indicator":
        box = _cube_spec_box(spec["cube"]) if "cube" in spec else _box_spec(_need(spec, "box"))
        return PiecewiseFn(((box, _number(spec, "value", 1.0, complex)),), box.dim)
    if kind == "sampled":
        fn, _err = sample_catalog_function(
            _need(spec, "expression"),
            _number(spec, "step"),
            _box_spec(_need(spec, "support")),
            _number(spec, "p", 2.0),
        )
        return fn
    if kind is None and "pieces" in spec:
        dim = _number(spec, "dimension", kind=int)
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
            warnings.warn("overlapping pieces in function spec; canonicalizing")
            return canonicalize(raw, dim)
    raise InputError(f"unknown function spec kind {kind!r}")


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
    """Read a translate system {p, generators: [{f, gamma, label}]} given
    inline, as {"path": file} or as a path."""
    spec, base_dir = _load(source, base_dir, "system")
    p = ExponentPair(_number(spec, "p"))
    gens = []
    for i, g in enumerate(_need_list(spec, "generators")):
        f = ingest_function(_need(g, "f"), base_dir)
        gamma = ingest_points(_need(g, "gamma"), base_dir)
        gens.append(Generator(f, gamma, str(g.get("label", f"gen-{i}"))))
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
