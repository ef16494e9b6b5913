"""Self-contained JSON experiment documents: a group, optionally an
automorphism, shift/base sets, and computation parameters.

Parsing is strict: unknown keys are rejected, matrix entries must be JSON
integers, and every diagnostic names the offending field by path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .groups import AbelianAutomorphism, FgAbelianGroup, IntMatrix
from .reports import jsonable

if TYPE_CHECKING:  # crystal is imported only to parse a crystal document
    from .crystal import CrystalAutomorphism, CrystalGroup, PointGroup

GROUP_KINDS = ("free_abelian", "fg_abelian", "crystal")


class SpecFormatError(ValueError):
    """A document failed schema validation; `path` names the field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class ComputationParams:
    delta: Optional[float] = None
    n: Optional[int] = None
    radius: Optional[int] = None
    tol: Optional[float] = None
    cap: Optional[int] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class SpecDocument:
    kind: str
    group: Union[FgAbelianGroup, CrystalGroup]
    automorphism: Optional[Union[AbelianAutomorphism, CrystalAutomorphism]]
    omega: Optional[tuple]
    base: Optional[tuple]
    params: ComputationParams


# --- low-level checked readers ----------------------------------------------


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFormatError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SpecFormatError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(path, f"expected an integer, got {value!r}")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFormatError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = float("inf")  # an int larger than every float
    if not abs(number) < float("inf"):  # NaN fails this comparison too
        raise SpecFormatError(path, f"expected a finite number, got {number!r}")
    return number


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SpecFormatError(path, f"expected a string, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    for key in required:
        if key not in obj:
            raise SpecFormatError(path, f"missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SpecFormatError(
                f"{path}.{key}" if path else key, "unknown key"
            )


def _int_vector(value, path: str, length: int) -> tuple[int, ...]:
    items = _expect_list(value, path)
    if len(items) != length:
        raise SpecFormatError(path, f"expected {length} entries, got {len(items)}")
    return tuple(_expect_int(x, f"{path}[{i}]") for i, x in enumerate(items))


def _int_matrix(value, path: str, dim: int) -> IntMatrix:
    rows = _expect_list(value, path)
    if len(rows) != dim:
        raise SpecFormatError(path, f"expected {dim} rows, got {len(rows)}")
    return IntMatrix(tuple(
        _int_vector(row, f"{path}[{i}]", dim) for i, row in enumerate(rows)
    ))


def _unimodular(value, path: str, dim: int) -> IntMatrix:
    matrix = _int_matrix(value, path, dim)
    if not matrix.is_unimodular():
        raise SpecFormatError(path, f"determinant is {matrix.det()}, must be +/-1")
    return matrix


# --- group blocks -------------------------------------------------------------


def _parse_abelian_group(obj: dict, kind: str) -> FgAbelianGroup:
    if kind == "free_abelian":
        _check_keys(obj, "group", ("kind", "rank"))
        torsion = ()
    else:
        _check_keys(obj, "group", ("kind", "rank"), ("torsion",))
        raw = obj.get("torsion", [])
        items = _expect_list(raw, "group.torsion")
        torsion = tuple(
            _expect_int(x, f"group.torsion[{i}]") for i, x in enumerate(items)
        )
        for i, d in enumerate(torsion):
            if d < 2:
                raise SpecFormatError(f"group.torsion[{i}]", "orders must be >= 2")
    rank = _expect_int(obj["rank"], "group.rank")
    if rank < 0:
        raise SpecFormatError("group.rank", "rank must be nonnegative")
    return FgAbelianGroup(rank=rank, torsion=torsion)


def _parse_point_group(obj: dict) -> PointGroup:
    from .crystal import GroupValidationError, PointGroup

    _check_keys(obj, "group.point_group", ("elements", "table"))
    labels = tuple(
        _expect_str(x, f"group.point_group.elements[{i}]")
        for i, x in enumerate(_expect_list(obj["elements"], "group.point_group.elements"))
    )
    rows = _expect_list(obj["table"], "group.point_group.table")
    if len(rows) != len(labels):
        raise SpecFormatError(
            "group.point_group.table", f"expected {len(labels)} rows"
        )
    table = tuple(
        _int_vector(row, f"group.point_group.table[{i}]", len(labels))
        for i, row in enumerate(rows)
    )
    try:
        return PointGroup(labels, table)
    except GroupValidationError as exc:
        raise SpecFormatError("group.point_group", str(exc)) from exc


def _parse_crystal_group(obj: dict, top: dict) -> CrystalGroup:
    """The group block of a crystal document. Every lattice block of the
    document is checked against the rank before the group is built:
    building the default action and cocycle and validating the group take
    time polynomial in the rank, which the document may declare far larger
    than its blocks. So a block of the wrong shape is reported at once,
    with the error its own parse would raise."""
    from .crystal import CrystalGroup, GroupValidationError

    _check_keys(obj, "group", ("kind", "rank", "point_group"), ("action", "cocycle"))
    rank = _expect_int(obj["rank"], "group.rank")
    if rank < 1:
        raise SpecFormatError("group.rank", "crystal lattice rank must be >= 1")
    pg = _parse_point_group(_expect_object(obj["point_group"], "group.point_group"))
    n = pg.order

    action = {}
    for label, raw in _expect_object(obj.get("action", {}), "group.action").items():
        path = f"group.action.{label}"
        if label not in pg.elements:
            raise SpecFormatError(path, "unknown point-group element")
        action[pg.index_of(label)] = _unimodular(raw, path, rank)

    cocycle = {}
    for key, raw in _expect_object(obj.get("cocycle", {}), "group.cocycle").items():
        path = f"group.cocycle.{key}"
        parts = key.split(",")
        if len(parts) != 2 or any(p not in pg.elements for p in parts):
            raise SpecFormatError(path, "key must be 'h,k' with known element labels")
        cocycle[pg.index_of(parts[0]), pg.index_of(parts[1])] = _int_vector(raw, path, rank)

    auto = top.get("auto")
    if isinstance(auto, dict):
        if "lattice" in auto:
            _int_matrix(auto["lattice"], "auto.lattice", rank)
        _crystal_translations(auto, pg.elements, rank)
    for key in ("omega", "base"):
        if key in top:
            for i, raw in enumerate(_expect_list(top[key], key)):
                _crystal_entry(raw, f"{key}[{i}]", rank)

    identity = IntMatrix.identity(rank)
    zero = (0,) * rank
    try:
        return CrystalGroup(
            point_group=pg,
            rank=rank,
            action=tuple(action.get(h, identity) for h in range(n)),
            cocycle=tuple(tuple(cocycle.get((h, k), zero) for k in range(n)) for h in range(n)),
        )
    except GroupValidationError as exc:
        raise SpecFormatError("group", str(exc)) from exc


# --- automorphism blocks -------------------------------------------------------


def _parse_torsion_tuple(text: str, path: str, length: int) -> tuple[int, ...]:
    parts = text.split(",") if text else []
    if len(parts) != length:
        raise SpecFormatError(path, f"expected {length} comma-separated integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise SpecFormatError(path, "entries must be integers") from None


def _parse_abelian_auto(obj: dict, group: FgAbelianGroup) -> AbelianAutomorphism:
    _check_keys(obj, "auto", (), ("lattice", "torsion_map", "mixing"))
    lattice = None
    if "lattice" in obj:
        if group.rank == 0:
            raise SpecFormatError("auto.lattice", "rank-0 group takes no lattice block")
        lattice = _unimodular(obj["lattice"], "auto.lattice", group.rank)
    torsion_map = None
    if "torsion_map" in obj:
        torsion_map = {}
        q = len(group.torsion)
        for key, raw in _expect_object(obj["torsion_map"], "auto.torsion_map").items():
            path = f"auto.torsion_map.{key}"
            torsion_map[_parse_torsion_tuple(key, path, q)] = _int_vector(raw, path, q)
    mixing = None
    if "mixing" in obj:
        rows = _expect_list(obj["mixing"], "auto.mixing")
        if len(rows) != group.rank:
            raise SpecFormatError(
                "auto.mixing", f"expected one row per lattice basis vector ({group.rank})"
            )
        mixing = tuple(
            _int_vector(row, f"auto.mixing[{i}]", len(group.torsion))
            for i, row in enumerate(rows)
        )
    try:
        return AbelianAutomorphism.build(
            group, lattice=lattice, torsion_map=torsion_map, mixing=mixing
        )
    except (ValueError, KeyError) as exc:
        raise SpecFormatError("auto", str(exc)) from exc


def _parse_crystal_auto(obj: dict, group: CrystalGroup) -> CrystalAutomorphism:
    from .crystal import CrystalAutomorphism, GroupValidationError

    _check_keys(obj, "auto", (), ("lattice", "quotient_map", "translation"))
    lattice = None
    if "lattice" in obj:
        lattice = _unimodular(obj["lattice"], "auto.lattice", group.rank)
    labels = group.point_group.elements
    quotient = None
    if "quotient_map" in obj:
        mapping = _expect_object(obj["quotient_map"], "auto.quotient_map")
        images = {}
        for src, dst in mapping.items():
            path = f"auto.quotient_map.{src}"
            if src not in labels:
                raise SpecFormatError(path, "unknown point-group element")
            if _expect_str(dst, path) not in labels:
                raise SpecFormatError(path, f"unknown image element {dst!r}")
            images[src] = dst
        quotient = tuple(
            group.point_group.index_of(images.get(lab, lab)) for lab in labels
        )
    try:
        return CrystalAutomorphism.build(
            group,
            lattice_part=lattice,
            quotient_map=quotient,
            translations=_crystal_translations(obj, labels, group.rank),
        )
    except GroupValidationError as exc:
        raise SpecFormatError("auto", str(exc)) from exc


def _crystal_translations(obj: dict, labels: tuple, rank: int) -> dict:
    translations = {}
    for label, raw in _expect_object(obj.get("translation", {}), "auto.translation").items():
        path = f"auto.translation.{label}"
        if label not in labels:
            raise SpecFormatError(path, "unknown point-group element")
        translations[label] = _int_vector(raw, path, rank)
    return translations


# --- set blocks ----------------------------------------------------------------


def _parse_abelian_elements(items: list, path: str, group: FgAbelianGroup) -> tuple:
    p = group.rank
    q = len(group.torsion)
    out = []
    for i, raw in enumerate(items):
        coords = _int_vector(raw, f"{path}[{i}]", p + q)
        out.append(group.element(coords[:p], coords[p:]))
    return tuple(out)


def _crystal_entry(raw, path: str, rank: int) -> list:
    entry = _expect_list(raw, path)
    if len(entry) != 1 + rank:
        raise SpecFormatError(path, f"expected [label, {rank} lattice coordinates]")
    return entry


def _parse_crystal_elements(items: list, path: str, group: CrystalGroup) -> tuple:
    out = []
    for i, raw in enumerate(items):
        entry = _crystal_entry(raw, f"{path}[{i}]", group.rank)
        label = _expect_str(entry[0], f"{path}[{i}][0]")
        if label not in group.point_group.elements:
            raise SpecFormatError(f"{path}[{i}][0]", f"unknown element label {label!r}")
        lattice = tuple(
            _expect_int(x, f"{path}[{i}][{j + 1}]") for j, x in enumerate(entry[1:])
        )
        out.append(group.element(label, lattice))
    return tuple(out)


def _parse_params(obj: dict) -> ComputationParams:
    _check_keys(obj, "params", (), ("delta", "n", "radius", "tol", "cap", "seed"))
    kwargs = {}
    for key in ("delta", "tol"):
        if key in obj:
            value = _expect_number(obj[key], f"params.{key}")
            if value <= 0:
                raise SpecFormatError(f"params.{key}", "must be positive")
            kwargs[key] = value
    for key in ("n", "radius", "cap", "seed"):
        if key in obj:
            value = _expect_int(obj[key], f"params.{key}")
            if key != "seed" and value < 0:
                raise SpecFormatError(f"params.{key}", "must be nonnegative")
            kwargs[key] = value
    return ComputationParams(**kwargs)


# --- entry points ---------------------------------------------------------------


def parse_spec_data(data) -> SpecDocument:
    """Validates an already-decoded document. See parse_spec for the schema."""
    top = _expect_object(data, "")
    _check_keys(top, "", ("group",), ("auto", "omega", "base", "params"))
    gobj = _expect_object(top["group"], "group")
    if "kind" not in gobj:
        raise SpecFormatError("group.kind", "missing required key 'kind'")
    kind = _expect_str(gobj["kind"], "group.kind")
    if kind not in GROUP_KINDS:
        raise SpecFormatError(
            "group.kind", f"must be one of {', '.join(GROUP_KINDS)}"
        )

    if kind == "crystal":
        group = _parse_crystal_group(gobj, top)
        parse_auto = _parse_crystal_auto
        parse_elements = _parse_crystal_elements
    else:
        group = _parse_abelian_group(gobj, kind)
        parse_auto = _parse_abelian_auto
        parse_elements = _parse_abelian_elements

    automorphism = None
    if "auto" in top:
        automorphism = parse_auto(_expect_object(top["auto"], "auto"), group)

    omega = None
    if "omega" in top:
        omega = parse_elements(_expect_list(top["omega"], "omega"), "omega", group)
        if not omega:
            raise SpecFormatError("omega", "must be nonempty when present")
    base = None
    if "base" in top:
        base = parse_elements(_expect_list(top["base"], "base"), "base", group)
        if not base:
            raise SpecFormatError("base", "must be nonempty when present")

    params = ComputationParams()
    if "params" in top:
        params = _parse_params(_expect_object(top["params"], "params"))

    return SpecDocument(
        kind=kind,
        group=group,
        automorphism=automorphism,
        omega=omega,
        base=base,
        params=params,
    )


def parse_spec(path: str) -> SpecDocument:
    """Reads and strictly validates a JSON experiment document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SpecFormatError("", f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            "", f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_spec_data(data)


# --- canonical emission ----------------------------------------------------------


def canonical_data(doc: SpecDocument) -> dict:
    """The document as plain data; parsing it back yields an equal document."""
    out: dict = {}
    if doc.kind == "crystal":
        g: CrystalGroup = doc.group
        pg = g.point_group
        gobj: dict = {
            "kind": "crystal",
            "rank": g.rank,
            "point_group": {
                "elements": list(pg.elements),
                "table": [list(row) for row in pg.table],
            },
        }
        ident = IntMatrix.identity(g.rank)
        action = {
            pg.elements[h]: [list(row) for row in g.action[h].entries]
            for h in range(pg.order)
            if g.action[h] != ident
        }
        if action:
            gobj["action"] = action
        cocycle = {
            f"{pg.elements[h]},{pg.elements[k]}": list(g.cocycle[h][k])
            for h in range(pg.order)
            for k in range(pg.order)
            if any(g.cocycle[h][k])
        }
        if cocycle:
            gobj["cocycle"] = cocycle
        out["group"] = gobj
        auto: Optional[CrystalAutomorphism] = doc.automorphism
        if auto is not None:
            aobj: dict = {}
            if auto.lattice_part != ident:
                aobj["lattice"] = [list(row) for row in auto.lattice_part.entries]
            quotient = {
                pg.elements[h]: pg.elements[auto.quotient_map[h]]
                for h in range(pg.order)
                if auto.quotient_map[h] != h
            }
            if quotient:
                aobj["quotient_map"] = quotient
            translation = {
                pg.elements[h]: list(auto.translations[h])
                for h in range(pg.order)
                if any(auto.translations[h])
            }
            if translation:
                aobj["translation"] = translation
            out["auto"] = aobj
    else:
        g = doc.group
        gobj = {"kind": doc.kind, "rank": g.rank}
        if doc.kind == "fg_abelian" and g.torsion:
            gobj["torsion"] = list(g.torsion)
        out["group"] = gobj
        auto = doc.automorphism
        if auto is not None:
            aobj = {}
            if g.rank and auto.lattice_part != IntMatrix.identity(g.rank):
                aobj["lattice"] = [list(row) for row in auto.lattice_part.entries]
            nontrivial_tmap = {
                src: dst for src, dst in auto.torsion_map if src != dst
            }
            if nontrivial_tmap:
                aobj["torsion_map"] = {
                    ",".join(str(x) for x in src): list(dst)
                    for src, dst in sorted(auto.torsion_map)
                }
            if any(any(col) for col in auto.mixing):
                aobj["mixing"] = [list(col) for col in auto.mixing]
            out["auto"] = aobj

    if doc.omega is not None:
        out["omega"] = [jsonable(e) for e in doc.omega]
    if doc.base is not None:
        out["base"] = [jsonable(e) for e in doc.base]

    params = {
        key: getattr(doc.params, key)
        for key in ("delta", "n", "radius", "tol", "cap", "seed")
        if getattr(doc.params, key) is not None
    }
    if params:
        out["params"] = params
    return out


def emit_spec(doc: SpecDocument) -> str:
    """Deterministic JSON serialization of the canonical form."""
    return json.dumps(canonical_data(doc), sort_keys=True, indent=2) + "\n"
