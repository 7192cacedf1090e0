"""Reading and writing the JSON model-file format.

A model file is a UTF-8 JSON object with fields:

* ``terminals`` -- integer 2 <= m <= ``MAX_TERMINALS`` (required; a larger
  m raises ``SizeLimitError``)
* ``weights``  -- list of ``{"i": int, "j": int, "value": int | "p/q"}``
* ``pmfs``     -- list of ``{"i": int, "j": int, "rows": int, "cols": int,
  "probs": [float, ...]}`` with ``probs`` row-major of length rows*cols

At least one of ``weights`` / ``pmfs`` must be present.  Unknown fields are
rejected, as are duplicate pairs, self-pairs, out-of-range terminals and
negative weights.  A file with ``weights`` is an exact-mode model; a file
with only ``pmfs`` is float-mode.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import ModelFormatError
from .model import (
    PairPmf,
    PinModel,
    canonical_pair,
    check_terminal_count,
    format_rational,
    parse_rational,
)

_TOP_FIELDS = {"terminals", "weights", "pmfs"}
_WEIGHT_FIELDS = {"i", "j", "value"}
_PMF_FIELDS = {"i", "j", "rows", "cols", "probs"}


def _fail(message: str) -> None:
    raise ModelFormatError(message)


def _require_int(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{context}: expected an integer, got {value!r}")
    return value


def _pair_of(record: dict, m: int, context: str) -> tuple[int, int]:
    i = _require_int(record["i"], f"{context}.i")
    j = _require_int(record["j"], f"{context}.j")
    if i == j:
        _fail(f"{context}: self-pair ({i}, {j})")
    if not (1 <= i <= m and 1 <= j <= m):
        _fail(f"{context}: pair ({i}, {j}) outside terminals 1..{m}")
    return canonical_pair(i, j)


def loads_model(text: str) -> PinModel:
    """Parse a model from JSON text; raises ModelFormatError on any defect."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("top level must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        _fail(f"unknown top-level fields: {sorted(unknown)}")
    if "terminals" not in doc:
        _fail("missing required field 'terminals'")
    m = _require_int(doc["terminals"], "terminals")
    if m < 2:
        _fail(f"terminals must be >= 2, got {m}")
    check_terminal_count(m)
    if "weights" not in doc and "pmfs" not in doc:
        _fail("at least one of 'weights' / 'pmfs' must be present")

    weights = None
    if "weights" in doc:
        if not isinstance(doc["weights"], list):
            _fail("'weights' must be a list of records")
        weights = {}
        for k, record in enumerate(doc["weights"]):
            context = f"weights[{k}]"
            if not isinstance(record, dict):
                _fail(f"{context}: expected an object")
            unknown = set(record) - _WEIGHT_FIELDS
            if unknown:
                _fail(f"{context}: unknown fields {sorted(unknown)}")
            if set(record) != _WEIGHT_FIELDS:
                _fail(f"{context}: needs exactly fields i, j, value")
            pair = _pair_of(record, m, context)
            if pair in weights:
                _fail(f"{context}: duplicate pair {pair}")
            try:
                value = parse_rational(record["value"])
            except ValueError as exc:
                raise ModelFormatError(f"{context}.value: {exc}") from exc
            if value < 0:
                _fail(f"{context}: negative weight {format_rational(value)}")
            weights[pair] = value

    pmfs = {}
    if "pmfs" in doc:
        if not isinstance(doc["pmfs"], list):
            _fail("'pmfs' must be a list of records")
        for k, record in enumerate(doc["pmfs"]):
            context = f"pmfs[{k}]"
            if not isinstance(record, dict):
                _fail(f"{context}: expected an object")
            unknown = set(record) - _PMF_FIELDS
            if unknown:
                _fail(f"{context}: unknown fields {sorted(unknown)}")
            if set(record) != _PMF_FIELDS:
                _fail(f"{context}: needs exactly fields i, j, rows, cols, probs")
            pair = _pair_of(record, m, context)
            if pair in pmfs:
                _fail(f"{context}: duplicate pair {pair}")
            rows = _require_int(record["rows"], f"{context}.rows")
            cols = _require_int(record["cols"], f"{context}.cols")
            if rows < 1 or cols < 1:
                _fail(f"{context}: alphabet sizes must be positive")
            probs = record["probs"]
            if not isinstance(probs, list) or len(probs) != rows * cols:
                _fail(f"{context}: probs must be a row-major list of length "
                      f"{rows * cols}")
            for p in probs:
                if isinstance(p, bool) or not isinstance(p, (int, float)):
                    _fail(f"{context}: non-numeric probability {p!r}")
            try:
                table = [
                    [float(probs[r * cols + c]) for c in range(cols)]
                    for r in range(rows)
                ]
            except OverflowError:
                _fail(f"{context}: a probability is too large for a float")
            try:
                pmfs[pair] = PairPmf.from_rows(table)
            except ValueError as exc:
                raise ModelFormatError(f"{context}: {exc}") from exc

    try:
        if weights is not None:
            return PinModel.from_weights(m, weights, pmfs)
        return PinModel.from_pmfs(m, pmfs)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def load_model(path: str | Path) -> PinModel:
    return loads_model(Path(path).read_text(encoding="utf-8"))


def dumps_model(model: PinModel) -> str:
    """Serialize a model back to its JSON file form (round-trips loads)."""
    doc: dict[str, Any] = {"terminals": model.m}
    if model.weights is not None:
        doc["weights"] = [
            {"i": i, "j": j, "value": format_rational(w)}
            for (i, j), w in sorted(model.weights.items())
        ]
    if model.pmfs:
        doc["pmfs"] = [
            {
                "i": i,
                "j": j,
                "rows": pmf.rows,
                "cols": pmf.cols,
                "probs": [p for row in pmf.probs for p in row],
            }
            for (i, j), pmf in sorted(model.pmfs.items())
        ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dump_model(model: PinModel, path: str | Path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")
