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

The file is checked in one pass, each check in one place:

* ``loads_model`` checks the top level, then each record once: through
  ``_records``, that it is an object with exactly its fields
  (``_field_error`` names what is wrong), its pair (integer ``i`` and
  ``j``, no self-pair, both in 1..m) and that the pair is new; then its
  value (``parse_rational`` in ``model``: an int, or a ``p`` /
  ``p/q`` string of ASCII digits, then the sign by its numerator) or its
  pmf table.  A record's ``weights[k]`` context and every message are
  built only when a check fails.
* The base scale ``n0`` is the lcm of the denominators and each base
  weight is ``p · (n0 / q)``; no Fraction is built.  The ``PinModel``
  constructor takes that integer form: it fills in the zero pairs,
  repeats the checks that library callers need (pair range, ints >= 0,
  ``n0`` the least scale) and compares each pmf with its weight.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Any, Iterator, NoReturn

from .errors import ModelFormatError
from .model import (
    Pair,
    PairPmf,
    PinModel,
    check_terminal_count,
    format_rational,
    parse_ratio,
)

_TOP_FIELDS = {"terminals", "weights", "pmfs"}
_WEIGHT_FIELDS = frozenset(("i", "j", "value"))
_PMF_FIELDS = frozenset(("i", "j", "rows", "cols", "probs"))


def _fail(message: str) -> NoReturn:
    raise ModelFormatError(message)


def _not_an_integer(value: Any, context: str) -> NoReturn:
    _fail(f"{context}: expected an integer, got {value!r}")


def _require_int(value: Any, context: str) -> int:
    if type(value) is not int:  # type() rather than isinstance: no bools
        _not_an_integer(value, context)
    return value


def _field_error(record: Any, fields: frozenset, names: str, context: str) -> NoReturn:
    """Raise for a record that is not an object with exactly ``fields``."""
    if not isinstance(record, dict):
        _fail(f"{context}: expected an object")
    unknown = record.keys() - fields
    if unknown:
        _fail(f"{context}: unknown fields {sorted(unknown)}")
    _fail(f"{context}: needs exactly fields {names}")


def _records(doc: dict, field: str, fields: frozenset, names: str,
             m: int) -> Iterator[tuple[int, dict, Pair]]:
    """Each record of the list ``doc[field]`` with its index and canonical
    pair, once it is an object with exactly ``fields`` whose ``i`` and
    ``j`` are integers that form a new pair within 1..m."""
    if not isinstance(doc[field], list):
        _fail(f"'{field}' must be a list of records")
    seen: set[Pair] = set()
    for k, record in enumerate(doc[field]):
        if type(record) is not dict or record.keys() != fields:
            _field_error(record, fields, names, f"{field}[{k}]")
        i, j = record["i"], record["j"]
        if type(i) is not int:
            _not_an_integer(i, f"{field}[{k}].i")
        if type(j) is not int:
            _not_an_integer(j, f"{field}[{k}].j")
        if i == j:
            _fail(f"{field}[{k}]: self-pair ({i}, {j})")
        if not (1 <= i <= m and 1 <= j <= m):
            _fail(f"{field}[{k}]: pair ({i}, {j}) outside terminals 1..{m}")
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            _fail(f"{field}[{k}]: duplicate pair {pair}")
        seen.add(pair)
        yield k, record, pair


def loads_model(text: str) -> PinModel:
    """Parse a model from JSON text; raises ModelFormatError on any defect."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or an int too long
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

    ratios = None
    if "weights" in doc:
        ratios = {}
        for k, record, pair in _records(doc, "weights", _WEIGHT_FIELDS, "i, j, value", m):
            try:
                p, q = parse_ratio(record["value"])
            except ValueError as exc:
                raise ModelFormatError(f"weights[{k}].value: {exc}") from exc
            if p < 0:
                _fail(f"weights[{k}]: negative weight {format_rational(Fraction(p, q))}")
            ratios[pair] = p, q

    pmfs = {}
    if "pmfs" in doc:
        for k, record, pair in _records(doc, "pmfs", _PMF_FIELDS,
                                        "i, j, rows, cols, probs", m):
            context = f"pmfs[{k}]"
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
        if ratios is None:
            return PinModel(m, None, None, pmfs)
        n0 = math.lcm(*(q for _, q in ratios.values()))
        return PinModel(m, n0, {pair: p * (n0 // q) for pair, (p, q) in ratios.items()}, pmfs)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def load_model(path: str | os.PathLike) -> PinModel:
    with open(path, encoding="utf-8") as handle:
        return loads_model(handle.read())


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


def dump_model(model: PinModel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_model(model))
