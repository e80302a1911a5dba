"""JSON encodings for matrices, subspaces, and CLI reports.

A complex matrix travels as ``{"dim": n, "re": [[..]], "im": [[..]]}``.
Readers validate shape and finiteness and raise ValidationError on anything
malformed; writers emit plain lists of floats. Report serialization sorts
keys so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import ValidationError

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "subspace_to_json",
    "subspace_from_json",
    "load_json_file",
    "dumps_report",
]


def _json_int(value: Any, what: str) -> int:
    """A JSON integer; ``2.0``, ``"2"`` and ``true`` are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    a = np.asarray(m, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError(f"matrix payload must be an object, got {type(obj).__name__}")
    missing = {"dim", "re", "im"} - obj.keys()
    if missing:
        raise ValidationError(f"matrix payload missing keys: {sorted(missing)}")
    dim = _json_int(obj["dim"], "matrix dim")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise ValidationError(f"matrix payload not numeric: {exc}") from exc
    if dim < 1:
        raise ValidationError(f"matrix dim must be >= 1, got {dim}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(
            f"matrix parts must have shape ({dim}, {dim}), got re {re.shape}, im {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("matrix entries must be finite")
    return re + 1j * im


def subspace_to_json(dim: int, matrices: list[np.ndarray]) -> dict[str, Any]:
    return {
        "dim": int(dim),
        "matrices": [matrix_to_json(m) for m in matrices],
    }


def subspace_from_json(obj: Any) -> tuple[int, list[np.ndarray]]:
    """Ambient dimension and raw matrix list; spanning is the caller's job."""
    if not isinstance(obj, dict):
        raise ValidationError(f"subspace payload must be an object, got {type(obj).__name__}")
    if "matrices" not in obj:
        raise ValidationError("subspace payload missing key: 'matrices'")
    raw = obj["matrices"]
    if not isinstance(raw, list) or not raw:
        raise ValidationError("subspace payload needs a nonempty 'matrices' list")
    mats = [matrix_from_json(item) for item in raw]
    dim = _json_int(obj.get("dim", mats[0].shape[0]), "subspace dim")
    for m in mats:
        if m.shape[0] != dim:
            raise ValidationError(
                f"subspace matrices must share dim {dim}, got {m.shape[0]}"
            )
    return dim, mats


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def dumps_report(report: dict[str, Any]) -> str:
    """Canonical report encoding: sorted keys, two-space indent."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
