"""Core data types for pairwise preference games.

A preference matrix holds pairwise win probabilities between n responses.
Applying a scalar payoff mapping entrywise (``apply_mapping``) turns it
into the payoff matrix of a two-player zero-sum game, and policies
(probability vectors over the responses) are the strategies of that game.

All types are immutable after construction: the wrapped arrays are marked
read-only, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_VALIDATION_TOL = 1e-9
SUPPORT_THRESHOLD = 1e-7


class PrefGameError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PrefGameError, ValueError):
    """Input data violates a structural requirement."""


class MappingError(PrefGameError, ValueError):
    """A payoff mapping could not be built or evaluated."""


class SolverError(PrefGameError, RuntimeError):
    """The LP machinery failed in a way that indicates a bug or bad input."""


class TieError(PrefGameError):
    """An operation that requires strict pairwise preferences saw a tie."""


class GenerationError(PrefGameError, RuntimeError):
    """A random generator could not satisfy its constraints."""


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


class Record:
    """A report whose JSON form is its dataclass fields in declaration order."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    """``value`` as JSON data: a policy as its weights, a record as its dict,
    an array, tuple or list as a list, a dict as a new dict, else as is."""
    if isinstance(value, Policy):
        return value.w.tolist()
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class PreferenceMatrix:
    """Pairwise preference probabilities between ``n`` responses.

    ``p[i, j]`` is the probability that response ``i`` is preferred to
    response ``j``.  Entries satisfy ``p[i, j] + p[j, i] = 1`` and the
    diagonal is 1/2.  ``no_tie`` records whether the majority relation is
    a tournament: every off-diagonal entry is bounded away from 1/2 and, of
    each pair ``p[i, j]``, ``p[j, i]``, exactly one lies above 1/2.  The
    ordered decomposition requires it.
    """

    n: int
    p: np.ndarray
    no_tie: bool

    # ``no_tie`` is derived from ``p``; the preference file format is {"n", "p"}.
    def to_dict(self) -> dict:
        return {"n": self.n, "p": self.p.tolist()}


@dataclass(frozen=True)
class PayoffMatrix(Record):
    """Real payoff ``a[i, j]`` earned by the row player against the column player."""

    n: int
    a: np.ndarray


@dataclass(frozen=True)
class Policy(Record):
    """A probability vector over ``n`` responses."""

    n: int
    w: np.ndarray

    def support(self) -> list[int]:
        """Indices carrying more than ``SUPPORT_THRESHOLD`` mass."""
        return [int(i) for i in np.flatnonzero(self.w > SUPPORT_THRESHOLD)]

    @staticmethod
    def delta(i: int, n: int) -> "Policy":
        """The pure policy concentrated on response ``i``."""
        if not 0 <= i < n:
            raise ValidationError(f"index {i} out of range for n={n}")
        w = np.zeros(n)
        w[i] = 1.0
        return Policy(n=n, w=_as_readonly(w))

    @staticmethod
    def uniform(n: int) -> "Policy":
        """The uniform policy over ``n`` responses."""
        if n < 1:
            raise ValidationError("n must be positive")
        return Policy(n=n, w=_as_readonly(np.full(n, 1.0 / n)))


def _holds_bool_or_str(raw) -> bool:
    """Whether ``raw`` is or nests a boolean or a string, either of which numpy
    would read as a number.  An object array is judged by its entries, any
    other array by its dtype: only integers and floats are real numbers."""
    if isinstance(raw, np.ndarray):
        if raw.dtype.kind == "O":
            return _holds_bool_or_str(raw.tolist())
        return raw.dtype.kind not in "fiu"
    if isinstance(raw, (list, tuple)):
        return any(_holds_bool_or_str(v) for v in raw)
    return isinstance(raw, (bool, np.bool_, str, bytes))


def _float_array(raw, what: str, error: type[PrefGameError] = ValidationError) -> np.ndarray:
    """``raw`` as a float array of finite entries, else ``error`` naming ``what``."""
    if _holds_bool_or_str(raw):
        raise error(f"{what} must be an array of numbers, not booleans or strings")
    try:
        out = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be an array of numbers: {exc}") from None
    if not np.all(np.isfinite(out)):
        raise error(f"{what} must be finite, got {out[~np.isfinite(out)][0]}")
    return out


def _real(value, what: str, error: type[PrefGameError] = ValidationError) -> float:
    """``value`` as a finite float, else ``error`` naming ``what``; a boolean
    or a string is not a number, although ``float`` would read it as one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise error(f"{what} must be finite, got {out}")
    return out


def _integer(value, what: str, low: int) -> int:
    """``value`` as an int at or above ``low``, else a ``ValidationError``
    naming ``what``; a boolean is not an integer, although ``int`` would read it as one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < low:
        floor = {0: "non-negative", 1: "positive"}.get(low, f">= {low}")
        raise ValidationError(f"{what} must be {floor}, got {value}")
    return int(value)


def _require_square(raw: np.ndarray, what: str) -> int:
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {raw.shape}")
    if raw.shape[0] < 1:
        raise ValidationError(f"{what} must have at least one row")
    return int(raw.shape[0])


def validate_preferences(raw) -> PreferenceMatrix:
    """Check a square array-like of pairwise probabilities in [0, 1] and wrap it.

    The complement identity ``p[i, j] + p[j, i] = 1`` and the diagonal value
    1/2 may miss by ``DEFAULT_VALIDATION_TOL``.  Off-diagonal entries within
    the same tolerance of 1/2 count as ties; they do not abort validation
    but clear the ``no_tie`` flag.  A pair whose entries lie on the same
    side of 1/2, each at least the tolerance from it, misses the complement
    identity by at least twice the tolerance and is rejected, so ``no_tie``
    holds exactly when the majority relation is a tournament.

    Entries within tolerance are accepted as-is, never re-normalized, so
    the stored matrix is exactly the caller's data.

    Raises
    ------
    ValidationError
        If the matrix is not a square array of finite numbers, has entries outside
        [0, 1], violates the complement identity, or has a diagonal entry
        away from 1/2.
    """
    p = _float_array(raw, "preference matrix")
    n = _require_square(p, "preference matrix")
    if np.any(p < 0.0) or np.any(p > 1.0):
        bad = np.argwhere((p < 0.0) | (p > 1.0))[0]
        raise ValidationError(
            f"entry p[{bad[0]}][{bad[1]}] = {p[bad[0], bad[1]]} outside [0, 1]"
        )
    comp = np.abs(p + p.T - 1.0)
    if np.any(comp > DEFAULT_VALIDATION_TOL):
        bad = np.argwhere(comp > DEFAULT_VALIDATION_TOL)[0]
        i, j = int(bad[0]), int(bad[1])
        raise ValidationError(
            f"complement violation at ({i}, {j}): "
            f"p[{i}][{j}] + p[{j}][{i}] = {p[i, j] + p[j, i]}"
        )
    diag = np.abs(np.diagonal(p) - 0.5)
    if np.any(diag > DEFAULT_VALIDATION_TOL):
        i = int(np.argmax(diag))
        raise ValidationError(f"diagonal entry p[{i}][{i}] = {p[i, i]} must be 1/2")
    off = ~np.eye(n, dtype=bool)
    no_tie = bool(np.all(np.abs(p[off] - 0.5) >= DEFAULT_VALIDATION_TOL))
    return PreferenceMatrix(n=n, p=_as_readonly(p), no_tie=no_tie)


def make_payoff(raw) -> PayoffMatrix:
    """Wrap a square array of finite reals as a payoff matrix."""
    a = _float_array(raw, "payoff matrix")
    n = _require_square(a, "payoff matrix")
    return PayoffMatrix(n=n, a=_as_readonly(a))


def make_policy(raw) -> Policy:
    """Wrap a nonnegative vector summing to one as a policy.

    Small negative entries (at most ``DEFAULT_VALIDATION_TOL`` in magnitude)
    are snapped to zero; the total mass must already be 1 within it.
    """
    w = _float_array(raw, "policy")
    if w.ndim != 1 or w.size < 1:
        raise ValidationError(f"policy must be a nonempty vector, got shape {w.shape}")
    if np.any(w < -DEFAULT_VALIDATION_TOL):
        i = int(np.argmin(w))
        raise ValidationError(f"policy entry w[{i}] = {w[i]} is negative")
    # Finite entries can still overflow the sum; the mass is then inf, not 1.
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if abs(total - 1.0) > DEFAULT_VALIDATION_TOL:
        raise ValidationError(f"policy mass {total} is not 1")
    w = np.clip(w, 0.0, None)
    if not np.any(w > 0.0):
        raise ValidationError("policy support is empty")
    return Policy(n=int(w.size), w=_as_readonly(w))


def _require_same_n(name: str, n: int, others: str, *sizes: int) -> None:
    """Raise "dimension mismatch: {name} n=…, {others} n=… and n=…" unless every size is ``n``."""
    if any(size != n for size in sizes):
        listed = " and ".join(f"n={size}" for size in sizes)
        raise ValidationError(f"dimension mismatch: {name} n={n}, {others} {listed}")
