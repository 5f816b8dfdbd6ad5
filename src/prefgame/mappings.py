"""Scalar payoff mappings on [0, 1] and their consistency conditions.

A mapping turns a pairwise preference probability into a game payoff, and
``apply_mapping`` turns a preference matrix into a payoff matrix with it.  The
shape of the mapping around the midpoint 1/2 decides which social-choice
guarantees the induced game keeps; ``check_conditions`` decides the three
relevant shape conditions:

1. above-midpoint values at or above the midpoint value, below-midpoint
   values strictly under it (winner consistency);
2. additionally ``f(t) + f(1-t)`` at least twice the midpoint value
   (forces mixed solutions when no winner exists);
3. ``f(t) + f(1-t)`` exactly twice the midpoint value, plus the strict
   below-midpoint part (top-group consistency).

The verdicts need no sampling: they are decided on the critical points the
mapping's definition gives (0, 1/2, a table's breakpoints and the mirror
``1 - t`` of each).  Between neighbouring points f(t) and f(t) + f(1-t)
are monotone, or the sum is convex or concave about 1/2, so every extreme
value a condition compares sits at a critical point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MappingError, PayoffMatrix, PreferenceMatrix, Record, _as_readonly

LOG_ODDS_CLAMP = 1e-9
# Allowance for the equality and non-strict tests, relative to the largest
# |f| on the critical set; it absorbs rounding in mirrored arguments 1 - t.
ROUND_OFF = 1e-12


@dataclass(frozen=True)
class MappingSpec:
    """Immutable description of a scalar mapping on [0, 1].

    Only the fields relevant to ``kind`` are meaningful; use the factory
    functions in this module rather than the constructor.  ``clamp_epsilon``
    pulls every argument into ``[clamp_epsilon, 1 - clamp_epsilon]`` before
    evaluation, which keeps log-odds finite on data that touches 0 or 1.
    """

    kind: str
    clamp_epsilon: float = 0.0
    a: float = 1.0
    b: float = 0.0
    k: float = 1.0
    m_minus: float = 0.0
    mid: float = 0.0
    m_plus: float = 0.0
    points: tuple[tuple[float, float], ...] = field(default=())
    base: "MappingSpec | None" = None


@dataclass(frozen=True)
class ConditionReport(Record):
    """Verdicts for the three mapping shape conditions.

    ``witnesses`` holds one ``(t, reason)`` pair for each failed condition,
    at its worst violation among the critical points.  ``jump_below`` and
    ``jump_above`` are ``|f(t) - f(1/2)|`` at the floats next to 1/2: about
    1e-16 where f is continuous there, the full jump for a step.
    """

    condorcet_ok: bool
    mixed_ok: bool
    smith_ok: bool
    witnesses: tuple[tuple[float, str], ...]
    jump_below: float
    jump_above: float


def identity(clamp_epsilon: float = 0.0) -> MappingSpec:
    """The mapping f(t) = t."""
    _check_clamp(clamp_epsilon)
    return MappingSpec(kind="identity", clamp_epsilon=clamp_epsilon)


def log_odds(clamp_epsilon: float = LOG_ODDS_CLAMP) -> MappingSpec:
    """The mapping f(t) = log(t / (1 - t)), clamped away from 0 and 1."""
    _check_clamp(clamp_epsilon)
    return MappingSpec(kind="log_odds", clamp_epsilon=clamp_epsilon)


def affine(a: float, b: float, clamp_epsilon: float = 0.0) -> MappingSpec:
    """The mapping f(t) = a*t + b."""
    _check_clamp(clamp_epsilon)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise MappingError("affine coefficients must be finite")
    return MappingSpec(kind="affine", a=float(a), b=float(b), clamp_epsilon=clamp_epsilon)


def power(k: float, clamp_epsilon: float = 0.0) -> MappingSpec:
    """The mapping f(t) = t**k.

    Negative exponents blow up at t = 0; set a positive ``clamp_epsilon``
    when the input may touch the boundary.
    """
    _check_clamp(clamp_epsilon)
    if not np.isfinite(k):
        raise MappingError("power exponent must be finite")
    return MappingSpec(kind="power", k=float(k), clamp_epsilon=clamp_epsilon)


def _real(value) -> float:
    """``float(value)``, except that a boolean or a string is a ``TypeError``: ``float`` would read it as a number."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def piecewise_linear(points, clamp_epsilon: float = 0.0) -> MappingSpec:
    """Linear interpolation through ``points``, a list of (t, value) pairs.

    Breakpoints must be strictly ascending in t and start at t = 0.  The
    last breakpoint is normally t = 1; a shorter table reaching at least
    t = 1/2 is accepted so it can serve as a half-interval base for
    ``symmetric_extension``, and evaluation past the last breakpoint holds
    the final value.
    """
    _check_clamp(clamp_epsilon)
    try:
        pts = tuple((_real(t), _real(v)) for t, v in points)
    except (TypeError, ValueError):
        raise MappingError(f"piecewise_linear points must be (t, value) pairs of numbers, got {points!r}") from None
    if len(pts) < 2:
        raise MappingError("piecewise_linear needs at least two points")
    ts = np.array([t for t, _ in pts])
    vs = np.array([v for _, v in pts])
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
        raise MappingError("piecewise_linear points must be finite")
    if np.any(np.diff(ts) <= 0):
        raise MappingError("piecewise_linear breakpoints must be strictly ascending")
    if ts[0] != 0.0:
        raise MappingError("piecewise_linear must start at t=0")
    if ts[-1] < 0.5:
        raise MappingError("piecewise_linear must cover t=1/2")
    return MappingSpec(kind="piecewise_linear", points=pts, clamp_epsilon=clamp_epsilon)


def piecewise_constant(m_minus: float, mid: float, m_plus: float) -> MappingSpec:
    """Three-level step mapping: ``m_minus`` below 1/2, ``mid`` at exactly 1/2,
    ``m_plus`` above."""
    vals = (m_minus, mid, m_plus)
    if not all(np.isfinite(v) for v in vals):
        raise MappingError("piecewise_constant levels must be finite")
    return MappingSpec(
        kind="piecewise_constant",
        m_minus=float(m_minus),
        mid=float(mid),
        m_plus=float(m_plus),
    )


def symmetric_extension(base: MappingSpec) -> MappingSpec:
    """Extend a mapping given on [0, 1/2] to all of [0, 1] by point symmetry.

    The result equals ``base`` on [0, 1/2] and ``2*base(1/2) - base(1-t)``
    above, so ``f(t) + f(1-t) = 2*f(1/2)`` holds by construction.  The base
    must sit strictly below its midpoint value on [0, 1/2); this is decided
    on the base's critical points up to 1/2, and a violation is rejected.
    """
    ts = _critical_points(base)
    ts = ts[ts <= 0.5]
    vals = eval_mapping_array(base, ts)
    if not np.all(np.isfinite(vals)):
        raise MappingError("base mapping is not finite on [0, 1/2]")
    mid = vals[-1]
    bad = vals[:-1] >= mid
    if np.any(bad):
        t_bad = float(ts[:-1][bad][0])
        raise MappingError(
            f"base mapping must stay strictly below its midpoint value: "
            f"base({t_bad}) = {float(eval_mapping(base, t_bad))} >= base(0.5) = {float(mid)}"
        )
    return MappingSpec(kind="symmetric_extension", base=base)


def _check_clamp(clamp_epsilon: float) -> None:
    if not (0.0 <= clamp_epsilon < 0.5):
        raise MappingError(f"clamp_epsilon must be in [0, 0.5), got {clamp_epsilon}")


def eval_mapping_array(spec: MappingSpec, t) -> np.ndarray:
    """Evaluate ``spec`` elementwise on an array of probabilities.

    Inputs are clamped into ``[clamp_epsilon, 1 - clamp_epsilon]`` first.
    Non-finite outputs are returned as-is; callers that require finiteness
    check the result (scalar evaluation raises instead).
    """
    raw = np.asarray(t, dtype=float)
    if np.any(raw < -1e-12) or np.any(raw > 1.0 + 1e-12):
        raise MappingError("mapping argument outside [0, 1]")
    ts = np.clip(raw, 0.0, 1.0)
    kind = spec.kind
    if kind == "log_odds":
        # Clamp numerator and complement separately: mirrored arguments t and
        # 1-t then produce exactly opposite values, which the symmetry
        # condition needs at an allowance far below the 1/eps rounding blow-up.
        eps = spec.clamp_epsilon
        num = np.maximum(ts, eps)
        den = np.maximum(1.0 - ts, eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(num) - np.log(den)
    if spec.clamp_epsilon > 0.0:
        ts = np.clip(ts, spec.clamp_epsilon, 1.0 - spec.clamp_epsilon)
    if kind == "identity":
        return ts.copy()
    if kind == "affine":
        return spec.a * ts + spec.b
    if kind == "power":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.power(ts, spec.k)
    if kind == "piecewise_linear":
        xs = np.array([p[0] for p in spec.points])
        vs = np.array([p[1] for p in spec.points])
        return np.interp(ts, xs, vs)
    if kind == "piecewise_constant":
        return np.where(ts < 0.5, spec.m_minus, np.where(ts > 0.5, spec.m_plus, spec.mid))
    if kind == "symmetric_extension":
        assert spec.base is not None
        # One pass of the base over [0, 1/2]: each t or its mirror 1 - t,
        # then 1/2 itself.
        below = ts <= 0.5
        half = eval_mapping_array(spec.base, np.append(np.where(below, ts, 1.0 - ts), 0.5))
        base = half[:-1].reshape(ts.shape)
        return np.where(below, base, 2.0 * half[-1] - base)
    raise MappingError(f"unknown mapping kind {kind!r}")


def eval_mapping(spec: MappingSpec, t: float) -> float:
    """Evaluate ``spec`` at a single probability; raises on non-finite output."""
    out = float(eval_mapping_array(spec, np.asarray(t, dtype=float)))
    if not np.isfinite(out):
        raise MappingError(f"mapping {spec.kind} is not finite at t={t}")
    return out


def apply_mapping(pref: PreferenceMatrix, mapping: MappingSpec) -> PayoffMatrix:
    """Apply a scalar payoff mapping entrywise to a preference matrix.

    The diagonal of the result is the mapping's value at exactly 1/2, even
    when stored diagonal entries carry float noise within the validation
    tolerance; the diagonal anchors every downstream symmetry argument.
    """
    # One pass over the entries with 1/2 appended, whose value is the midpoint.
    values = eval_mapping_array(mapping, np.append(pref.p, 0.5))
    mid = values[-1]
    if not np.isfinite(mid):
        raise MappingError(f"mapping {mapping.kind} is not finite at t=0.5")
    a = values[:-1].reshape(pref.n, pref.n)
    np.fill_diagonal(a, mid)
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))[0]
        i, j = int(bad[0]), int(bad[1])
        raise MappingError(
            f"mapping produced non-finite payoff at ({i}, {j}) "
            f"from preference {pref.p[i, j]}"
        )
    return PayoffMatrix(n=pref.n, a=_as_readonly(a))


def _critical_points(spec: MappingSpec) -> np.ndarray:
    """0, 1/2, a table's breakpoints in [0, 1] or a symmetric extension's base
    points up to 1/2, and the mirror 1 - t of each.

    A clamp end ε is not added: f is constant on [0, ε], so 0 stands for it.
    """
    ts = [0.0, 0.5]
    if spec.kind == "piecewise_linear":
        ts += [t for t, _ in spec.points if t <= 1.0]
    elif spec.kind == "symmetric_extension":
        assert spec.base is not None
        ts += [t for t in _critical_points(spec.base) if t <= 0.5]
    return np.array(sorted({*ts, *(1.0 - t for t in ts)}))


def check_conditions(spec: MappingSpec) -> ConditionReport:
    """Decide the three midpoint shape conditions on ``spec``'s critical points.

    The strict below-midpoint test is exact.  The equality test and the
    non-strict tests may miss by ``ROUND_OFF`` times the largest |f| on the
    points.  Each failed condition contributes its worst violation to
    ``witnesses``.
    """
    ts = _critical_points(spec)
    vals = eval_mapping_array(spec, ts)
    mirrored = eval_mapping_array(spec, 1.0 - ts)
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(mirrored))):
        raise MappingError(f"mapping {spec.kind} is not finite on [0, 1]")
    mid = eval_mapping(spec, 0.5)
    allowance = ROUND_OFF * float(np.abs(vals).max())

    below = ts < 0.5
    at_or_above = ~below
    witnesses: list[tuple[float, str]] = []

    upper_gap = vals[at_or_above] - mid
    upper_ok = bool(np.all(upper_gap >= -allowance))
    lower_gap = mid - vals[below]
    lower_ok = bool(np.all(lower_gap > 0.0))
    condorcet_ok = upper_ok and lower_ok
    if not upper_ok:
        i = int(np.argmin(upper_gap))
        t_bad = float(ts[at_or_above][i])
        witnesses.append(
            (t_bad, f"value {vals[at_or_above][i]:.6g} drops below the midpoint value {mid:.6g}")
        )
    if not lower_ok:
        i = int(np.argmin(lower_gap))
        t_bad = float(ts[below][i])
        witnesses.append(
            (t_bad, f"value {vals[below][i]:.6g} is not strictly below the midpoint value {mid:.6g}")
        )

    sym = vals + mirrored - 2.0 * mid
    sym_floor_ok = bool(np.all(sym >= -allowance))
    mixed_ok = condorcet_ok and sym_floor_ok
    if condorcet_ok and not sym_floor_ok:
        i = int(np.argmin(sym))
        witnesses.append(
            (float(ts[i]), f"value plus mirrored value falls {-float(sym[i]):.6g} short of twice the midpoint value")
        )

    sym_exact_ok = bool(np.all(np.abs(sym) <= allowance))
    smith_ok = sym_exact_ok and lower_ok
    if not sym_exact_ok:
        i = int(np.argmax(np.abs(sym)))
        witnesses.append(
            (float(ts[i]), f"value plus mirrored value misses twice the midpoint value by {float(abs(sym[i])):.6g}")
        )

    jump_below = abs(eval_mapping(spec, np.nextafter(0.5, 0.0)) - mid)
    jump_above = abs(eval_mapping(spec, np.nextafter(0.5, 1.0)) - mid)

    return ConditionReport(
        condorcet_ok=condorcet_ok,
        mixed_ok=mixed_ok,
        smith_ok=smith_ok,
        witnesses=tuple(witnesses),
        jump_below=jump_below,
        jump_above=jump_above,
    )


# Each kind's factory and the JSON fields after "kind", in serialization
# order.  The field names are the factory's keyword arguments; a kind
# without ``clamp_epsilon`` has no clamp.
_KINDS = {
    "identity": (identity, ("clamp_epsilon",)),
    "log_odds": (log_odds, ("clamp_epsilon",)),
    "affine": (affine, ("a", "b", "clamp_epsilon")),
    "power": (power, ("k", "clamp_epsilon")),
    "piecewise_linear": (piecewise_linear, ("points", "clamp_epsilon")),
    "piecewise_constant": (piecewise_constant, ("m_minus", "mid", "m_plus")),
    "symmetric_extension": (symmetric_extension, ("base",)),
}


def mapping_to_dict(spec: MappingSpec) -> dict:
    """Serialize a spec to the documented JSON shape; a zero clamp is left out."""
    out: dict = {"kind": spec.kind}
    for key in _KINDS[spec.kind][1]:
        value = getattr(spec, key)
        if key == "points":
            value = [[t, v] for t, v in value]
        elif key == "base":
            value = mapping_to_dict(value)
        elif key == "clamp_epsilon" and not value:
            continue
        out[key] = value
    return out


def _number(data: dict, key: str) -> float:
    try:
        return _real(data[key])
    except (TypeError, ValueError):
        raise MappingError(f"mapping field {key!r} must be a number, got {data[key]!r}") from None


def mapping_from_dict(data: dict) -> MappingSpec:
    """Parse the documented JSON shape; the kind's factory validates the values.

    ``clamp_epsilon`` is optional and defaults to the factory's value.  A
    kind without a clamp accepts only ``"clamp_epsilon": 0``; any other
    field the kind does not have is an error.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise MappingError("mapping JSON must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise MappingError(f"unknown mapping kind {kind!r}; known kinds: {', '.join(_KINDS)}")
    factory, fields = _KINDS[kind]
    for key in data:
        if key == "kind" or key in fields:
            continue
        if key != "clamp_epsilon":
            raise MappingError(f"mapping kind {kind!r} has no field {key!r}")
        clamp = _number(data, key)
        if clamp != 0.0:
            raise MappingError(f"mapping kind {kind!r} has no clamp, got clamp_epsilon={clamp}")
    args = {}
    for key in fields:
        if key not in data:
            if key != "clamp_epsilon":
                raise MappingError(f"mapping JSON for kind {kind!r} is missing field {key!r}")
        elif key == "base":
            args[key] = mapping_from_dict(data[key])
        elif key == "points":
            args[key] = data[key]
        else:
            args[key] = _number(data, key)
    return factory(**args)
