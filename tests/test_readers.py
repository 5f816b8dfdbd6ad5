"""Every reader of numbers returns or refuses with a PrefGameError, whatever it is fed.

Matrices, policies, rewards, mapping fields, mapping JSON, table and
generator strengths and ratio-family constants all go through
``core._float_array`` or ``core._real``; generator sizes and seeds, the
degenerate family's n and Monte Carlo's trials, seed and sizes through
``core._integer``.
Fed strings, bytes, booleans, None, nan, ±inf, 1e308, integers beyond the
float range, object arrays and ragged lists, none of them may end in another
exception or let a numpy ``RuntimeWarning`` out.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import prefgame as pg
from prefgame.mappings import _KINDS, mapping_from_dict

SCALARS = st.one_of(
    st.sampled_from(
        ["2", "0.5", "", b"1", True, False, np.bool_(True), None, math.nan, math.inf, -math.inf,
         1e308, -1e308, 5e-324, 10**400, 0, 1, 0.5, 0.75, 1.0 - 1e-16]
    ),
    st.floats(),
    st.integers(),
)


def _object_array(items: list) -> np.ndarray:
    """A 1-d object array holding ``items`` as they are, nested lists included."""
    out = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        out[i] = item
    return out


TYPED_ARRAYS = arrays(
    st.sampled_from([np.float64, np.int64, np.bool_, "U3", "S3", np.complex128]),
    array_shapes(min_dims=0, max_dims=2, max_side=3),
)
VALUES = st.recursive(
    st.one_of(SCALARS, TYPED_ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(_object_array),
    ),
    max_leaves=12,
)
# Square matrices of scalars, as lists and as object arrays, reach the checks past the reader.
MATRICES = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(SCALARS, min_size=n, max_size=n), min_size=n, max_size=n)
).flatmap(lambda rows: st.sampled_from([rows, np.array(rows, dtype=object)]))


def _returns_or_refuses(call) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except pg.PrefGameError:
            pass


@pytest.mark.parametrize("reader", [pg.make_payoff, pg.make_policy, pg.validate_preferences, pg.make_btl])
@settings(deadline=None, max_examples=150)
@given(raw=st.one_of(VALUES, MATRICES, st.lists(SCALARS, max_size=4)))
def test_array_readers(reader, raw):
    _returns_or_refuses(lambda: reader(raw))


# Each factory by the JSON fields it takes; symmetric_extension takes a spec, not numbers.
FACTORIES = sorted(set(_KINDS) - {"symmetric_extension"})


@pytest.mark.parametrize("kind", FACTORIES)
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_mapping_factories(kind, data):
    factory, fields = _KINDS[kind]
    required = {key: VALUES for key in fields if key != "clamp_epsilon"}
    args = data.draw(st.fixed_dictionaries(required, optional={"clamp_epsilon": VALUES} if "clamp_epsilon" in fields else {}))
    _returns_or_refuses(lambda: factory(**args))


def _mapping_dicts(kind: str):
    fields = dict.fromkeys(_KINDS[kind][1], st.one_of(SCALARS, VALUES))
    return st.fixed_dictionaries({"kind": st.just(kind)}, optional={"clamp_epsilon": SCALARS, **fields})


MAPPING_DICTS = st.recursive(
    st.sampled_from(FACTORIES).flatmap(_mapping_dicts),
    lambda base: st.fixed_dictionaries({"kind": st.just("symmetric_extension"), "base": base}),
    max_leaves=4,
)


@settings(deadline=None, max_examples=300)
@given(data=st.one_of(MAPPING_DICTS, VALUES))
def test_mapping_from_dict(data):
    _returns_or_refuses(lambda: mapping_from_dict(data))


@settings(deadline=None, max_examples=150)
@given(t=VALUES, t1=SCALARS, t2=SCALARS, low=SCALARS, high=SCALARS)
def test_scalar_readers(t, t1, t2, low, high):
    _returns_or_refuses(lambda: pg.eval_mapping(pg.identity(), t))
    for kind in ("table2", "table4", "table6"):
        _returns_or_refuses(lambda: pg.table_preferences(kind, t1, t2 if kind != "table2" else None))
    _returns_or_refuses(lambda: pg.GeneratorConfig(n=3, seed=0, strength_low=low, strength_high=high))
    _returns_or_refuses(lambda: pg.btl_family(t1))
    _returns_or_refuses(lambda: pg.degenerate_family(3, c=t1, c2=t2))
    _returns_or_refuses(lambda: pg.GeneratorConfig(n=t1, seed=t2))
    _returns_or_refuses(lambda: pg.degenerate_family(t1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: pg.GeneratorConfig(n="3", seed=0), pg.ValidationError, "n must be an integer, got '3'"),
        (lambda: pg.GeneratorConfig(n=3.5, seed=0), pg.ValidationError, "n must be an integer, got 3.5"),
        (lambda: pg.GeneratorConfig(n=3, seed=True), pg.ValidationError, "seed must be an integer, got True"),
        (lambda: pg.degenerate_family("3"), pg.ValidationError, "n must be an integer, got '3'"),
        (lambda: pg.degenerate_family(1), pg.ValidationError, "n must be >= 2, got 1"),
        (lambda: pg.monte_carlo(pg.identity(), trials="5"), pg.ValidationError, "trials must be an integer, got '5'"),
        (lambda: pg.monte_carlo(pg.identity(), trials=0), pg.ValidationError, "trials must be positive, got 0"),
        (lambda: pg.monte_carlo(pg.identity(), 2, seed=1.0), pg.ValidationError, "seed must be an integer, got 1.0"),
        (lambda: pg.monte_carlo(pg.identity(), 2, n_range=5), pg.ValidationError, "n_range must be a pair"),
        (lambda: pg.monte_carlo(pg.identity(), 2, n_range=(3, "8")), pg.ValidationError, "n_max must be an integer"),
        (lambda: pg.monte_carlo(pg.identity(), 2, n_range=(1, 8)), pg.ValidationError, "n_min must be >= 2, got 1"),
        (lambda: pg.symmetric_extension("x"), pg.MappingError, "base mapping must be a MappingSpec, got 'x'"),
    ],
    ids=[
        "config-n-string", "config-n-float", "config-seed-boolean", "degenerate-n-string", "degenerate-n-one",
        "trials-string", "trials-zero", "seed-float", "n-range-int", "n-max-string", "n-min-one", "extension-base",
    ],
)
def test_integer_and_spec_arguments_are_typed_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)
