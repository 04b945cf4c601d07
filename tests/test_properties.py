"""Property tests: file readers under fuzzed input, exact path CSV
round-trips, and invariances of the 1-d estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisofield import (
    MalformedFieldFile,
    SampledPath,
    binomial_filter,
    derived_stream,
    estimate_H,
    fbm_path,
    read_field,
    read_path_csv,
    write_path_csv,
)
from anisofield import synthesis

A2 = binomial_filter(2)

_settings = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def _header(M):
    return st.builds(
        lambda h_h, h_v, seed: synthesis._HEADER.pack(b"AFB1", M, h_h, h_v, seed),
        st.floats(),
        st.floats(),
        st.integers(0, 2**64 - 1),
    )


def _sized_body(M):
    size = 8 * (M + 1) ** 2
    return st.one_of(
        st.binary(min_size=size, max_size=size),
        st.binary(max_size=size + 16),
    )


# Arbitrary bytes, bytes behind the right magic, and well-formed headers
# followed by bodies of the right or a wrong length.
_field_blobs = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: b"AFB1" + tail),
    st.integers(0, 2**32 - 1).flatmap(
        lambda M: st.tuples(_header(M), st.binary(max_size=64)).map(b"".join)
    ),
    st.integers(0, 4).flatmap(
        lambda M: st.tuples(_header(M), _sized_body(M)).map(b"".join)
    ),
)


@_settings
@given(blob=_field_blobs)
def test_read_field_parses_or_rejects(workdir, blob):
    f = workdir / "fuzz.afb"
    f.write_bytes(blob)
    try:
        field = read_field(f)
    except MalformedFieldFile:
        return
    M = field.grid_size
    assert len(blob) == synthesis._HEADER.size + 8 * (M + 1) ** 2
    assert field.values.tobytes() == blob[synthesis._HEADER.size:]


_finite = st.floats(allow_nan=False)


@_settings
@given(
    values=st.lists(_finite, min_size=2, max_size=40),
    hurst=st.one_of(st.none(), _finite),
    seed=st.one_of(st.none(), st.integers()),
)
def test_path_csv_round_trip_is_exact(workdir, values, hurst, seed):
    path = SampledPath(values=np.array(values), hurst_true=hurst)
    f = workdir / "path.csv"
    write_path_csv(path, f, seed=seed)
    back, back_seed = read_path_csv(f)
    assert back.values.tobytes() == path.values.tobytes()
    assert back.hurst_true == hurst
    assert back_seed == seed


_paths = st.builds(
    lambda H, key, part: fbm_path(H, 256, derived_stream(31, key))[part],
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1]),
)


@_settings
@given(path=_paths, scale=st.floats(1e-3, 1e3))
def test_estimate_H_scale_invariant(path, scale):
    scaled = SampledPath(values=scale * path.values)
    assert estimate_H(scaled, A2, 2, 1) == pytest.approx(
        estimate_H(path, A2, 2, 1), abs=1e-9
    )


@_settings
@given(path=_paths, shift=st.floats(-100.0, 100.0), slope=st.floats(-100.0, 100.0))
def test_estimate_H_shift_and_trend_invariant(path, shift, slope):
    # an order-2 filter annihilates constants and affine trends
    t = np.arange(path.values.size) * path.step
    moved = SampledPath(values=path.values + shift + slope * t)
    assert estimate_H(moved, A2, 2, 1) == pytest.approx(
        estimate_H(path, A2, 2, 1), abs=1e-9
    )
