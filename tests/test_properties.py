"""Property tests: file readers under fuzzed input, exact field-file and
path CSV round-trips, polynomial annihilation by the variations, and
invariances of the 1-d estimator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anisofield import (
    DiscreteFilter,
    GridField2D,
    MalformedFieldFile,
    PathTooShort,
    SampledPath,
    binomial_filter,
    derived_stream,
    estimate_H,
    fbm_path,
    quad_variation,
    read_field,
    read_path_csv,
    write_field,
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
    values=st.integers(0, 6).flatmap(
        lambda M: hnp.arrays(np.float64, (M + 1, M + 1))
    ),
    params=st.one_of(st.none(), st.tuples(_finite, _finite)),
    # 2**64 - 1 is the header's mark for an unknown seed
    seed=st.one_of(st.none(), st.integers(0, 2**64 - 2)),
)
def test_field_file_round_trip_is_exact(workdir, values, params, seed):
    f = workdir / "field.afb"
    write_field(GridField2D(values=values, params_true=params, seed=seed), f)
    back = read_field(f)
    assert back.values.tobytes() == values.tobytes()
    if params is None:
        assert back.params_true is None
    else:
        assert np.array(back.params_true).tobytes() == np.array(params).tobytes()
    assert back.seed == seed


@_settings
@given(seed=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64 - 1)))
@example(seed=-1)
@example(seed=2**64 - 1)
@example(seed=2**64)
def test_field_file_rejects_seed_out_of_range(workdir, seed):
    # 2**64 - 1 would read back as an unknown seed; beyond it u64 overflows
    f = workdir / "bad_seed.afb"
    f.unlink(missing_ok=True)
    field = GridField2D(values=np.zeros((2, 2)), params_true=None, seed=seed)
    with pytest.raises(ValueError, match=r"0\.\.2\^64-2"):
        write_field(field, f)
    assert not f.exists()


@_settings
@given(
    values=st.lists(_finite, max_size=40),
    hurst=st.one_of(st.none(), _finite),
    seed=st.one_of(st.none(), st.integers()),
)
def test_path_csv_round_trip_is_exact(workdir, values, hurst, seed):
    path = SampledPath(values=np.array(values), hurst_true=hurst)
    f = workdir / "path.csv"
    if len(values) < 2:
        # positions k/N need N >= 1
        with pytest.raises(PathTooShort):
            write_path_csv(path, f, seed=seed)
        return
    write_path_csv(path, f, seed=seed)
    back, back_seed = read_path_csv(f)
    assert back.values.tobytes() == path.values.tobytes()
    assert back.hurst_true == hurst
    assert back_seed == seed


@_settings
@given(
    order=st.integers(1, 4),
    extra=st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(
        lambda taps: sum(taps) != 0
    ),
    poly=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    u=st.integers(1, 4),
    n_steps=st.integers(32, 256),
)
def test_quad_variation_annihilates_low_degree_polynomials(order, extra, poly, u, n_steps):
    # a filter of order K (here the K-th difference convolved with taps
    # that do not sum to zero) sends polynomials of degree < K to zero at
    # every dilation, up to round-off
    a = DiscreteFilter(np.convolve(binomial_filter(order).coeffs, extra))
    assert a.order == order
    coef = np.array(poly[:order])
    x = np.polynomial.polynomial.polyval(np.arange(n_steps + 1) / n_steps, coef)
    bound = 32 * np.finfo(float).eps * np.abs(a.coeffs).sum() * np.abs(coef).sum()
    assert quad_variation(x, a, u) <= bound**2


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
