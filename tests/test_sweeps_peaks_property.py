"""The regime peak finder against scipy.signal.find_peaks, the rule it
reproduces: on short series with plateaus, ties and zeros both keep the
same peaks at every prominence floor."""
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from supracentrality.sweeps import _prominent_peaks

_series = st.one_of(
    st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=40),
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1e-300, 7.0]), min_size=1, max_size=40),
    st.lists(st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
             min_size=1, max_size=40),
    st.integers(1, 40).map(lambda n: [0.0] * n),
)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_series, st.sampled_from(["zero", "fraction", "prominence", "above"]),
       st.sampled_from([0.01, 0.3, 1.0]), st.integers(0, 39))
def test_prominent_peaks_match_scipy_find_peaks(x, floor_kind, fraction, pick):
    prominences = find_peaks(x, prominence=0.0)[1]["prominences"].tolist()
    if floor_kind == "zero":
        floor = 0.0
    elif floor_kind == "fraction":
        floor = fraction * max(x)
    elif prominences:  # exactly one peak's prominence, or just above it
        floor = prominences[pick % len(prominences)]
        if floor_kind == "above":
            floor = floor * (1 + 1e-12)
    else:
        floor = fraction
    assert _prominent_peaks(x, floor) == tuple(find_peaks(x, prominence=floor)[0].tolist())
