"""Dyadic quantile coupling of exponential sums to a Brownian motion."""

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from empcouple.coupling import (
    CoupledPath,
    _sums_from_brownian,
    couple_batch,
    couple_exponential_sums,
    fit_kmt_tail,
    max_discrepancy,
    snap_to_integer,
)
from empcouple.numerics import ClampCounter
from empcouple.rng import RngStream
from oracles import gamma2_median, naive_max_discrepancy, refine_reference


def _forced_sums(m, w_values):
    w = np.asarray([w_values], dtype=float)
    return _sums_from_brownian(m, w, ClampCounter())[0]


def test_median_coupling_m1():
    # W(1) = 0 maps through Phi(0) = 1/2 to the Exp(1) median ln 2
    s = _forced_sums(1, [0.0, 0.0])
    assert s[1] == pytest.approx(math.log(2.0), abs=1e-12)


def test_median_coupling_m2():
    # W(2) = 0 and zero midpoint deviation give the Gamma(2) median, split evenly
    s = _forced_sums(2, [0.0, 0.0, 0.0])
    med = gamma2_median()
    assert med == pytest.approx(1.67835, abs=1e-5)
    assert s[2] == pytest.approx(med, abs=1e-10)
    assert s[1] == pytest.approx(s[2] / 2.0, abs=1e-12)


def test_couple_requires_power_of_two():
    with pytest.raises(ValueError):
        couple_exponential_sums(12, RngStream(0))


def test_path_shape_and_monotonicity():
    path = couple_exponential_sums(64, RngStream(3))
    assert path.m == 64
    assert path.S.shape == (65,) and path.W.shape == (65,)
    assert path.S[0] == 0.0 and path.W[0] == 0.0
    assert np.all(np.diff(path.S) > 0)


def test_path_determinism():
    a = couple_exponential_sums(128, RngStream(11, 5))
    b = couple_exponential_sums(128, RngStream(11, 5))
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.W, b.W)


def test_max_discrepancy_against_loop():
    path = couple_exponential_sums(256, RngStream(7))
    val, at = max_discrepancy(path)
    oval, oat = naive_max_discrepancy(path.S, path.W, path.m)
    assert val == oval and at == oat


def test_max_discrepancy_zero_for_identical_paths():
    k = np.arange(0, 9, dtype=float)
    s = k + np.sin(k)  # any values; W := S - k makes the gap vanish
    path = CoupledPath(m=8, S=s, W=s - k, stream=RngStream(0), clamp_count=0)
    assert max_discrepancy(path)[0] == 0.0


def test_refinement_deterministic_and_nested():
    path = couple_exponential_sums(16, RngStream(2))
    path.freeze(3)
    mid = path.values_at(np.asarray([4.5, 7.25]), 3).copy()
    again = path.values_at(np.asarray([4.5, 7.25]), 3)
    np.testing.assert_array_equal(mid, again)
    # deeper refinement must not move already-materialized grid values
    path.freeze(5)
    np.testing.assert_array_equal(path.values_at(np.asarray([4.5, 7.25]), 3), mid)
    np.testing.assert_array_equal(path.values_at(np.arange(17.0), 5), path.W)
    # every grid read equals the level-by-level reference refinement, bit for
    # bit, whether the path is refined at once or through shallower depths;
    # extents 2048 and 2049 span several chunks of the deepest levels
    chains = [(d,) for d in range(7)] + [(3, 6)]
    for m, extent in ((1, 1), (4, 3), (64, 33), (2048, 2048), (4096, 2049)):
        for chain in chains + ([(2, 5, 12)] if extent < 64 else []):
            path = couple_exponential_sums(m, RngStream(2, m), extent=extent)
            for depth in chain:
                path.freeze(depth)
                ref = refine_reference(path, depth)
                for d in range(depth + 1):
                    np.testing.assert_array_equal(path.grid(d), ref[:: 1 << (depth - d)])
            assert path.refinement_depth == chain[-1]


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# sha256 of the bytes of S then W of ``couple_exponential_sums(m,
# RngStream(20261021, m), extent)``, by (m, extent), and of S then W of
# ``couple_batch(256, 50, RngStream(20261021, 7))``.  Recorded with numpy
# 2.4.6 and scipy 1.17.1; a change of either may move the last bits.
_COUPLING_DIGESTS = {
    (1, 1): "9fdd5b05b8adf7563da20cb0cf1918d40a024f49fd4270dd93a5b6a045c1b5dd",
    (2, 2): "a155ef737c7a0fcf9448c749bfe840bb3eabe70a6999d425ec9feff7a9c97417",
    (256, 256): "8dda5fa9aaadd47d891176f7a206280df1ba533dc7d4093bcd7d95c7b5efe205",
    (4096, 2049): "e95da0c885454008595a1e48833039d3acd36837e84ff855a59defcfbe6ee048",
    (4096, 4096): "cc905ce95021615d3621f5d5612ed32a3993bfee13473f4f34fbb92f1c6373e9",
}
_BATCH_DIGEST = "91f13c34fc3a16ef37f673a8fece3bad64850b017308dfc208910e2024aeb495"


def test_coupling_bits_unchanged():
    # the coupled sums and Brownian values stay bit-identical across changes
    # to how the levels are drawn and inverted
    for (m, extent), expected in _COUPLING_DIGESTS.items():
        path = couple_exponential_sums(m, RngStream(20261021, m), extent)
        assert _sha256(path.S, path.W) == expected, (m, extent)
        assert path.clamp_count == 0
    counter = ClampCounter()
    s, w = couple_batch(256, 50, RngStream(20261021, 7), counter)
    assert _sha256(s, w) == _BATCH_DIGEST
    assert counter.count == 0


def test_clamps_counted_at_every_level():
    # a W row whose standardized deviations leave the inversion range at the
    # top and at four levels below it: 7 clamps over [0, 64], 6 over [0, 37],
    # and the same sums as before, bit for bit
    m, w = 64, np.zeros(65)
    w[m] = 80.0  # Phi(10) rounds to 1
    deviation = {32: 300.0, 48: -200.0, 2: -100.0, 10: 60.0, 1: -40.0, 61: 50.0}
    step = m
    while step > 1:
        half = step // 2
        for mid in range(half, m, step):
            w[mid] = 0.5 * (w[mid - half] + w[mid + half]) + deviation.get(mid, 0.0)
        step = half
    for extent, clamps, expected in (
        (None, 7, "baf73b82f5fffb85ba6058e842f0396c1df707f543c2d74c19c4afffffae8b9a"),
        (37, 6, "b0977c994b532cc002eda2076db335f436714dfa0957e39b89dc1d3037238e84"),
    ):
        counter = ClampCounter()
        s = _sums_from_brownian(m, w[None], counter, extent)
        assert counter.count == clamps
        assert _sha256(s) == expected


def test_values_at_origin_and_integers():
    path = couple_exponential_sums(8, RngStream(4))
    path.freeze(2)
    assert path.values_at(np.asarray([0.0]), 2)[0] == 0.0
    np.testing.assert_array_equal(path.values_at(np.arange(9.0), 2), path.W)


def test_values_at_rejects_out_of_range():
    path = couple_exponential_sums(4, RngStream(1))
    path.freeze(1)
    with pytest.raises(ValueError):
        path.values_at(np.asarray([4.5]), 1)
    # past a refined extent below m there are no values to return
    path = couple_exponential_sums(4, RngStream(1), extent=3)
    path.freeze(1)
    path.values_at(np.asarray([3.0]), 1)
    with pytest.raises(ValueError):
        path.values_at(np.asarray([3.5]), 1)


@pytest.mark.parametrize("m", [16, 64])
def test_truncated_freeze_is_prefix(m):
    # a path coupled and refined over [0, extent] holds the full path's sums
    # and refined values there, bit for bit, at every depth
    for extent in (1, m // 2 + 1, m):
        full = couple_exponential_sums(m, RngStream(8, m))
        part = couple_exponential_sums(m, RngStream(8, m), extent=extent)
        assert part.extent == extent and full.extent == m
        np.testing.assert_array_equal(part.S, full.S[: extent + 1])
        np.testing.assert_array_equal(part.W, full.W)
        assert part.clamp_count <= full.clamp_count
        assert max_discrepancy(part) == naive_max_discrepancy(full.S, full.W, extent)
        for depth in range(7):
            full.freeze(depth)
            part.freeze(depth)
            t = np.arange((extent << depth) + 1) / (1 << depth)
            np.testing.assert_array_equal(part.values_at(t, depth), full.values_at(t, depth))
            assert part._fine.size == (extent << depth) + 1
    with pytest.raises(ValueError):
        couple_exponential_sums(m, RngStream(8, m), extent=m + 1)


def test_concurrent_first_reads_agree():
    # threads racing to refine a fresh path at mixed depths each read the
    # values of the path refined alone
    ref = couple_exponential_sums(64, RngStream(9), extent=40)
    depths = (6, 3, 0, 5, 1, 6, 2, 4) * 3
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for _ in range(5):
                path = couple_exponential_sums(64, RngStream(9), extent=40)
                futures = [pool.submit(path.grid, d) for d in depths]
                for d, fut in zip(depths, futures):
                    np.testing.assert_array_equal(fut.result(timeout=60), ref.grid(d))
    finally:
        sys.setswitchinterval(old)


def test_concurrent_first_extremes_reads_agree():
    # threads racing on a fresh path's first extremes read, at one (depth,
    # size) or at mixed ones, each get the arrays of the path read alone
    keys = ((6, 64), (6, 64), (3, 4), (6, 64), (0, 4), (6, 4)) * 4
    want = {}
    for key in set(keys):
        want[key] = couple_exponential_sums(64, RngStream(9), extent=40).extremes(*key)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for mixed in (False, True, False, True, False):
                path = couple_exponential_sums(64, RngStream(9), extent=40)
                asked = keys if mixed else [(6, 64)] * len(keys)
                futures = [pool.submit(path.extremes, *key) for key in asked]
                for key, fut in zip(asked, futures):
                    np.testing.assert_array_equal(fut.result(timeout=60), want[key])
    finally:
        sys.setswitchinterval(old)


def test_extremes_are_chunk_extremes():
    # row 0 and row 1 hold the least and greatest grid value over each chunk
    # of cells [i, i + 1) 2**-depth of [0, extent), the last chunk short
    path = couple_exponential_sums(64, RngStream(9), extent=40)
    for depth, size in ((0, 4), (3, 7), (6, 64), (2, 1000)):
        cells = path.grid(depth)[:-1]
        ext = path.extremes(depth, size)
        assert ext.shape == (2, -(-cells.size // size))
        for c, chunk in enumerate(np.split(cells, np.arange(size, cells.size, size))):
            assert (ext[0, c], ext[1, c]) == (chunk.min(), chunk.max())


def test_snap_to_integer():
    n = 10
    s = 0.7
    assert snap_to_integer(np.asarray([s * n]))[0] == 7.0
    assert snap_to_integer(np.asarray([7.3]))[0] == 7.3
    assert snap_to_integer(np.asarray([6.9999999999999991]))[0] == 7.0


def test_batch_matches_marginals():
    s, w = couple_batch(64, 3000, RngStream(21))
    # top-level marginals: S_m ~ Gamma(m, 1), W(m)/sqrt(m) ~ N(0, 1)
    assert stats.kstest(s[:, 64], "gamma", args=(64.0,)).pvalue > 0.01
    assert stats.kstest(w[:, 64] / 8.0, "norm").pvalue > 0.01
    # split ratio at the top block ~ Beta(m/2, m/2)
    assert stats.kstest(s[:, 32] / s[:, 64], "beta", args=(32.0, 32.0)).pvalue > 0.01


def test_fit_kmt_tail_contracts():
    with pytest.raises(ValueError):
        fit_kmt_tail([64], 50, RngStream(0))
    fit = fit_kmt_tail([128], 150, RngStream(8))
    assert math.isnan(fit.C_hat)  # growth fit refused on a single size
    assert fit.mu_hat > 0


def test_fit_kmt_tail_growth():
    fit = fit_kmt_tail([64, 128, 256, 512], 150, RngStream(9))
    assert fit.C_hat > 0
    assert fit.mu_hat > 0
    assert fit.growth_r2 > 0.7
