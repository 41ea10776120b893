import numpy as np
import pytest

from calibkit.binning import (
    StepFunction,
    _replace_top_confidence,
    fit_hist_binning,
    fit_irm,
    fit_irova,
    fit_irova_ts,
    fit_pbmc,
    pav,
)
from calibkit.core import Dataset, softmax
from calibkit.scaling import fit_ts
from calibkit.synth import SynthConfig, generate


def isotonic_maxmin(ys):
    """Exact unweighted isotonic solution via the max-min averaging formula."""
    n = len(ys)
    out = np.empty(n)
    for i in range(n):
        best = -np.inf
        for j in range(i + 1):
            worst = min(np.mean(ys[j : k + 1]) for k in range(j, n))
            best = max(best, worst)
        out[i] = best
    return out


def test_pav_monotone_input_unchanged():
    ys = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(pav(np.arange(3.0), ys), ys)


def test_pav_decreasing_input_pools_to_mean():
    assert np.allclose(pav(np.arange(3.0), [3.0, 2.0, 1.0]), [2.0, 2.0, 2.0])


def test_pav_partial_pool():
    assert np.allclose(pav(np.arange(3.0), [1.0, 3.0, 2.0]), [1.0, 2.5, 2.5])


def test_pav_weighted_hand_value():
    fitted = pav(np.arange(3.0), [0.0, 1.0, 0.0], weights=[1.0, 1.0, 2.0])
    assert np.allclose(fitted, [0.0, 1 / 3, 1 / 3])


def test_pav_matches_maxmin_oracle():
    rng = np.random.default_rng(20)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        ys = rng.normal(size=n)
        assert np.allclose(pav(np.arange(n, dtype=float), ys), isotonic_maxmin(ys), atol=1e-12)


def test_pav_idempotent():
    rng = np.random.default_rng(21)
    ys = rng.normal(size=40)
    xs = np.arange(40.0)
    once = pav(xs, ys)
    assert np.allclose(pav(xs, once), once, atol=1e-12)


def test_pav_output_is_nondecreasing():
    rng = np.random.default_rng(22)
    fitted = pav(np.arange(200.0), rng.normal(size=200))
    assert np.all(np.diff(fitted) >= -1e-12)


def list_pav(xs, ys, weights=None):
    """The list-based pool-adjacent-violators loop that pav replaced, kept as
    its bitwise oracle: pav must make the same merges with the same
    arithmetic."""
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[0]
    if n == 0:
        return np.empty(0)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    means, sizes, wsums = [], [], []
    with np.errstate(all="ignore"):
        for i in range(n):
            means.append(ys[i])
            wsums.append(w[i])
            sizes.append(1)
            while len(means) > 1 and means[-1] <= means[-2]:
                m2, w2, s2 = means.pop(), wsums.pop(), sizes.pop()
                m1, w1, s1 = means.pop(), wsums.pop(), sizes.pop()
                wt = w1 + w2
                means.append((m1 * w1 + m2 * w2) / wt)
                wsums.append(wt)
                sizes.append(s1 + s2)
    return np.repeat(means, sizes)


def assert_pav_matches_oracle(ys, weights=None):
    xs = np.arange(len(ys), dtype=float)
    expected = list_pav(xs, ys, weights)
    with np.errstate(all="ignore"):
        got = pav(xs, ys, weights)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


NAN, INF = float("nan"), float("inf")
PAV_CASES = {
    "one_point": ([0.3], None),
    "ties": ([0.5, 0.5, 0.5, 0.2, 0.2, 0.9, 0.9, 0.1], None),
    "weighted": ([0.0, 1.0, 0.3, 0.7, 0.1], [1.0, 3.0, 0.5, 2.0, 7.0]),
    "tiny_weights": ([1.0, 0.0, 0.5], [5e-324, 1e-300, 2.5e-310]),
    "huge_weights": ([0.9, 0.1, 0.4, 0.2], [1e308, 1e308, 5e307, 1.7e308]),
    "inf_weight": ([0.9, 0.1, 0.4], [1.0, INF, 1.0]),
    "nan_values": ([0.2, NAN, 0.1, 0.3, NAN, NAN, 0.0], None),
    "nan_first": ([NAN, 0.5, 0.4], None),
    "infinities": ([INF, 1.0, -INF, 2.0, INF, INF, -INF], None),
    "inf_then_neg_inf": ([INF, -INF], [2.0, 1.0]),
    "huge_values": ([1e308, -1e308, 1.7e308, 1.7e308], [3.0, 1.0, 1.0, 2.0]),
    "cascade": ([5.0, 4.0, 6.0, 3.0, 7.0, 2.0, 8.0, 1.0, 0.0], None),
    "all_decreasing": (list(np.linspace(1.0, 0.0, 50)), None),
    "binary_targets": (list((np.random.default_rng(5).random(500) < np.linspace(0, 1, 500)).astype(float)), None),
}


@pytest.mark.parametrize("case", sorted(PAV_CASES))
def test_pav_matches_list_oracle_bitwise(case):
    ys, weights = PAV_CASES[case]
    assert_pav_matches_oracle(np.array(ys), None if weights is None else np.array(weights))


def test_pav_reads_strided_and_integer_inputs():
    ys = np.random.default_rng(6).normal(size=(40, 3))
    assert pav(np.arange(40.0), ys[:, 1]).tobytes() == list_pav(np.arange(40.0), ys[:, 1].copy()).tobytes()
    ints = [3, 1, 2, 2, 0, 5]
    assert pav(np.arange(6.0), ints).tobytes() == list_pav(np.arange(6.0), ints).tobytes()


def test_pav_matches_list_oracle_on_arbitrary_inputs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0]) | st.floats(allow_nan=True, allow_infinity=True)
    weight = st.sampled_from([1.0, 2.0, 0.5]) | st.floats(min_value=5e-324, allow_infinity=True)
    points = st.lists(st.tuples(value, weight), min_size=1, max_size=60)

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(points, st.booleans())
    def check(pts, weighted):
        ys = np.array([y for y, _ in pts])
        assert_pav_matches_oracle(ys, np.array([w for _, w in pts]) if weighted else None)

    check()


def test_pav_validation():
    with pytest.raises(ValueError):
        pav(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        pav(np.arange(2.0), np.zeros(3))
    with pytest.raises(ValueError):
        pav(np.arange(2.0), np.zeros(2), weights=[1.0, 0.0])
    assert pav(np.empty(0), np.empty(0)).size == 0


def test_step_function_lookup():
    f = StepFunction(x=np.array([0.2, 0.5, 0.8]), y=np.array([0.1, 0.4, 0.9]))
    assert f(0.0) == 0.1  # constant extrapolation below
    assert f(0.2) == 0.1  # knot value applies from the knot itself
    assert f(0.49) == 0.1
    assert f(0.5) == 0.4
    assert f(1.0) == 0.9
    assert np.array_equal(f(np.array([0.0, 0.6, 0.9])), [0.1, 0.4, 0.9])


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(x=np.array([0.1, 0.1]), y=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        StepFunction(x=np.array([0.1, 0.2]), y=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StepFunction(x=np.empty(0), y=np.empty(0))


def test_hist_binning_hand_values():
    # two equal-mass bins; low bin 0/2 correct, high bin 2/2 correct
    logits = np.log(np.array([[0.55, 0.45], [0.6, 0.4], [0.9, 0.1], [0.95, 0.05]]))
    labels = np.array([1, 1, 0, 0])
    model = fit_hist_binning(Dataset(labels=labels, logits=logits), num_bins=2)
    assert np.allclose(model.outputs, [0.0, 1.0])
    assert np.allclose(model.apply_confidence(np.array([0.5, 0.99])), [0.0, 1.0])


def test_hist_binning_output_changes_with_bin_accuracy():
    logits = np.log(np.array([[0.55, 0.45], [0.6, 0.4], [0.9, 0.1], [0.95, 0.05]]))
    flipped = fit_hist_binning(Dataset(labels=np.array([0, 1, 0, 0]), logits=logits), num_bins=2)
    assert np.allclose(flipped.outputs, [0.5, 1.0])


def test_hist_binning_probs_are_valid():
    ds = generate(SynthConfig(num_samples=2000, regime="global_temp", seed=23))
    model = fit_hist_binning(ds, 10)
    probs = model.apply_probs(ds.logits)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_hist_binning_rejects_tiny_dataset():
    ds = generate(SynthConfig(num_samples=5, seed=0))
    with pytest.raises(ValueError):
        fit_hist_binning(ds, 10)


def test_irova_witness_changes_a_prediction():
    """Fit data where the top class is always wrong; the per-class isotonic
    maps then invert the ranking on a matching test point."""
    probs_fit = np.array([[0.6, 0.4], [0.7, 0.3], [0.8, 0.2]])
    ds = Dataset(labels=np.array([1, 1, 1]), logits=np.log(probs_fit))
    model = fit_irova(ds)
    out = model.apply_probs(np.log(np.array([[0.6, 0.4]])))
    assert np.argmax(out[0]) == 1


def test_irova_probs_are_valid():
    ds = generate(SynthConfig(num_samples=3000, regime="heteroscedastic", seed=24))
    probs = fit_irova(ds).apply_probs(ds.logits)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_irm_preserves_argmax():
    ds = generate(SynthConfig(num_samples=3000, regime="heteroscedastic", seed=25))
    test = generate(SynthConfig(num_samples=3000, regime="heteroscedastic", seed=26))
    probs = fit_irm(ds).apply_probs(test.logits)
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(test.logits, axis=1))
    assert np.allclose(probs.sum(axis=1), 1.0)


def stable_isotonic_step_function(p, t):
    """The isotonic fit as it was written with a stable argsort: the bitwise
    reference for the fitters' unstable sort."""
    order = np.argsort(p, kind="stable")
    ps, ts = p[order], t[order].astype(float)
    ux, start = np.unique(ps, return_index=True)
    counts = np.diff(np.append(start, ps.shape[0]))
    sums = np.add.reduceat(ts, start)
    return StepFunction(x=ux, y=pav(ux, sums / counts, counts.astype(float)))


def test_isotonic_fits_on_tied_scores_match_stable_sort_bitwise():
    ds = generate(SynthConfig(num_samples=4000, num_classes=4, regime="heteroscedastic", seed=29))
    ds = Dataset(labels=ds.labels, logits=np.round(ds.logits))  # many tied scores
    probs = softmax(ds.logits)
    onehot = (ds.labels[:, None] == np.arange(ds.num_classes)).astype(float)
    assert np.unique(probs).size < probs.size / 4
    fitted = [(m, probs[:, c], onehot[:, c]) for c, m in enumerate(fit_irova(ds).maps)]
    fitted.append((fit_irm(ds).shared_map, probs.ravel(), onehot.ravel()))
    for got, p, t in fitted:
        want = stable_isotonic_step_function(p, t)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()


def test_irova_ts_composes():
    ds = generate(SynthConfig(num_samples=3000, regime="global_temp", seed=27))
    model = fit_irova_ts(ds, fit_ts(ds))
    manual = model.irova.apply_to_probs(model.ts.apply_probs(ds.logits))
    assert np.allclose(model.apply_probs(ds.logits), manual)


def test_pbmc_preserves_argmax():
    ds = generate(SynthConfig(num_samples=5000, regime="global_temp", seed=28))
    test = generate(SynthConfig(num_samples=5000, regime="global_temp", seed=29))
    model = fit_pbmc(ds, num_bins=10, seed=28)
    probs = model.apply_probs(test.logits)
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(test.logits, axis=1))
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_pbmc_outputs_in_unit_interval():
    ds = generate(SynthConfig(num_samples=5000, regime="heteroscedastic", seed=30))
    model = fit_pbmc(ds, num_bins=10, seed=30)
    assert np.all(model.outputs >= 0.0)
    assert np.all(model.outputs <= 1.0)


def test_pbmc_rejects_tiny_dataset():
    ds = generate(SynthConfig(num_samples=20, seed=0))
    with pytest.raises(ValueError):
        fit_pbmc(ds, num_bins=10)


def test_replace_top_confidence_rescales_rest():
    probs = np.array([[0.5, 0.3, 0.2]])
    out = _replace_top_confidence(probs, np.array([0.8]), preserve_argmax=False)
    assert out[0, 0] == pytest.approx(0.8)
    assert out[0, 1] == pytest.approx(0.2 * 0.3 / 0.5)
    assert out.sum() == pytest.approx(1.0)


def test_replace_top_confidence_argmax_clamp():
    probs = np.array([[0.4, 0.35, 0.25]])
    free = _replace_top_confidence(probs, np.array([0.1]), preserve_argmax=False)
    assert np.argmax(free[0]) != 0
    clamped = _replace_top_confidence(probs, np.array([0.1]), preserve_argmax=True)
    assert np.argmax(clamped[0]) == 0
    assert clamped.sum() == pytest.approx(1.0)
