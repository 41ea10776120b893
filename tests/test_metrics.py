import numpy as np
import pytest

from calibkit.core import Dataset, Predictions
from calibkit.metrics import (
    _equal_mass_groups,
    accuracy,
    ece,
    ece_equal_mass,
    ece_kde,
    equal_width_bins,
    equal_width_totals,
    nll,
    reliability_data,
)
from calibkit.synth import SynthConfig, generate


def four_sample():
    # confidences 0.9 correct, 0.8 correct, 0.7 wrong, 0.3 wrong
    return Predictions(
        predicted_class=np.zeros(4, dtype=int),
        confidence=np.array([0.9, 0.8, 0.7, 0.3]),
        correct=np.array([True, True, False, False]),
    )


def naive_ece(conf, corr, m):
    """Direct transcription of the binned gap formula, used as an oracle."""
    n = len(conf)
    total = 0.0
    for b in range(1, m + 1):
        lo, hi = (b - 1) / m, b / m
        mask = (conf > lo) & (conf <= hi) if b > 1 else (conf >= 0) & (conf <= hi)
        if not mask.any():
            continue
        total += (mask.sum() / n) * abs(corr[mask].mean() - conf[mask].mean())
    return total


def test_reliability_data_hand_partition():
    stats = reliability_data(four_sample(), 2)
    assert stats[0].count == 1
    assert stats[0].mean_confidence == pytest.approx(0.3)
    assert stats[0].accuracy == 0.0
    assert stats[1].count == 3
    assert stats[1].mean_confidence == pytest.approx(0.8)
    assert stats[1].accuracy == pytest.approx(2 / 3)


def test_reliability_data_empty_input():
    stats = reliability_data(Predictions(np.array([], dtype=int), np.array([]), np.array([], dtype=bool)), 5)
    assert len(stats) == 5
    assert all(s.count == 0 and s.mean_confidence == 0.0 and s.accuracy == 0.0 for s in stats)


def test_reliability_data_boundaries():
    preds = Predictions(np.zeros(3, dtype=int), np.array([1.0, 1.0, 1.0]), np.ones(3, dtype=bool))
    stats = reliability_data(preds, 4)
    assert stats[-1].count == 3
    # confidence exactly 0 goes into the first bin
    preds0 = Predictions(np.zeros(1, dtype=int), np.array([0.0]), np.array([False]))
    assert reliability_data(preds0, 4)[0].count == 1


# (M, m) pairs where ceil((m / M) * M) is m + 1, not m
EDGE_CASES = [(25, 7), (25, 14), (50, 14), (50, 28)]


@pytest.mark.parametrize("num_bins,m", EDGE_CASES)
def test_confidence_on_an_edge_lands_in_the_bin_it_closes(num_bins, m):
    c = m / num_bins
    preds = Predictions(np.zeros(1, dtype=int), np.array([c]), np.array([True]))
    (hit,) = [s for s in reliability_data(preds, num_bins) if s.count]
    assert hit.bin == m and hit.upper == c
    assert ece(preds, num_bins) == 1.0 - c


def test_equal_width_bins_match_searchsorted_on_float_edges():
    rng = np.random.default_rng(3)
    for num_bins in range(1, 61):
        edges = np.arange(num_bins + 1) / num_bins
        conf = np.concatenate(
            [rng.uniform(size=500), edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0), [-0.0, -1e-300]]
        )
        expected = np.searchsorted(np.arange(1, num_bins) / num_bins, conf, side="left")
        assert np.array_equal(equal_width_bins(conf, num_bins), expected), num_bins


def test_equal_width_totals_equal_separate_bincounts():
    rng = np.random.default_rng(4)
    for num_bins in (1, 2, 10, 15, 37):
        edges = np.arange(num_bins + 1) / num_bins
        conf = np.concatenate([rng.uniform(size=1000), edges, np.nextafter(edges, 2.0), [-0.0, 1e-300]])
        for correct in (rng.random(conf.size) < 0.6, np.zeros(conf.size, bool), np.ones(conf.size, bool)):
            idx, counts, sum_conf, sum_corr = equal_width_totals(conf, correct, num_bins)
            assert np.array_equal(idx, equal_width_bins(conf, num_bins))
            assert np.array_equal(counts, np.bincount(idx, minlength=num_bins))
            assert sum_conf.tobytes() == np.bincount(idx, weights=conf, minlength=num_bins).tobytes()
            assert np.array_equal(sum_corr, np.bincount(idx, weights=correct, minlength=num_bins))
            assert counts.shape == sum_conf.shape == sum_corr.shape == (num_bins,)


def test_reliability_data_rejects_zero_bins():
    with pytest.raises(ValueError):
        reliability_data(four_sample(), 0)


def test_ece_hand_value():
    assert ece(four_sample(), 2) == pytest.approx(0.175, abs=1e-12)


def test_ece_perfectly_calibrated_degenerate():
    preds = Predictions(np.zeros(5, dtype=int), np.ones(5), np.ones(5, dtype=bool))
    assert ece(preds, 10) == 0.0


def test_ece_single_bin_collapse():
    p = four_sample()
    assert ece(p, 1) == pytest.approx(abs(p.correct.mean() - p.confidence.mean()), abs=1e-15)


def test_ece_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 51))
        conf = rng.uniform(size=n)
        corr = rng.uniform(size=n) < conf
        preds = Predictions(np.zeros(n, dtype=int), conf, corr)
        for m in (1, 2, 7, 15):
            assert ece(preds, m) == pytest.approx(naive_ece(conf, corr.astype(float), m), abs=1e-12)


def test_ece_permutation_invariant():
    rng = np.random.default_rng(4)
    conf = rng.uniform(size=200)
    corr = rng.uniform(size=200) < conf
    preds = Predictions(np.zeros(200, dtype=int), conf, corr)
    perm = rng.permutation(200)
    shuffled = Predictions(np.zeros(200, dtype=int), conf[perm], corr[perm])
    assert ece(preds, 10) == pytest.approx(ece(shuffled, 10), abs=1e-12)
    assert ece_equal_mass(preds, 10) == pytest.approx(ece_equal_mass(shuffled, 10), abs=1e-12)
    assert ece_kde(preds) == pytest.approx(ece_kde(shuffled), abs=1e-9)


def test_ece_equal_mass_hand_value():
    assert ece_equal_mass(four_sample(), 2) == pytest.approx(0.325, abs=1e-12)
    assert [g.size for g in _equal_mass_groups(four_sample().confidence, 2)] == [2, 2]


def test_ece_equal_mass_single_bin():
    p = four_sample()
    assert ece_equal_mass(p, 1) == pytest.approx(abs(p.correct.mean() - p.confidence.mean()))


def test_ece_equal_mass_identical_confidences():
    preds = Predictions(np.zeros(6, dtype=int), np.full(6, 0.7), np.array([1, 0, 1, 1, 0, 0], dtype=bool))
    assert ece_equal_mass(preds, 3) == pytest.approx(abs(0.5 - 0.7))
    assert len(_equal_mass_groups(preds.confidence, 3)) == 1


def test_ece_equal_mass_counts_balanced():
    rng = np.random.default_rng(5)
    conf = rng.uniform(size=103)
    preds = Predictions(np.zeros(103, dtype=int), conf, rng.uniform(size=103) < conf)
    counts = [g.size for g in _equal_mass_groups(preds.confidence, 10)]
    assert max(counts) - min(counts) <= 1


def test_ece_equal_mass_rejects_few_samples():
    with pytest.raises(ValueError):
        ece_equal_mass(four_sample(), 5)


def test_ece_kde_constant_confidence_fallback():
    preds = Predictions(np.zeros(10, dtype=int), np.full(10, 0.8), np.array([1, 0] * 5, dtype=bool))
    assert ece_kde(preds) == pytest.approx(0.3, abs=1e-6)


def test_ece_kde_rejects_tiny_input():
    with pytest.raises(ValueError):
        ece_kde(four_sample())


def test_ece_kde_near_zero_on_calibrated_oracle():
    ds = generate(SynthConfig(num_samples=100_000, regime="global_temp", scale=1.0, seed=11))
    preds = Predictions.from_probs(ds.true_probs, ds.labels)
    assert ece_kde(preds) < 0.01


def test_ece_kde_tracks_binned_ece():
    # smooth miscalibration: both estimators should roughly agree
    from calibkit.core import softmax

    ds = generate(SynthConfig(num_samples=100_000, regime="global_temp", scale=1.4, seed=12))
    preds = Predictions.from_probs(softmax(ds.logits), ds.labels)
    assert abs(ece_kde(preds) - ece(preds, 15)) < 0.005


def test_accuracy_and_nll():
    p = four_sample()
    assert accuracy(p) == pytest.approx(0.5)
    all_correct = Predictions(np.zeros(3, dtype=int), np.full(3, 0.9), np.ones(3, dtype=bool))
    assert accuracy(all_correct) == 1.0
    ds = Dataset(labels=np.array([0, 1, 2]), logits=np.zeros((3, 3)))
    assert nll(ds, np.full((3, 3), 1 / 3)) == pytest.approx(np.log(3))


def test_nll_clamps_zero_probabilities():
    ds = Dataset(labels=np.array([0]), logits=np.zeros((1, 2)))
    value = nll(ds, np.array([[0.0, 1.0]]))
    assert np.isfinite(value)
    assert value == pytest.approx(-np.log(1e-12))


def test_reliability_data_matches_binning():
    assert any(s.count == 0 for s in reliability_data(four_sample(), 10))


def test_reliability_monotone_confidence_means():
    rng = np.random.default_rng(6)
    conf = np.sort(rng.uniform(size=500))
    preds = Predictions(np.zeros(500, dtype=int), conf, rng.uniform(size=500) < conf)
    stats = [s for s in reliability_data(preds, 10) if s.count]
    means = [s.mean_confidence for s in stats]
    assert means == sorted(means)


def test_ece_value_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        conf = rng.uniform(size=n)
        preds = Predictions(np.zeros(n, dtype=int), conf, rng.uniform(size=n) < 0.5)
        assert 0.0 <= ece(preds, int(rng.integers(1, 25))) <= 1.0


def dense_ece_kde(preds):
    """The dense O(1024 * N) KDE-ECE, summing the kernel over every
    confidence; the oracle for the windowed ece_kde."""
    p = preds
    n = len(p)
    conf = p.confidence
    corr = p.correct.astype(float)
    sigma = float(conf.std())
    lo, hi = float(conf.min()), float(conf.max())
    h = float(np.clip(1.06 * sigma * n ** (-0.2), 1e-3, 0.1))
    grid = np.linspace(lo, hi, 1024)
    dp = (hi - lo) / (1024 - 1)
    value = 0.0
    block = 64
    for start in range(0, 1024, block):
        g = grid[start : start + block]
        w = np.exp(-0.5 * ((g[:, None] - conf[None, :]) / h) ** 2)
        wsum = w.sum(axis=1)
        density = wsum / (n * h * np.sqrt(2 * np.pi))
        acc_hat = (w @ corr) / np.maximum(wsum, 1e-12)
        value += float(np.sum(np.abs(acc_hat - g) * density) * dp)
    return value, h


def _random_preds(conf, seed):
    conf = np.asarray(conf)
    correct = np.random.default_rng(seed).uniform(size=len(conf)) < conf
    return Predictions(np.zeros(len(conf), dtype=int), conf, correct)


def _oracle_preds():
    oracle = generate(SynthConfig(num_samples=100_000, regime="heteroscedastic", seed=22))
    return Predictions.from_probs(oracle.true_probs, oracle.labels)


_rng = np.random.default_rng
KDE_CASES = {
    # two clusters at 0.1 and 0.95: sigma ~0.4 on 300 points gives h > 0.1
    "h_clipped_at_0.1": lambda: _random_preds(
        np.concatenate([_rng(1).uniform(0.05, 0.15, 150), _rng(2).uniform(0.9, 1.0, 150)]), 3
    ),
    "h_clipped_at_1e-3": lambda: _random_preds(0.6 + 1e-4 * _rng(4).normal(size=2000), 5),
    "n_10": lambda: _random_preds(_rng(6).uniform(0.2, 1.0, size=10), 7),
    # five outliers 0.4 away from a tight cluster, h ~1e-3: the grid points
    # between them have empty windows, and the dense wsum falls below PROB_FLOOR
    "empty_windows": lambda: _random_preds(
        np.concatenate([0.5 + 1e-4 * _rng(8).normal(size=20_000), 0.9 + 1e-4 * _rng(9).normal(size=5)]), 10
    ),
    "heavy_ties": lambda: _random_preds(_rng(11).choice([0.25, 0.5, 0.5000000000000001, 0.75, 1.0], size=3000), 12),
    "oracle_100k": _oracle_preds,
}


@pytest.mark.parametrize("name", list(KDE_CASES))
def test_ece_kde_matches_dense_oracle(name):
    preds = KDE_CASES[name]()
    expected, h = dense_ece_kde(preds)
    if name.startswith("h_clipped_at_"):
        assert h == float(name.removeprefix("h_clipped_at_"))
    if name == "empty_windows":
        assert np.diff(np.sort(preds.confidence)).max() > 20 * h
    assert ece_kde(preds) == pytest.approx(expected, rel=1e-12, abs=0.0)
