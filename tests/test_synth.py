import numpy as np
import pytest

from calibkit.core import softmax
from calibkit.synth import SynthConfig, generate, split
from oracles import oracle_calibrated_probs


@pytest.mark.parametrize("regime", ["global_temp", "heteroscedastic", "overconfident_tail"])
def test_inverse_map_recovers_true_probs(regime):
    cfg = SynthConfig(num_samples=5000, regime=regime, seed=31)
    ds = generate(cfg)
    recovered = oracle_calibrated_probs(ds.logits, cfg)
    assert np.abs(recovered - ds.true_probs).max() < 1e-10


def test_inverse_map_with_zero_slope():
    cfg = SynthConfig(num_samples=1000, regime="heteroscedastic", slope=0.0, seed=32)
    ds = generate(cfg)
    assert np.abs(oracle_calibrated_probs(ds.logits, cfg) - ds.true_probs).max() < 1e-10
    cfg_tail = SynthConfig(num_samples=1000, regime="overconfident_tail", slope=0.0, seed=32)
    ds_tail = generate(cfg_tail)
    assert np.abs(oracle_calibrated_probs(ds_tail.logits, cfg_tail) - ds_tail.true_probs).max() < 1e-10


def test_generate_reproducible():
    a = generate(SynthConfig(num_samples=500, regime="heteroscedastic", seed=33))
    b = generate(SynthConfig(num_samples=500, regime="heteroscedastic", seed=33))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.logits, b.logits)
    c = generate(SynthConfig(num_samples=500, regime="heteroscedastic", seed=34))
    assert not np.array_equal(a.logits, c.logits)


def test_global_temp_scale_relation():
    cfg = SynthConfig(num_samples=1000, regime="global_temp", scale=2.5, seed=35)
    ds = generate(cfg)
    assert np.abs(softmax(ds.logits / cfg.scale) - ds.true_probs).max() < 1e-12


def test_labels_match_true_probs_frequencies():
    """Empirical class frequencies within 3 sigma of the generating probabilities."""
    ds = generate(SynthConfig(num_samples=50_000, regime="global_temp", seed=36))
    for c in range(ds.num_classes):
        expected = ds.true_probs[:, c].sum()
        sigma = np.sqrt((ds.true_probs[:, c] * (1 - ds.true_probs[:, c])).sum())
        observed = (ds.labels == c).sum()
        assert abs(observed - expected) < 3 * sigma


def test_labels_mostly_argmax_at_high_concentration():
    ds = generate(SynthConfig(num_samples=20_000, seed=37))
    agree = (ds.labels == np.argmax(ds.true_probs, axis=1)).mean()
    assert 0.5 < agree < 0.95


def test_heteroscedastic_sharpens_wide_margins():
    cfg = SynthConfig(num_samples=10_000, regime="heteroscedastic", seed=38)
    ds = generate(cfg)
    raw_conf = softmax(ds.logits).max(axis=1)
    true_conf = ds.true_probs.max(axis=1)
    # emitted confidences are inflated on average: overconfidence by design
    assert raw_conf.mean() > true_conf.mean() + 0.05


def test_split_sizes_and_disjointness():
    ds = generate(SynthConfig(num_samples=50_000, seed=39))
    val, test = split(ds, (0.25, 0.75), seed=39)
    assert len(val) == 12_500
    assert len(test) == 37_500
    # disjoint: every sample appears exactly once across the two parts
    joined = np.concatenate([val.logits[:, 0], test.logits[:, 0]])
    assert np.unique(joined).size == 50_000


def test_split_reproducible():
    ds = generate(SynthConfig(num_samples=1000, seed=40))
    a, _ = split(ds, (0.5, 0.5), seed=1)
    b, _ = split(ds, (0.5, 0.5), seed=1)
    assert np.array_equal(a.logits, b.logits)


def test_split_carries_true_probs():
    ds = generate(SynthConfig(num_samples=1000, seed=41))
    part = split(ds, (0.3,), seed=2)[0]
    assert part.true_probs is not None
    assert part.true_probs.shape == part.logits.shape


def test_split_validation():
    ds = generate(SynthConfig(num_samples=100, seed=0))
    with pytest.raises(ValueError):
        split(ds, (0.6, 0.6))
    with pytest.raises(ValueError):
        split(ds, (-0.1, 0.5))
    with pytest.raises(ValueError):
        split(ds, ())


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(num_samples=0)
    with pytest.raises(ValueError):
        SynthConfig(num_samples=10, num_classes=1)
    with pytest.raises(ValueError):
        SynthConfig(num_samples=10, regime="nope")
    with pytest.raises(ValueError):
        SynthConfig(num_samples=10, scale=0.0)
    with pytest.raises(ValueError):
        SynthConfig(num_samples=10, regime="heteroscedastic", slope=-0.5)
