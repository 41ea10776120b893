import tracemalloc

import numpy as np
import pytest

from calibkit.core import Dataset, Predictions, softmax, sorted_topk_matrix


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])


def test_softmax_hand_value():
    # e^2 / (e^2 + 1)
    p = softmax([2.0, 0.0])
    assert abs(p[0] - 0.8808) < 1e-4
    assert abs(p[1] - 0.1192) < 1e-4


def test_softmax_overflow_stability():
    p = softmax([1000.0, 0.0])
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax([np.inf, 0.0])
    with pytest.raises(ValueError):
        softmax([np.nan, 0.0])


def test_softmax_preserves_argmax_randomized():
    rng = np.random.default_rng(0)
    z = rng.normal(scale=rng.uniform(1e-3, 1e3, size=(10_000, 1)), size=(10_000, 7))
    p = softmax(z)
    assert np.array_equal(np.argmax(p, axis=1), np.argmax(z, axis=1))
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_peak_memory_is_its_output():
    """softmax computes in its output buffer, with the bits of the textbook
    z - max, exp and division by the sum: its traced peak stays within 1.5
    times one (N, C) array."""
    z = np.random.default_rng(1).normal(scale=5.0, size=(20_000, 10))
    tracemalloc.start()
    try:
        p = softmax(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ez = np.exp(z - z.max(axis=1, keepdims=True))
    assert p.tobytes() == (ez / ez.sum(axis=1, keepdims=True)).tobytes()
    assert peak <= 1.5 * z.nbytes, f"traced peak {peak / z.nbytes:.2f} arrays"


def top_label(probs):
    """Predicted class and confidence of a single probability row."""
    preds = Predictions.from_probs(np.array([probs]), np.array([0]))
    return int(preds.predicted_class[0]), float(preds.confidence[0])


def test_top_label():
    assert top_label([0.2, 0.7, 0.1]) == (1, 0.7)


def test_top_label_tie_break_lowest_index():
    assert top_label([0.5, 0.5]) == (0, 0.5)


def test_top_label_composes_with_softmax():
    idx, conf = top_label(softmax([2.0, 0.0]))
    assert idx == 0
    assert abs(conf - 0.8808) < 1e-4


def test_sorted_topk_basic():
    z = np.array([[3.0, 1.0, 2.0], [0.0, -1.0, 4.0]])
    assert np.array_equal(sorted_topk_matrix(z, 2), [[3.0, 2.0], [4.0, 0.0]])


def test_sorted_topk_pads_with_smallest():
    z = np.array([[3.0, 1.0, 2.0], [-2.0, 7.0, 0.5]])
    assert np.array_equal(sorted_topk_matrix(z, 5), [[3.0, 2.0, 1.0, 1.0, 1.0], [7.0, 0.5, -2.0, -2.0, -2.0]])


def test_sorted_topk_duplicates():
    z = np.array([[5.0, 5.0, 0.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(sorted_topk_matrix(z, 2), [[5.0, 5.0], [1.0, 1.0]])


def test_sorted_topk_properties_randomized():
    rng = np.random.default_rng(1)
    for _ in range(200):
        c = rng.integers(2, 15)
        k = int(rng.integers(1, 14))
        out = sorted_topk_matrix(rng.normal(size=(3, c)), k)
        assert out.shape == (3, k)
        assert np.all(np.diff(out, axis=1) <= 0)


def test_sorted_topk_matrix_matches_rowwise():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(50, 6))
    m = sorted_topk_matrix(z, 10)
    for i in range(50):
        row = sorted(z[i], reverse=True)
        assert np.array_equal(m[i], row + [row[-1]] * 4)


def test_sorted_topk_matrix_rejects_k_below_one():
    with pytest.raises(ValueError):
        sorted_topk_matrix(np.zeros((2, 3)), 0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(labels=np.array([], dtype=int), logits=np.empty((0, 3)))
    with pytest.raises(ValueError):
        Dataset(labels=np.array([3]), logits=np.array([[1.0, 2.0, 3.0]]))
    ds = Dataset(labels=np.array([0, 1]), logits=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert ds.num_classes == 2
    assert len(ds) == 2


def test_predictions_from_probs():
    probs = np.array([[0.2, 0.8], [0.9, 0.1]])
    labels = np.array([1, 1])
    preds = Predictions.from_probs(probs, labels)
    assert np.array_equal(preds.predicted_class, [1, 0])
    assert np.allclose(preds.confidence, [0.8, 0.9])
    assert np.array_equal(preds.correct, [True, False])
