import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import calibkit.scaling
from calibkit import workers
from calibkit.core import Dataset, Predictions, softmax, sorted_topk_matrix
from calibkit.errors import NumericalError
from calibkit.metrics import ece
from calibkit.scaling import (
    LOG_T_RANGE,
    T_MIN,
    EtsModel,
    PtsTrainConfig,
    TsModel,
    _ece_loss_and_dq,
    _ets_ece_objective,
    _ets_mse_objective,
    _nll_at_temperature,
    _pts_backward_q,
    _pts_q_batch,
    _simplex_grid,
    apply_pts,
    apply_temperature,
    fit_ets,
    fit_pts,
    fit_ts,
    golden_section_minimize,
    pts_ece_loss,
    pts_temperature_batch,
    softplus,
    softplus_inverse,
)
from calibkit.synth import SynthConfig, generate
from calibkit.tinynn import init_mlp, zeros_like_params
from oracles import grad_check, pts_constant_model


def test_golden_section_quadratic():
    assert golden_section_minimize(lambda u: (u - 1.3) ** 2, -5.0, 5.0) == pytest.approx(1.3, abs=1e-4)


def test_apply_temperature_identity_and_softening():
    z = np.array([[2.0, 0.0, -1.0]])
    assert np.allclose(apply_temperature(z, 1.0), softmax(z))
    soft = apply_temperature(z, 10.0)
    assert soft[0].max() < softmax(z)[0].max()
    assert np.argmax(soft) == np.argmax(z)


def test_apply_temperature_rejects_nonpositive():
    with pytest.raises(ValueError):
        apply_temperature(np.zeros((1, 2)), 0.0)
    with pytest.raises(ValueError):
        TsModel(temperature=-1.0, num_classes=2)


def test_fit_ts_recovers_global_scale():
    ds = generate(SynthConfig(num_samples=20_000, regime="global_temp", scale=2.5, seed=17))
    t = fit_ts(ds).temperature
    assert 2.3 <= t <= 2.7
    # scaling by the fitted temperature should nearly reproduce the true probabilities
    assert np.abs(apply_temperature(ds.logits, t) - ds.true_probs).max() < 0.05


def test_fit_ts_near_one_on_calibrated_data():
    ds = generate(SynthConfig(num_samples=20_000, regime="global_temp", scale=1.0, seed=3))
    assert fit_ts(ds).temperature == pytest.approx(1.0, abs=0.05)


def reference_nll(logits, labels, temperature):
    """The validation NLL as fit_ts computed it before the row max and the
    label logits were hoisted out of the search: the bitwise oracle."""
    z = logits / temperature
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


@pytest.mark.parametrize("scale", [1.0, 40.0, 1e-3])
def test_nll_at_temperature_matches_reference_bitwise(scale):
    ds = generate(SynthConfig(num_samples=3000, regime="heteroscedastic", seed=23))
    logits = ds.logits * scale
    row_max = logits.max(axis=1)
    label_logits = logits[np.arange(len(ds)), ds.labels]
    # 240 temperatures across the search range and a little beyond it
    lo, hi = LOG_T_RANGE
    for t in np.exp(np.linspace(lo - 0.5, hi + 0.5, 240)):
        assert _nll_at_temperature(logits, row_max, label_logits, float(t)) == reference_nll(logits, ds.labels, t)


def test_nll_at_temperature_overflow_raises():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(200, 4)) * 1e307
    labels = rng.integers(0, 4, size=200)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(reference_nll(logits, labels, 0.5))
        with pytest.raises(NumericalError, match="validation NLL is not finite"):
            _nll_at_temperature(logits, logits.max(axis=1), logits[np.arange(200), labels], 0.5)


def test_fit_ts_warns_on_single_class():
    ds = Dataset(labels=np.zeros(10, dtype=int), logits=np.random.default_rng(0).normal(size=(10, 3)))
    with pytest.warns(UserWarning):
        fit_ts(ds)


def test_ets_model_validation():
    with pytest.raises(ValueError):
        EtsModel(temperature=2.0, weights=(0.5, 0.6, -0.1), num_classes=5)
    with pytest.raises(ValueError):
        EtsModel(temperature=2.0, weights=(0.5, 0.4, 0.2), num_classes=5)


def test_apply_ets_degenerate_weights():
    z = np.random.default_rng(1).normal(size=(20, 6))
    pure_ts = EtsModel(temperature=3.0, weights=(1.0, 0.0, 0.0), num_classes=6)
    assert np.allclose(pure_ts.apply_probs(z), apply_temperature(z, 3.0))
    pure_id = EtsModel(temperature=3.0, weights=(0.0, 1.0, 0.0), num_classes=6)
    assert np.allclose(pure_id.apply_probs(z), softmax(z))
    uniform = EtsModel(temperature=3.0, weights=(0.0, 0.0, 1.0), num_classes=6)
    assert np.allclose(uniform.apply_probs(z), 1.0 / 6.0)


def test_fit_ets_improves_over_uncalibrated():
    ds = generate(SynthConfig(num_samples=20_000, regime="global_temp", scale=2.5, seed=5))
    test = generate(SynthConfig(num_samples=20_000, regime="global_temp", scale=2.5, seed=6))
    for loss in ("mse", "ece"):
        model = fit_ets(ds, fit_ts(ds), loss=loss)
        assert sum(model.weights) == pytest.approx(1.0, abs=1e-9)
        before = ece(Predictions.from_probs(softmax(test.logits), test.labels), 10)
        after = ece(Predictions.from_probs(model.apply_probs(test.logits), test.labels), 10)
        assert after < before / 3


def test_ets_mse_objective_matches_an_array_of_uniform_probabilities_bitwise():
    """The uniform component as the scalar 1/c gives the quadratic form that
    an (n, c) array of 1/c gives, bit for bit."""

    def reference(p1, p2, labels):
        n, c = p1.shape
        comps = [p1, p2, np.full_like(p1, 1.0 / c)]
        a = np.array([[(comps[i] * comps[j]).sum() / (n * c) for j in range(3)] for i in range(3)])
        b = np.array([comps[i][np.arange(n), labels].mean() / c for i in range(3)])
        return lambda w: np.einsum("gi,ij,gj->g", w, a, w) - 2.0 * w @ b

    grid = _simplex_grid(0.01)
    for n, c, seed in ((7, 3, 1), (1000, 10, 2), (4099, 7, 3)):
        ds = generate(SynthConfig(num_samples=n, num_classes=c, regime="heteroscedastic", seed=seed))
        p1, p2 = softmax(ds.logits / 1.7), softmax(ds.logits)
        got = _ets_mse_objective(p1, p2, ds.labels)(grid)
        assert got.tobytes() == reference(p1, p2, ds.labels)(grid).tobytes()


def test_fit_ets_mse_peak_memory_is_three_score_matrices():
    """The MSE fit holds its two softmax outputs and one product at a time,
    with no (N, C) array of the uniform component."""
    ds = generate(SynthConfig(num_samples=25_000, regime="heteroscedastic", seed=3))
    ts = fit_ts(ds)
    tracemalloc.start()
    try:
        fit_ets(ds, ts, loss="mse")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * ds.logits.nbytes, f"traced peak {peak / 1e6:.1f} MB"


def test_fit_ets_rejects_unknown_loss():
    ds = generate(SynthConfig(num_samples=100, seed=0))
    with pytest.raises(ValueError):
        fit_ets(ds, fit_ts(ds), loss="nll")


def exhaustive_fit_ets(dataset, ts, loss="mse", num_bins=10):
    """fit_ets as it was before the ECE search was pruned: every point of the
    0.01 simplex grid, then every point of the 0.001 lattice around the best
    one, evaluated exactly. The bitwise oracle."""
    t, z, c = ts.temperature, dataset.logits, dataset.num_classes
    p1, p2 = softmax(z / t), softmax(z)
    if loss == "mse":
        objective = _ets_mse_objective(p1, p2, dataset.labels)
    else:
        pred = np.argmax(z, axis=1)
        rows = np.arange(len(dataset))
        objective = _ets_ece_objective(p1[rows, pred], p2[rows, pred], pred == dataset.labels, num_bins, c)
    grid = _simplex_grid(0.01)
    best = grid[int(np.argmin(objective(grid)))]
    deltas = np.arange(-10, 11) * 0.001
    cand = []
    for d1 in deltas:
        for d2 in deltas:
            w1, w2 = best[0] + d1, best[1] + d2
            w3 = 1.0 - w1 - w2
            if w1 >= -1e-12 and w2 >= -1e-12 and w3 >= -1e-12:
                cand.append((max(w1, 0.0), max(w2, 0.0), max(w3, 0.0)))
    cand = np.asarray(cand)
    best = cand[int(np.argmin(objective(cand)))]
    best = best / best.sum()
    return EtsModel(temperature=t, weights=(float(best[0]), float(best[1]), float(best[2])), num_classes=c)


def assert_fit_ets_matches_exhaustive(ds, ts, loss="ece", num_bins=10):
    got = fit_ets(ds, ts, loss=loss, num_bins=num_bins)
    want = exhaustive_fit_ets(ds, ts, loss=loss, num_bins=num_bins)
    assert np.array(got.weights).tobytes() == np.array(want.weights).tobytes()
    assert got.temperature == want.temperature


def _logit_rows(rng, n, c, scale):
    z = rng.normal(size=(n, c)) * scale
    labels = (rng.random((n, 1)) < softmax(z / 2.0).cumsum(axis=1)).argmax(axis=1)
    return z, labels


@pytest.mark.parametrize("loss", ["mse", "ece"])
@pytest.mark.parametrize("regime", ["global_temp", "heteroscedastic", "overconfident_tail"])
def test_fit_ets_matches_exhaustive_search_on_synthetic_sets(regime, loss):
    ds = generate(SynthConfig(num_samples=2000, regime=regime, seed=61))
    assert_fit_ets_matches_exhaustive(ds, fit_ts(ds), loss=loss, num_bins=15)


@pytest.mark.parametrize("num_classes,num_bins", [(5, 10), (4, 10), (10, 1)])
def test_fit_ets_matches_exhaustive_search_on_all_equal_logits(num_classes, num_bins):
    # every confidence is 1/C whatever the weights, up to the rounding of the mix;
    # 1/C is a bin edge when C divides M, so that rounding picks the bin
    labels = np.random.default_rng(num_classes).integers(0, num_classes, size=120)
    ds = Dataset(labels=labels, logits=np.full((120, num_classes), 0.75))
    assert_fit_ets_matches_exhaustive(ds, TsModel(temperature=1.3, num_classes=num_classes), num_bins=num_bins)


@pytest.mark.parametrize("labels", ["duplicated", "all_correct", "all_wrong"])
def test_fit_ets_matches_exhaustive_search_on_degenerate_labels(labels):
    rng = np.random.default_rng(71)
    z, y = _logit_rows(rng, 40, 6, 3.0)
    if labels == "duplicated":
        z, y = np.tile(z, (25, 1)), np.tile(y, 25)
    pred = np.argmax(z, axis=1)
    y = {"duplicated": y, "all_correct": pred, "all_wrong": (pred + 1) % 6}[labels]
    assert_fit_ets_matches_exhaustive(Dataset(labels=y, logits=z), TsModel(temperature=0.6, num_classes=6), num_bins=15)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fit_ets_ece_search_matches_exhaustive_on_arbitrary_sets(force_workers, cpus):
    """With cpus > 1, the bound search is dealt to that many workers at every size."""
    forks = force_workers(cpus)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(
        st.integers(10, 2000),
        st.integers(2, 12),
        st.integers(1, 50),
        st.sampled_from([0.05, 1.0, 4.0, 30.0]),
        st.sampled_from([None, 0, 1]),
        st.floats(0.2, 5.0),
        st.integers(0, 2**32 - 1),
    )
    def check(n, c, num_bins, scale, decimals, temperature, seed):
        z, y = _logit_rows(np.random.default_rng(seed), n, c, scale)
        if decimals is not None:  # rounded logits give ties and repeated rows
            z = np.round(z, decimals)
        ds = Dataset(labels=y, logits=z)
        assert_fit_ets_matches_exhaustive(ds, TsModel(temperature=temperature, num_classes=c), num_bins=num_bins)

    check()
    assert (len(forks) > 0) == (cpus > 1)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fit_ets_ece_search_evaluates_under_1500_of_5592_points(tmp_path, monkeypatch, force_workers, cpus):
    """Counted over this process and every worker: each evaluated point
    appends one byte to a file, in one O_APPEND write per call."""
    forks = force_workers(cpus)
    counts = tmp_path / "evaluated"
    fd = os.open(counts, os.O_CREAT | os.O_WRONLY | os.O_APPEND)

    def counting_objective(*args, make=_ets_ece_objective):
        value = make(*args)
        return lambda w: os.write(fd, b"." * len(np.atleast_2d(w))) and value(w)

    monkeypatch.setattr(calibkit.scaling, "_ets_ece_objective", counting_objective)
    ds = generate(SynthConfig(num_samples=25_000, regime="heteroscedastic", seed=81))
    try:
        fit_ets(ds, fit_ts(ds), loss="ece")
    finally:
        os.close(fd)
    assert 0 < counts.stat().st_size <= 1500  # the exhaustive search evaluates 5151 + 441
    assert len(forks) == 2 * (cpus - 1)  # the coarse grid and the refinement lattice


def test_softplus_inverse_round_trip():
    for y in (1e-3, 0.5, 1.0, 4.0, 30.0):
        assert softplus(np.array(softplus_inverse(y)))[()] == pytest.approx(y, rel=1e-12)
    with pytest.raises(ValueError):
        softplus_inverse(0.0)


def test_pts_train_config_validation():
    with pytest.raises(ValueError):
        PtsTrainConfig(steps=0)
    with pytest.raises(ValueError):
        PtsTrainConfig(loss="nll")
    with pytest.raises(ValueError):
        PtsTrainConfig(hidden=(5, 0))


def test_pts_constant_model_matches_temperature_scaling():
    z = np.random.default_rng(2).normal(size=(50, 10)) * 3.0
    for t in (0.5, 1.0, 2.5):
        model = pts_constant_model(t, num_classes=10)
        assert np.allclose(pts_temperature_batch(z, model), t, atol=1e-12)
        assert np.allclose(apply_pts(z, model), apply_temperature(z, t))


def test_apply_pts_single_row_matches_batch():
    ds = generate(SynthConfig(num_samples=200, regime="heteroscedastic", seed=7))
    model = fit_pts(ds, PtsTrainConfig(steps=50, seed=7))
    batch = apply_pts(ds.logits[:5], model)
    for i in range(5):
        assert np.allclose(apply_pts(ds.logits[i : i + 1], model)[0], batch[i])


def test_ece_loss_and_dq_hand_value():
    # two bins: (0.0, 0.5] holds q=0.3 (wrong), (0.5, 1.0] holds q=0.9, 0.7 (one correct)
    q = np.array([0.3, 0.9, 0.7])
    correct = np.array([False, True, False])
    loss, dq, idx = _ece_loss_and_dq(q, correct, num_bins=2)
    gap_lo = 0.0 - 0.3
    gap_hi = 0.5 - 0.8
    assert loss == pytest.approx((1 / 3) * gap_lo**2 + (2 / 3) * gap_hi**2)
    assert np.array_equal(idx, [0, 1, 1])
    assert dq == pytest.approx((2 / 3) * np.array([0.3 - 0.0, 0.8 - 0.5, 0.8 - 0.5]))


@pytest.mark.parametrize("num_bins,m", [(25, 7), (25, 14), (50, 14), (50, 28)])
def test_binned_losses_put_an_edge_confidence_in_the_bin_it_closes(num_bins, m):
    # c = m/M closes bin m, which also holds the interior point (m - 0.5)/M
    c, below = m / num_bins, (m - 0.5) / num_bins
    q, correct = np.array([c, below]), np.array([True, False])
    expected = (0.5 - (c + below) / 2) ** 2
    loss, _, idx = _ece_loss_and_dq(q, correct, num_bins)
    assert np.array_equal(idx, [m - 1, m - 1])
    assert loss == pytest.approx(expected, rel=1e-12)
    # weights (1, 0, 0) make the ETS confidence exactly q
    objective = _ets_ece_objective(q, np.zeros(2), correct, num_bins, num_classes=4)
    assert objective(np.array([1.0, 0.0, 0.0]))[0] == pytest.approx(expected, rel=1e-12)


def test_pts_gradient_matches_finite_differences():
    """End-to-end check of the analytic gradient through softmax(z/T) and the net."""
    rng = np.random.default_rng(9)
    ds = generate(SynthConfig(num_samples=64, regime="heteroscedastic", seed=9))
    cfg = PtsTrainConfig(hidden=(4, 3), seed=9)
    model = fit_pts(ds, PtsTrainConfig(hidden=(4, 3), steps=30, seed=9))
    zs = sorted_topk_matrix(ds.logits, cfg.topk)
    z = ds.logits.T.copy()  # class-major, as the training loop gathers it
    pred = np.argmax(ds.logits, axis=1)
    corr = pred == ds.labels

    def loss_fn(params):
        q, aux = _pts_q_batch(params, zs, z, model.t_min)
        loss, dq, _ = _ece_loss_and_dq(q, corr, cfg.num_bins)
        return loss, _pts_backward_q(params, aux, z, dq, out=zeros_like_params(params))

    report = grad_check(model.mlp, loss_fn, h=1e-5)
    assert report.max_rel_error <= 1e-4


@pytest.mark.parametrize("raw", [-800.0, 800.0])
def test_pts_backward_is_finite_in_the_sigmoid_tails(raw):
    """dT/draw = 1 / (1 + exp(-raw)): at raw = -800 exp overflows to inf and the
    sigmoid, so every gradient, is 0; at raw = +800 the sigmoid is 1."""
    ds = generate(SynthConfig(num_samples=100, regime="heteroscedastic", seed=19))
    mlp = init_mlp([10, 5, 5, 1], np.random.default_rng(19))
    mlp.weights[-1][...] = 0.0
    mlp.biases[-1][0] = raw  # every sample's network output is raw exactly
    zs = sorted_topk_matrix(ds.logits, 10)
    z = ds.logits.T.copy()
    dq = np.random.default_rng(19).normal(size=len(ds))
    with np.errstate(over="ignore"):  # as in fit_pts
        q, aux = _pts_q_batch(mlp, zs, z, T_MIN)
        grads = _pts_backward_q(mlp, aux, z, dq, out=zeros_like_params(mlp))
    assert np.array_equal(aux[0], np.full(len(ds), raw))
    assert np.isfinite(grads.flat).all()
    if raw < 0:
        assert not grads.flat.any()
    else:
        assert grads.biases[-1][0] != 0.0


@pytest.mark.parametrize("num_classes", [10, 40])  # class-major, then transposed-view batches
def test_fit_pts_bitwise_reproducible(num_classes):
    ds = generate(SynthConfig(num_samples=500, num_classes=num_classes, regime="heteroscedastic", seed=11))
    cfg = PtsTrainConfig(steps=200, seed=11)
    a = fit_pts(ds, cfg)
    b = fit_pts(ds, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.mlp.weights, b.mlp.weights))
    assert all(np.array_equal(x, y) for x, y in zip(a.mlp.biases, b.mlp.biases))


@pytest.mark.parametrize("num_classes", [10, 24, 25, 40])
def test_pts_step_agrees_on_class_major_and_transposed_batches(num_classes):
    """fit_pts feeds the step a class-major copy of the batch up to
    CLASS_MAJOR_MAX_CLASSES classes and a transposed view of the gathered
    rows above; the two differ only in the order numpy adds the classes.
    Some gradient entries are near-cancelling sums over the batch, so the
    gradient is compared as a vector, relative to its norm."""
    ds = generate(SynthConfig(num_samples=1000, num_classes=num_classes, regime="heteroscedastic", seed=num_classes))
    model = fit_pts(ds, PtsTrainConfig(steps=20, batch_size=100, seed=num_classes))
    for batch in (1, 7, 1000):
        rows = ds.logits[:batch]
        zs = sorted_topk_matrix(rows, model.input_width)
        dq = np.random.default_rng(batch).normal(size=batch)
        results = []
        for z in (np.ascontiguousarray(rows.T), rows.T):
            q, aux = _pts_q_batch(model.mlp, zs, z, model.t_min)
            grads = _pts_backward_q(model.mlp, aux, z, dq, out=zeros_like_params(model.mlp))
            results.append((q, aux[3], grads.flat))  # aux is (raw, cache, t, probs, q, top)
        (q_major, p_major, g_major), (q_view, p_view, g_view) = results
        np.testing.assert_allclose(q_major, q_view, rtol=1e-12, atol=0)
        np.testing.assert_allclose(p_major, p_view, rtol=1e-12, atol=0)
        assert np.linalg.norm(g_major - g_view) <= 1e-12 * np.linalg.norm(g_view)


def test_fit_pts_seed_changes_result():
    ds = generate(SynthConfig(num_samples=500, regime="heteroscedastic", seed=11))
    a = fit_pts(ds, PtsTrainConfig(steps=200, seed=11))
    b = fit_pts(ds, PtsTrainConfig(steps=200, seed=12))
    assert not all(np.array_equal(x, y) for x, y in zip(a.mlp.weights, b.mlp.weights))


def test_pts_preserves_argmax():
    ds = generate(SynthConfig(num_samples=2000, regime="heteroscedastic", seed=13))
    model = fit_pts(ds, PtsTrainConfig(steps=300, seed=13))
    probs = model.apply_probs(ds.logits)
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(ds.logits, axis=1))


def test_pts_temperatures_respect_floor():
    ds = generate(SynthConfig(num_samples=500, regime="heteroscedastic", seed=14))
    model = fit_pts(ds, PtsTrainConfig(steps=100, seed=14))
    assert np.all(pts_temperature_batch(ds.logits[:100], model) >= model.t_min)


def test_pts_training_reduces_objective():
    ds = generate(SynthConfig(num_samples=5000, regime="heteroscedastic", seed=15))
    trained = fit_pts(ds, PtsTrainConfig(steps=2000, seed=15))
    untrained = pts_constant_model(1.0, num_classes=ds.num_classes)
    assert pts_ece_loss(trained, ds) < pts_ece_loss(untrained, ds)


def test_fit_pts_mse_loss_trains():
    ds = generate(SynthConfig(num_samples=5000, regime="heteroscedastic", seed=16))
    model = fit_pts(ds, PtsTrainConfig(steps=2000, seed=16, loss="mse"))
    preds = Predictions.from_probs(model.apply_probs(ds.logits), ds.labels)
    raw = Predictions.from_probs(softmax(ds.logits), ds.labels)
    assert ece(preds, 10) < ece(raw, 10)


def weights_sha256(mlp) -> str:
    h = hashlib.sha256()
    for w, b in zip(mlp.weights, mlp.biases):
        h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return h.hexdigest()


# Recorded when the backward pass's sigmoid became 1 / (1 + np.exp(-raw))
# (scipy's expit, which it replaced, differs in the last bit on about 2% of
# inputs); any change to the step's arithmetic changes them. The lr 1e-2
# width-1 run revives a dead unit.
GOLDEN_WEIGHTS = {
    "ece": ({}, "ec66d7bc5392b48c682a0248553dfd718915a6e371c355cfdc6112a9d2026c9e"),
    "mse": ({"loss": "mse"}, "8912c8a8ec5bf9ba0e4e185342ac0cd40ed6eafd5cc32b1c087b1b6a772467fb"),
    "width1_lr1e-3": (
        {"hidden": (1, 1), "learning_rate": 1e-3},
        "2fb366c840819b457af99a5a75aad0f2988d84d78556b3f1091167e7d2e2269f",
    ),
    "width1_lr1e-2": (
        {"hidden": (1, 1), "learning_rate": 1e-2},
        "33b1dffadd4e17718609985104065738daa0bb73e27a7e5d03ea4b78157da3cd",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_WEIGHTS))
def test_fit_pts_weights_match_golden_hash(case):
    overrides, expected = GOLDEN_WEIGHTS[case]
    ds = generate(SynthConfig(num_samples=5000, regime="heteroscedastic", seed=17))
    model = fit_pts(ds, PtsTrainConfig(steps=2000, seed=17, **overrides))
    assert weights_sha256(model.mlp) == expected


# 4 classes pad the top-10 input with each row's smallest logit, and 20
# classes sum a class-major buffer in class order. 40 classes, above
# CLASS_MAJOR_MAX_CLASSES, read the gathered rows through a transposed view,
# which numpy sums pairwise. All three were recorded again with the numpy
# sigmoid, as were the hashes above.
GOLDEN_WEIGHTS_BY_CLASS_COUNT = {
    4: "964a1ac4cb59b20f38bd198c84f91573f3c471ad8af8e2e1d28e62734572e9a0",
    20: "5d4897062420f723d78ec39035489937c495a8ee7abc38f2941b8f99aad514d3",
    40: "43e61ed87d2a3f6fbf399782974d44ccda536b2c13c29af84a0d578cdc73c164",
}


@pytest.mark.parametrize("num_classes", sorted(GOLDEN_WEIGHTS_BY_CLASS_COUNT))
def test_fit_pts_weights_match_golden_hash_at_other_class_counts(num_classes):
    ds = generate(SynthConfig(num_samples=5000, num_classes=num_classes, regime="heteroscedastic", seed=17))
    model = fit_pts(ds, PtsTrainConfig(steps=2000, seed=17))
    assert weights_sha256(model.mlp) == GOLDEN_WEIGHTS_BY_CLASS_COUNT[num_classes]


@pytest.mark.parametrize("cpus", [2, 3])
def test_fit_pts_weights_match_golden_hashes_in_forked_workers(force_workers, cpus):
    """The seven seeded fits above as the items of one forked_items call, as
    compare and the experiments run them: a fit in a worker has the bits of a
    fit here. (With one worker, forked_items is the two tests above.)"""
    cases = [(overrides, 10, digest) for overrides, digest in GOLDEN_WEIGHTS.values()]
    cases += [({}, num_classes, digest) for num_classes, digest in GOLDEN_WEIGHTS_BY_CLASS_COUNT.items()]

    def weights(i):
        overrides, num_classes, _ = cases[i]
        ds = generate(SynthConfig(num_samples=5000, num_classes=num_classes, regime="heteroscedastic", seed=17))
        return weights_sha256(fit_pts(ds, PtsTrainConfig(steps=2000, seed=17, **overrides)).mlp)

    forks = force_workers(cpus)
    assert workers.forked_items(weights, len(cases), cpus) == [digest for _, _, digest in cases]
    assert forks == [1] * (cpus - 1)


def test_fit_pts_overflowing_logits_raise_numerical_error():
    # finite logits near the float range: z / T overflows once T < 1
    rng = np.random.default_rng(0)
    ds = Dataset(labels=rng.integers(0, 4, size=200), logits=rng.normal(size=(200, 4)) * 1e306)
    with pytest.raises(NumericalError, match="non-finite training loss"):
        fit_pts(ds, PtsTrainConfig(steps=20, batch_size=50))
