"""The tie rule of the accuracy-preserving calibrators as a property: on any
finite logits z, p[i, argmax(z_i)] == max(p_i) for TS, ETS (both losses),
PTS, IRM and PBMC. Rounding may tie another class with the top logit's
class, never lift it above. The only other allowed outcome is
NumericalError, which the CLI reports as exit 3. Histbin, IROvA and
IROvA-TS make no such promise."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from calibkit.errors import NumericalError  # noqa: E402
from calibkit.experiments import fit_method  # noqa: E402
from calibkit.synth import SynthConfig, generate  # noqa: E402

CLASS_COUNTS = (2, 10, 100)
METHODS = [("ts", None), ("ets", "mse"), ("ets", "ece"), ("pts", None), ("irm", None), ("pbmc", None)]


@pytest.fixture(scope="module")
def models():
    """Each method fitted once per class count, on 2 000 heteroscedastic rows (PTS: 200 steps)."""
    fitted = {}
    for c in CLASS_COUNTS:
        ds = generate(SynthConfig(num_samples=2000, num_classes=c, regime="heteroscedastic", seed=17))
        fitted[c] = [fit_method(m, ds, loss, seed=17, num_bins=10, steps=200) for m, loss in METHODS]
    return fitted


@st.composite
def tied_logits(draw):
    """A few rows of N(0, 1) logits times a scale from 1e-300 to 1e307, or
    -1e300. In each row some classes are set to the top logit (an exact tie)
    or to a few ulps below it (a near-tie)."""
    c = draw(st.sampled_from(CLASS_COUNTS))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 3.0, 1e-12, 1e-300, 1e300, -1e300, 1e307]))
    z = scale * rng.standard_normal((rows, c))
    for i in range(rows):
        top = z[i].max()
        for j in draw(st.lists(st.integers(0, c - 1), max_size=3)):
            z[i, j] = top
            for _ in range(draw(st.integers(0, 3))):  # 0 leaves an exact tie
                z[i, j] = np.nextafter(z[i, j], -np.inf)
    return c, z


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(drawn=tied_logits())
def test_top_logit_class_keeps_the_row_maximum(models, drawn):
    c, z = drawn
    top = np.argmax(z, axis=1)
    for model in models[c]:
        try:
            p = model.apply_probs(z)
        except NumericalError:
            continue
        assert np.array_equal(p[np.arange(len(z)), top], p.max(axis=1)), model.kind
