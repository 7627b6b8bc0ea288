"""Guards around the training step: the order in which a graph's backward
enters its layers, an optimiser step that is all or nothing, max pooling
after an eval-mode forward, and the error for a WAV whose rate is too low."""

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, models, nn
from scenecls.features import V1, V2


SMALL_GRAPHS = {
    "lenet-7x7": lambda: models.build_lenet(7, V1, base_filters=2, dense_units=8, seed=1),
    "cnn-1d": lambda: models.build_cnn1d(V1, width=0.05, dense_units=8, seed=2),
    "squeezenet": lambda: models.build_squeezenet_mini(V1, width=0.1, seed=3),
}


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_first_layer_backward_runs_once_and_last(name):
    """The traced benchmark times layer 0's backward as the last child span of
    backward_from_logits, so the graph must enter it exactly once, last."""
    graph = SMALL_GRAPHS[name]()
    calls, returned = [], {}
    for i, layer in enumerate(graph.layers):
        def spy(gout, _i=i, _inner=layer.backward):
            calls.append(_i)
            out = _inner(gout)
            returned[_i] = out
            return out
        layer.backward = spy
    x = np.random.default_rng(0).standard_normal((2, *graph.input_shape))
    probs = graph.forward(x, train=True)
    _, dlogits = nn.cross_entropy(probs, [1, 4])
    assert graph.backward_from_logits(dlogits) is None
    assert calls == list(range(len(graph.layers) - 2, -1, -1))
    assert calls.count(0) == 1 and calls[-1] == 0
    assert returned[0] is None  # a first-layer convolution skips its input gradient
    assert all(returned[i] is not None for i in calls[:-1])


def test_adadelta_step_is_all_or_nothing():
    good, bad = nn.Parameter(np.array([1.0, -2.0]), "good"), nn.Parameter(np.ones(3), "bad")
    good.grad = np.array([0.5, 0.25])
    good.eg2[:], good.edx2[:] = 0.1, 0.2
    bad.grad = np.array([0.0, np.nan, 1.0])
    before = [a.copy() for a in (good.value, good.eg2, good.edx2, bad.value, bad.eg2, bad.edx2)]
    with pytest.raises(nn.OptimizerError, match="bad"):
        nn.Adadelta([good, bad]).step()
    after = (good.value, good.eg2, good.edx2, bad.value, bad.eg2, bad.edx2)
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


def _pool_reference(x, ph, pw, g):
    """Loop oracle: window maxima, and g routed to the first maximum of each
    window in row-major order. x is (N, H, W, C)."""
    n, h, w, c = x.shape
    out = np.zeros((n, h // ph, w // pw, c))
    gx = np.zeros_like(x)
    for b, i, j, k in np.ndindex(out.shape):
        window = x[b, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw, k]
        a, d = divmod(int(np.argmax(window)), pw)
        out[b, i, j, k] = window[a, d]
        gx[b, i * ph + a, j * pw + d, k] = g[b, i, j, k]
    return out, gx


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("ph,pw,shape", [(3, 2, (2, 7, 6, 3)), (2, 2, (1, 5, 4, 2)),
                                         (3, 1, (2, 8, 1, 3))])
def test_maxpool_routes_to_first_maximum(train, ph, pw, shape):
    rng = np.random.default_rng(5)
    x = rng.integers(0, 3, shape).astype(float)  # many ties inside windows
    g = rng.standard_normal((shape[0], shape[1] // ph, shape[2] // pw, shape[3]))
    want_out, want_gx = _pool_reference(x, ph, pw, g)
    if pw == 1:  # the 1-D layer on (N, T, C)
        pool, x, g = nn.MaxPool1D(ph), x[:, :, 0, :], g[:, :, 0, :]
        want_out, want_gx = want_out[:, :, 0, :], want_gx[:, :, 0, :]
    else:
        pool = nn.MaxPool2D(ph, pw)
    np.testing.assert_array_equal(pool.forward(x, train=train), want_out)
    np.testing.assert_array_equal(pool.backward(g), want_gx)


def test_predict_names_file_and_rates_when_wav_rate_is_too_low(tmp_path, capsys):
    ckpt = tmp_path / "v2.spck"
    models.save_model(models.build_lenet(3, V2, base_filters=2, dense_units=8), ckpt)
    wav = tmp_path / "low-rate.wav"
    write_wav(wav, np.random.default_rng(1).uniform(-0.5, 0.5, (1, 16000)), 16000)
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--wav", str(wav)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "low-rate.wav" in err
    assert "16000 Hz" in err and "44100 Hz" in err
