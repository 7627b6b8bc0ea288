"""Registry models pinned bit for bit.

For each of the six registry models at seed 0, the SHA-256 of its canonical
spec text and of every persistent tensor (name, dtype, shape and bytes, in
declaration order). A refactor of how models are described or constructed
must leave both digests unchanged, so checkpoints written before it load
and re-save byte for byte.
"""

import hashlib

import pytest

from scenecls import models

PINNED = {
    "cnn-v1": (
        "f48d4879318bca1b962c00fa0b94e18df5b309eef7dd65437ae22b091c3a869f",
        "2059e0432317bfe11ef5956e9c1a59fe8c2009fdecedfa5a2e9837d37d4feaa2",
    ),
    "cnn-v2-1": (
        "b93f1025d3833d28e8e2a7b5e2039b5e6c69905b94985467288d3514dde1719f",
        "61df7710a01234b5c5dfb4731e5861a7ca83414b6b13f5f4ec0554df903a4d80",
    ),
    "cnn-v2-2": (
        "898e4e713465383dfdae902d783c619586c2f31050ee9cf7775d410641925bdb",
        "699c5e096a2fee72153ca0e0d1e354d99a187d73793b104291c6057446d7f1ab",
    ),
    "cnn-v2-3": (
        "857f51d4127305c79f80ae355a76eda411605b724aa14467a82adfae1d5639d9",
        "17f7e16dc0afc2383b7dfdf7b2ebbab90d5500cb89787df2d7af329e613dfd2b",
    ),
    "squeezenet": (
        "00210a1a027ca9a79a77b2627c8efa4e8043ccb17ed2f09e79b5176777cac992",
        "6dbecc85c95e42b8fc1267246b962414f2e1a7a4aff6e25a641b18472aa5d992",
    ),
    "cnn-1d": (
        "428db71e4c1b35d7a01169d08dc7b1234aec8fe746d16701675247bec3041f12",
        "22c81c22e12d2b80195078022efdc2a238c2f43b45e73842ffdab7adbe7cfab4",
    ),
}


def _digests(graph):
    spec = hashlib.sha256(models.format_model_spec(graph).encode("utf-8")).hexdigest()
    h = hashlib.sha256()
    for name, arr in graph.state_tensors():
        h.update(name.encode("utf-8") + b"\0" + str(arr.dtype).encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    return spec, h.hexdigest()


def test_pins_cover_the_registry():
    assert set(PINNED) == set(models.MODEL_NAMES)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_registry_model_bit_identical(name):
    spec, tensors = _digests(models.build_model(name, seed=0))
    assert spec == PINNED[name][0], f"{name}: spec text changed"
    assert tensors == PINNED[name][1], f"{name}: state tensors changed"
