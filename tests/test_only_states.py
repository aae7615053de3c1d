"""The library's one zeros-and-ones (and tri-state) value check.

:func:`repro.core.tristate.only_states` replaced a sort-based scan,
``np.all(np.isin(np.unique(x), allowed))``.  That scan lives on here as
the oracle: the property test draws arrays over every dtype and awkward
value the check can meet and asserts both give the same verdict.  The
boundary tests then pin each public entry point to the exception type it
raised before the check was unified.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BinarySom, KohonenSom, SomClassifier
from repro.core.distance import (
    batch_binary_hamming,
    batch_masked_hamming,
    hamming_distance,
    masked_hamming_distance,
    pairwise_masked_hamming,
)
from repro.core.som import validate_binary_matrix
from repro.core.tristate import (
    DONT_CARE,
    TriStateWeights,
    only_states,
    tristate_from_binary,
)
from repro.errors import DataError, HardwareModelError
from repro.hw.blocks.pattern_input import PatternInputBlock
from repro.hw.bram import BlockRam
from repro.serve import ServiceConfig, StreamingInferenceService
from repro.signatures.packing import (
    image_to_signature,
    pack_bits,
    pack_signature_batch,
    packed_signature_words,
    signature_key,
    signature_to_image,
)
from repro.signatures.signature import BinarySignature

DTYPES = (np.bool_, np.uint8, np.int8, np.int64, np.float32, np.float64)
VALUES = (0.0, 1.0, 2.0, -1.0, 0.5, -0.0, float("nan"))


def oracle(values: np.ndarray, allowed: tuple[int, ...]) -> bool:
    """The sort-based check every call site used before ``only_states``."""
    return bool(np.all(np.isin(np.unique(values), allowed)))


def cast(values: list[float], dtype) -> np.ndarray:
    """``values`` as ``dtype`` the way a caller's array would hold them.

    Floats keep every value.  Bool maps each through ``bool()``.  Integer
    arrays cannot hold fractions or NaN, so those are dropped, and -1
    wraps in unsigned dtypes (to 255 in ``uint8``).
    """
    kind = np.dtype(dtype).kind
    if kind == "f":
        return np.asarray(values, dtype=dtype)
    if kind == "b":
        return np.asarray(values, dtype=np.float64).astype(dtype)
    exact = [v for v in values if v == v and float(v).is_integer()]
    return np.asarray(exact, dtype=np.int64).astype(dtype)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(VALUES), min_size=0, max_size=24),
    st.sampled_from(DTYPES),
    st.sampled_from((1, DONT_CARE)),
)
def test_only_states_matches_the_sort_based_oracle(values, dtype, maximum):
    array = cast(values, dtype)
    allowed = tuple(range(maximum + 1))
    assert only_states(array, maximum) == oracle(array, allowed)
    if array.size % 2 == 0:
        matrix = array.reshape(2, -1)
        assert only_states(matrix, maximum) == oracle(matrix, allowed)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("maximum", (1, DONT_CARE))
def test_only_states_every_single_value(dtype, maximum):
    allowed = tuple(range(maximum + 1))
    for value in VALUES:
        array = cast([value], dtype)
        assert only_states(array, maximum) == oracle(array, allowed), (dtype, value)


def test_only_states_empty_and_scalar():
    assert only_states(np.zeros(0), 1)
    assert only_states(np.array(1), 1)
    assert not only_states(np.array(2), 1)
    assert only_states(np.array(2), DONT_CARE)


# --------------------------------------------------------------------- #
# Every public boundary still rejects what it rejected before
# --------------------------------------------------------------------- #
BAD_BITS = (2, -1, 0.5, float("nan"))
BAD_STATES = (3, -1, 0.5, float("nan"))


def _bits(bad, n=8):
    bits = np.zeros(n, dtype=np.float64)
    bits[n // 2] = bad
    return bits


def _fitted(som):
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, size=(24, 8), dtype=np.int8)
    return SomClassifier(som).fit(X, np.repeat(np.arange(3), 8), epochs=1, seed=0)


BIT_BOUNDARIES = {
    "pack_bits": lambda v: pack_bits(v),
    "pack_signature_batch": lambda v: pack_signature_batch(v[np.newaxis, :]),
    "signature_key": lambda v: signature_key(v),
    "packed_signature_words": lambda v: packed_signature_words(v),
    "signature_to_image": lambda v: signature_to_image(v, shape=(2, 4)),
    "image_to_signature": lambda v: image_to_signature(v.reshape(2, 4)),
    "BinarySignature": lambda v: BinarySignature(v),
    "validate_binary_matrix": lambda v: validate_binary_matrix(v[np.newaxis, :]),
    "hamming_distance": lambda v: hamming_distance(v, np.zeros(8)),
    "masked_hamming_distance": lambda v: masked_hamming_distance(np.zeros(8), v),
    "batch_masked_hamming": lambda v: batch_masked_hamming(np.zeros((2, 8)), v),
    "batch_binary_hamming.input": lambda v: batch_binary_hamming(np.zeros((2, 8)), v),
    "batch_binary_hamming.weights": lambda v: batch_binary_hamming(
        v[np.newaxis, :], np.zeros(8)
    ),
    "pairwise_masked_hamming": lambda v: pairwise_masked_hamming(
        np.zeros((2, 8)), v[np.newaxis, :]
    ),
    "BinarySom.distances": lambda v: BinarySom(4, 8, seed=0).distances(v),
    "BinarySom.distance_matrix": lambda v: BinarySom(4, 8, seed=0).distance_matrix(
        v[np.newaxis, :]
    ),
    "BinarySom.partial_fit": lambda v: BinarySom(4, 8, seed=0).partial_fit(v, 0, 1),
    "BinarySom.fit": lambda v: BinarySom(4, 8, seed=0).fit(v[np.newaxis, :], 1),
    "KohonenSom.distance_matrix": lambda v: KohonenSom(4, 8, seed=0).distance_matrix(
        v[np.newaxis, :]
    ),
    "SomClassifier.predict_batch": lambda v: _fitted(
        BinarySom(4, 8, seed=0)
    ).predict_batch(v[np.newaxis, :]),
    "SomClassifier.predict_one": lambda v: _fitted(BinarySom(4, 8, seed=0)).predict_one(v),
    "TriStateWeights.from_bitplanes.value": lambda v: TriStateWeights.from_bitplanes(
        v, np.ones(8)
    ),
    "TriStateWeights.from_bitplanes.care": lambda v: TriStateWeights.from_bitplanes(
        np.zeros(8), v
    ),
    "tristate_from_binary": lambda v: tristate_from_binary(v),
}


@pytest.mark.parametrize("bad", BAD_BITS)
@pytest.mark.parametrize("name", sorted(BIT_BOUNDARIES))
def test_bit_boundaries_raise_data_error(name, bad):
    with pytest.raises(DataError):
        BIT_BOUNDARIES[name](_bits(bad))


@pytest.mark.parametrize("bad", BAD_STATES)
def test_tristate_boundary_raises_data_error(bad):
    with pytest.raises(DataError):
        TriStateWeights(_bits(bad))
    assert TriStateWeights(np.array([0, 1, DONT_CARE])).n_bits == 3


@pytest.mark.parametrize("bad", BAD_BITS)
def test_hardware_boundaries_raise_hardware_model_error(bad):
    with pytest.raises(HardwareModelError):
        BlockRam(words=2, word_width=8).write(0, _bits(bad))
    with pytest.raises(HardwareModelError):
        PatternInputBlock(n_bits=8, image_shape=(2, 4)).acquire(_bits(bad))
    with pytest.raises(HardwareModelError):
        PatternInputBlock(n_bits=8, image_shape=(2, 4)).acquire(_bits(bad).reshape(2, 4))


@pytest.mark.parametrize("bad", BAD_BITS)
def test_service_submit_raises_data_error(bad):
    service = StreamingInferenceService(config=ServiceConfig(n_shards=1))
    service.register_model("m", _fitted(BinarySom(4, 8, seed=0)))
    with service:
        with pytest.raises(DataError):
            service.submit(_bits(bad), model="m")
        assert service.pending_requests == 0


@pytest.mark.parametrize(
    "good",
    (np.array([0, 1, 1, 0], dtype=bool), np.array([-0.0, 1.0, 1.0, 0.0])),
)
def test_boundaries_accept_bool_and_negative_zero(good):
    assert pack_bits(good).tolist() == [0b01100000]
    assert hamming_distance(good, np.array([0, 1, 1, 0])) == 0
