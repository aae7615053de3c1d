"""Hamming distances between binary inputs and (tri-state) neuron weights.

Equation 3 of the paper defines the match measure used throughout: the
Hamming distance between the input vector and a neuron, where components in
the ``#`` (don't care) state are skipped.  A neuron whose weight vector is
all ``#`` therefore has distance zero to every input -- a property the paper
calls out explicitly, and one the node-labelling stage has to cope with.

All functions here operate on plain numpy arrays so they can be shared by
the software bSOM, the classifier and the cycle-accurate hardware model
(which recomputes the same quantity bit-serially and is tested against
these reference implementations).

Backend selection
-----------------
The batch functions in this module are *reference* kernels.  The bSOM's
query path routes through the pluggable backends in
:mod:`repro.core.backends`, which add a packed-``uint64`` popcount kernel
and cached, version-invalidated operands on top of the same arithmetic.
All backends are bit-exact; the choice only affects speed.  Measured on
the benchmark grid (768-bit signatures, single-threaded BLAS; see
``BENCH_distance.json``, regenerated by
``benchmarks/test_distance_backends.py``):

========================  =======================================================
backend                   when it wins
========================  =======================================================
``packed`` (uint64)       memory-traffic-bound shapes: single-signature queries
                          and small batches against large maps (3.7x over GEMM
                          at 1024 neurons x batch 1, 3.3x at 1024 x 8, 2.1x at
                          256 x 8) -- the FPGA-shaped workload, and the training
                          loop's winner search.
``gemm`` (float32 BLAS)   compute-bound shapes: large batches, where BLAS
                          register blocking runs near peak FLOPs (2.5-4x over
                          packed from batch 64 up).
``hybrid`` (= ``auto``)   both operand sets prepared and cached together; calls
                          routed conservatively by shape: packed for pairwise
                          at >= 512 neurons with <= 16 rows and for single
                          queries at >= 256 neurons, GEMM otherwise (the
                          2.1x packed win at 256 x 8 is a non-monotonic BLAS
                          island the rule deliberately leaves to GEMM; see
                          ``repro.core.backends.hybrid``).  The default.
``naive`` (oracle)        never on speed -- retained as the correctness oracle
                          the others are asserted bit-exact against.
========================  =======================================================

Re-measure with :func:`repro.core.backends.calibrate_backend` on hosts
whose BLAS/popcount balance differs (e.g. a multi-threaded wide-SIMD
BLAS shifts the crossover toward ``gemm``).

Every function here checks that its binary inputs hold only zeros and
ones, with the library's one O(n) value test
(:func:`repro.core.tristate.only_states`).  There is no switch to skip it:
trusted internal callers (``predict_batch``, the serve shard) score through
the backends, which never re-check.
"""

from __future__ import annotations

import numpy as np

from repro.core.tristate import DONT_CARE, only_states
from repro.errors import DataError, DimensionMismatchError


def _as_binary_vector(x: np.ndarray, name: str = "input") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise DataError(f"{name} must be a one-dimensional vector, got shape {x.shape}")
    if x.size == 0:
        raise DataError(f"{name} must not be empty")
    if not only_states(x, 1):
        raise DataError(f"{name} must contain only zeros and ones")
    return x.astype(np.int8)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Plain Hamming distance between two binary vectors of equal length."""
    a = _as_binary_vector(a, "first vector")
    b = _as_binary_vector(b, "second vector")
    if a.shape != b.shape:
        raise DimensionMismatchError(a.size, b.size, "second vector")
    return int(np.count_nonzero(a != b))


def masked_hamming_distance(weights: np.ndarray, x: np.ndarray) -> int:
    """Hamming distance between one tri-state weight vector and a binary input.

    Components where ``weights == DONT_CARE`` are ignored (equation 3).
    """
    weights = np.asarray(weights)
    x = _as_binary_vector(x)
    if weights.ndim != 1:
        raise DataError(
            f"weight vector must be one-dimensional, got shape {weights.shape}"
        )
    if weights.shape != x.shape:
        raise DimensionMismatchError(weights.size, x.size, "input vector")
    care = weights != DONT_CARE
    return int(np.count_nonzero(care & (weights != x)))


def batch_masked_hamming(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Masked Hamming distance from every tri-state neuron to one input.

    This is the software equivalent of the FPGA's parallel Hamming-distance
    computation unit: all neurons are evaluated "at once".

    Parameters
    ----------
    weights:
        ``(n_neurons, n_bits)`` tri-state matrix over ``{0, 1, DONT_CARE}``.
    x:
        Binary input vector of length ``n_bits``.

    Returns
    -------
    numpy.ndarray
        Integer distances of shape ``(n_neurons,)``.
    """
    weights = np.asarray(weights)
    x = _as_binary_vector(x)
    if weights.ndim != 2:
        raise DataError(
            f"weights must be a 2-D (n_neurons, n_bits) matrix, got shape {weights.shape}"
        )
    if weights.shape[1] != x.size:
        raise DimensionMismatchError(weights.shape[1], x.size, "input vector")
    mismatch = (weights != DONT_CARE) & (weights != x[np.newaxis, :])
    return np.count_nonzero(mismatch, axis=1).astype(np.int64)


def batch_binary_hamming(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hamming distance from every *binary* neuron row to one binary input."""
    weights = np.asarray(weights)
    x = _as_binary_vector(x)
    if weights.ndim != 2:
        raise DataError(
            f"weights must be a 2-D (n_neurons, n_bits) matrix, got shape {weights.shape}"
        )
    if weights.shape[1] != x.size:
        raise DimensionMismatchError(weights.shape[1], x.size, "input vector")
    if not only_states(weights, 1):
        raise DataError("binary weights must contain only zeros and ones")
    return np.count_nonzero(weights != x[np.newaxis, :], axis=1).astype(np.int64)


def pairwise_masked_hamming(weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Masked Hamming distances between every neuron and every input.

    Parameters
    ----------
    weights:
        ``(n_neurons, n_bits)`` tri-state matrix.
    inputs:
        ``(n_samples, n_bits)`` binary matrix.

    Returns
    -------
    numpy.ndarray
        ``(n_samples, n_neurons)`` matrix of distances.  Used by the node
        labeller, by evaluation code and by the serving layer's
        micro-batched ``predict_batch`` to score whole batches at once.

    Notes
    -----
    For a binary input ``x`` the masked mismatch of one bit is
    ``(w == 1) & (x == 0)  |  (w == 0) & (x == 1)``, so the whole distance
    matrix decomposes into one matrix product::

        D = rowsum(W1) + X @ (W0 - W1)^T,   W1 = (W == 1), W0 = (W == 0)

    which runs as a single BLAS GEMM instead of materialising the
    ``(n_samples, n_neurons, n_bits)`` comparison tensor.  ``float32`` is
    exact here: every product is 0 or 1 and every sum is bounded by
    ``n_bits``, far inside the 24-bit integer range of ``float32``.
    """
    weights = np.asarray(weights, dtype=np.int8)
    inputs = np.asarray(inputs)
    if weights.ndim != 2 or inputs.ndim != 2:
        raise DataError("weights and inputs must both be 2-D matrices")
    if weights.shape[1] != inputs.shape[1]:
        raise DimensionMismatchError(weights.shape[1], inputs.shape[1], "input matrix")
    if not only_states(inputs, 1):
        raise DataError("inputs must contain only zeros and ones")
    ones = (weights == 1).astype(np.float32)
    zeros = (weights == 0).astype(np.float32)
    distances = inputs.astype(np.float32) @ (zeros - ones).T
    distances += ones.sum(axis=1)[np.newaxis, :]
    return np.rint(distances).astype(np.int64)
