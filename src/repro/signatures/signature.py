"""The :class:`BinarySignature` value object and one-shot extraction helper.

A *binary signature* is the paper's appearance descriptor: a 768-bit vector
obtained by mean-thresholding an object's RGB colour histogram.  This module
wraps the raw bit vector in a small immutable value object so the rest of
the library (SOMs, datasets, the FPGA simulation) can pass signatures around
with their provenance (frame index, track id, label) attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.tristate import only_states
from repro.errors import DataError
from repro.signatures.binarize import ThresholdStrategy, binarize_histogram
from repro.signatures.histogram import HISTOGRAM_BINS, rgb_histogram
from repro.signatures.packing import (
    SIGNATURE_IMAGE_SHAPE,
    pack_bits,
    signature_to_image,
)


@dataclass(frozen=True)
class BinarySignature:
    """An immutable binary appearance signature.

    Attributes
    ----------
    bits:
        ``uint8`` vector of zeros and ones (length 768 in the paper's
        configuration).  The array is copied and made read-only on
        construction so signatures can safely be shared and hashed.
    label:
        Optional identity label (the paper's manually labelled object id).
    track_id:
        Optional id of the track the signature was extracted from.
    frame_index:
        Optional index of the video frame it came from.
    """

    bits: np.ndarray
    label: Optional[int] = None
    track_id: Optional[int] = None
    frame_index: Optional[int] = None

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size == 0:
            raise DataError(
                f"signature bits must be a non-empty 1-D vector, got shape {bits.shape}"
            )
        if not only_states(bits, 1):
            raise DataError("signature bits must contain only zeros and ones")
        bits = bits.astype(np.uint8).copy()
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinarySignature):
            return NotImplemented
        return (
            self.bits.shape == other.bits.shape
            and bool(np.all(self.bits == other.bits))
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash((self.bits.tobytes(), self.label))

    @property
    def popcount(self) -> int:
        """Number of set bits in the signature."""
        return int(self.bits.sum())

    def hamming_distance(self, other: "BinarySignature | np.ndarray") -> int:
        """Hamming distance to another signature or raw bit vector."""
        other_bits = other.bits if isinstance(other, BinarySignature) else np.asarray(other)
        if other_bits.shape != self.bits.shape:
            raise DataError(
                f"cannot compare signatures of lengths {self.bits.size} and "
                f"{other_bits.size}"
            )
        return int(np.count_nonzero(self.bits != other_bits))

    def packed(self) -> np.ndarray:
        """Return the signature packed into bytes (BlockRAM layout)."""
        return pack_bits(self.bits)

    def as_image(self, shape: tuple[int, int] = SIGNATURE_IMAGE_SHAPE) -> np.ndarray:
        """Return the signature as the 2-D binary image the FPGA streams."""
        return signature_to_image(self.bits, shape)

    def with_label(self, label: int) -> "BinarySignature":
        """Return a copy of this signature carrying ``label``."""
        return BinarySignature(
            bits=self.bits.copy(),
            label=int(label),
            track_id=self.track_id,
            frame_index=self.frame_index,
        )


def extract_signature(
    image: np.ndarray,
    mask: np.ndarray | None = None,
    *,
    bins_per_channel: int = HISTOGRAM_BINS // 3,
    strategy: ThresholdStrategy | None = None,
    label: Optional[int] = None,
    track_id: Optional[int] = None,
    frame_index: Optional[int] = None,
) -> BinarySignature:
    """Extract a :class:`BinarySignature` from an image and silhouette mask.

    This is the composition the paper's figure 1 shows on the CPU side:
    histogram the silhouette pixels, threshold at the mean, emit the binary
    signature.

    Parameters
    ----------
    image:
        ``HxWx3`` RGB frame.
    mask:
        Boolean silhouette of the moving object; ``None`` uses every pixel.
    bins_per_channel:
        Bins per colour channel (256 in the paper, 768 bits total).
    strategy:
        Binarisation rule; defaults to the paper's mean threshold.
    label, track_id, frame_index:
        Optional provenance recorded on the resulting signature.
    """
    histogram = rgb_histogram(image, mask, bins_per_channel)
    bits = binarize_histogram(histogram, strategy)
    return BinarySignature(
        bits=bits, label=label, track_id=track_id, frame_index=frame_index
    )
