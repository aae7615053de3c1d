"""Pattern input block (section V-B).

"This block is used to acquire the binary input vector (or binary image)
from an external camera.  The size of the input vector, 768 (taken from a
binary image of size 32x24), is pre-programmed and the input is complete
when a total of 768 bits is read from the camera."

The model accepts either a flat 768-bit signature or a 24x32 binary image
(the raster the camera interface actually delivers) and shifts it into the
input register one bit per cycle.
"""

from __future__ import annotations

import numpy as np

from repro.core.tristate import only_states
from repro.errors import ConfigurationError, DimensionMismatchError, HardwareModelError
from repro.hw.clock import ClockDomain


class PatternInputBlock:
    """Shift register that captures one binary signature per acquisition.

    Parameters
    ----------
    n_bits:
        Length of the input vector (768 in the paper).
    image_shape:
        ``(rows, cols)`` of the binary image the camera streams; its product
        must equal ``n_bits``.
    """

    def __init__(self, n_bits: int = 768, image_shape: tuple[int, int] = (24, 32)):
        if n_bits <= 0:
            raise ConfigurationError(f"n_bits must be positive, got {n_bits}")
        rows, cols = image_shape
        if rows * cols != n_bits:
            raise ConfigurationError(
                f"image shape {image_shape} holds {rows * cols} bits, expected {n_bits}"
            )
        self.n_bits = int(n_bits)
        self.image_shape = (int(rows), int(cols))
        self._register = np.zeros(self.n_bits, dtype=np.uint8)
        self._bits_received = 0
        self.acquisitions = 0

    @property
    def cycles_required(self) -> int:
        """One cycle per input bit."""
        return self.n_bits

    @property
    def register(self) -> np.ndarray:
        """Current contents of the input register."""
        return self._register.copy()

    @property
    def acquisition_complete(self) -> bool:
        """Whether the last acquisition shifted in all bits."""
        return self._bits_received == self.n_bits

    def acquire(self, pattern: np.ndarray, clock: ClockDomain | None = None) -> np.ndarray:
        """Shift a full signature (or binary image) into the register.

        Returns the captured vector and charges ``n_bits`` cycles.
        """
        pattern = np.asarray(pattern)
        if pattern.ndim == 2:
            if pattern.shape != self.image_shape:
                raise DimensionMismatchError(
                    self.image_shape[0] * self.image_shape[1], pattern.size, "input image"
                )
            pattern = pattern.reshape(-1)
        if pattern.ndim != 1 or pattern.size != self.n_bits:
            raise DimensionMismatchError(self.n_bits, pattern.size, "input pattern")
        if not only_states(pattern, 1):
            raise HardwareModelError("input pattern must be binary")
        self._bits_received = 0
        for bit_index in range(self.n_bits):
            self._register[bit_index] = pattern[bit_index]
            self._bits_received += 1
        self.acquisitions += 1
        if clock is not None:
            clock.tick(self.cycles_required)
        return self.register
