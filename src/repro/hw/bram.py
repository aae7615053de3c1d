"""Block RAM model with capacity accounting.

Section V-F: "The neurons (weights) of the bSOM are stored onto BlockRAM on
the FPGA chip."  On a Virtex-4 the embedded memories are RAMB16 primitives
of 18 Kbit each (16 Kbit of data plus parity).  The model here provides a
word-addressable memory with a configurable word width, tracks how many
RAMB16 primitives a given capacity consumes, and is used both by the
integrated design (to hold tri-state weights as two bit-planes) and by the
resource estimator that reproduces Table IV's RAM16 row.
"""

from __future__ import annotations

import numpy as np

from repro.core.tristate import only_states
from repro.errors import ConfigurationError, HardwareModelError

#: Usable data bits per Virtex-4 RAMB16 primitive.
RAMB16_BITS = 16 * 1024


class BlockRam:
    """A single word-addressable block memory.

    Parameters
    ----------
    words:
        Number of addressable words.
    word_width:
        Width of each word in bits.
    name:
        Optional label used in error messages and reports.
    """

    def __init__(self, words: int, word_width: int, name: str = "bram"):
        if words <= 0:
            raise ConfigurationError(f"words must be positive, got {words}")
        if word_width <= 0:
            raise ConfigurationError(f"word_width must be positive, got {word_width}")
        self.words = int(words)
        self.word_width = int(word_width)
        self.name = name
        self._data = np.zeros((words, word_width), dtype=np.uint8)
        self.read_count = 0
        self.write_count = 0

    @property
    def capacity_bits(self) -> int:
        """Total storage in bits."""
        return self.words * self.word_width

    @property
    def ramb16_count(self) -> int:
        """Number of RAMB16 primitives needed for this capacity."""
        return -(-self.capacity_bits // RAMB16_BITS)

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.words:
            raise HardwareModelError(
                f"{self.name}: address {address} out of range (0..{self.words - 1})"
            )

    def write(self, address: int, word: np.ndarray) -> None:
        """Write a full word (a binary vector of ``word_width`` bits)."""
        self._check_address(address)
        word = np.asarray(word)
        if word.shape != (self.word_width,):
            raise HardwareModelError(
                f"{self.name}: word of shape {word.shape} does not match width "
                f"{self.word_width}"
            )
        if not only_states(word, 1):
            raise HardwareModelError(f"{self.name}: words must be binary")
        self._data[address] = word.astype(np.uint8)
        self.write_count += 1

    def read(self, address: int) -> np.ndarray:
        """Read a full word."""
        self._check_address(address)
        self.read_count += 1
        return self._data[address].copy()

    def write_bit(self, address: int, bit_index: int, value: int) -> None:
        """Write a single bit of a word (bit-serial interfaces use this)."""
        self._check_address(address)
        if not 0 <= bit_index < self.word_width:
            raise HardwareModelError(
                f"{self.name}: bit index {bit_index} out of range for width "
                f"{self.word_width}"
            )
        if not only_states(value, 1):
            raise HardwareModelError(f"{self.name}: bit value must be 0 or 1")
        self._data[address, bit_index] = value
        self.write_count += 1

    def read_bit(self, address: int, bit_index: int) -> int:
        """Read a single bit of a word."""
        self._check_address(address)
        if not 0 <= bit_index < self.word_width:
            raise HardwareModelError(
                f"{self.name}: bit index {bit_index} out of range for width "
                f"{self.word_width}"
            )
        self.read_count += 1
        return int(self._data[address, bit_index])

    def dump(self) -> np.ndarray:
        """Return a copy of the whole memory as a ``(words, word_width)`` array."""
        return self._data.copy()


class BlockRamBank:
    """A named collection of :class:`BlockRam` instances with usage totals."""

    def __init__(self) -> None:
        self._rams: dict[str, BlockRam] = {}

    def allocate(self, name: str, words: int, word_width: int) -> BlockRam:
        """Create and register a new memory; names must be unique."""
        if name in self._rams:
            raise ConfigurationError(f"a BlockRam named {name!r} already exists")
        ram = BlockRam(words, word_width, name=name)
        self._rams[name] = ram
        return ram

    def __getitem__(self, name: str) -> BlockRam:
        try:
            return self._rams[name]
        except KeyError as exc:
            raise ConfigurationError(f"no BlockRam named {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._rams

    @property
    def total_bits(self) -> int:
        """Total allocated capacity in bits."""
        return sum(ram.capacity_bits for ram in self._rams.values())

    @property
    def total_ramb16(self) -> int:
        """Total RAMB16 primitives consumed by all allocations."""
        return sum(ram.ramb16_count for ram in self._rams.values())

    def report(self) -> dict[str, dict[str, int]]:
        """Per-memory capacity report used by the resource estimator."""
        return {
            name: {
                "words": ram.words,
                "word_width": ram.word_width,
                "bits": ram.capacity_bits,
                "ramb16": ram.ramb16_count,
            }
            for name, ram in self._rams.items()
        }
