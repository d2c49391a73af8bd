"""Bit-level operations on raw fixed-point words.

These functions operate on ``int64`` numpy arrays holding two's-complement
words in their low bits (the raw representation used by
:class:`~repro.quant.qtensor.QTensor`).  They implement the physical fault
mechanisms of the paper's fault model (Sec. 3.2): transient bit-flips and
permanent stuck-at-0 / stuck-at-1 faults.

Every operation is one in-place scatter (:func:`scatter_bits`) into a copy
of the buffer.  :func:`apply_bit_ops` (through :func:`inject_sites`) fuses
mixed flip/set/clear site lists into one pass.  No program path mixes fault
kinds; it stays because the benchmark tracer (``perfbench/tracer.py``)
lists it among the ``quant.bits`` spans.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "flip_bits",
    "set_bits",
    "clear_bits",
    "apply_stuck_at",
    "apply_bit_ops",
    "random_bit_positions",
    "scatter_bits",
    "inject_sites",
    "OP_FLIP",
    "OP_SET",
    "OP_CLEAR",
]

#: Bit-operation codes, one per fault mechanism: transient flip (XOR),
#: stuck-at-1 (OR), stuck-at-0 (AND-NOT).  Small integers, so op-code
#: arrays are plain int64.
OP_FLIP = 0
OP_SET = 1
OP_CLEAR = 2


def scatter_bits(
    flat: np.ndarray, elements: np.ndarray, bits: np.ndarray, op_code: int
) -> None:
    """Apply one bit operation to the 1-D ``flat`` in place at the addressed sites.

    ``np.bitwise_*.at`` applies every occurrence of a repeated element
    index, so repeated sites compose like a serial per-site loop.
    """
    masks = np.int64(1) << bits
    if op_code == OP_FLIP:
        np.bitwise_xor.at(flat, elements, masks)
    elif op_code == OP_SET:
        np.bitwise_or.at(flat, elements, masks)
    elif op_code == OP_CLEAR:
        np.bitwise_and.at(flat, elements, ~masks)
    else:
        raise ValueError(f"unknown bit op code {op_code!r}")


def inject_sites(
    flat: np.ndarray, elements: np.ndarray, bits: np.ndarray, op_codes: np.ndarray
) -> None:
    """Apply mixed flip/set/clear operations to the 1-D ``flat`` in place.

    Sites carrying *different* op codes must be distinct; repeated sites
    within one op kind behave like repeated :func:`scatter_bits`
    applications.
    """
    for op_code in (OP_FLIP, OP_SET, OP_CLEAR):
        mask = op_codes == op_code
        if mask.any():
            scatter_bits(flat, elements[mask], bits[mask], op_code)


def _validate_sites(
    raw: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    total_bits: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    raw = np.asarray(raw, dtype=np.int64)
    element_indices = np.asarray(element_indices, dtype=np.int64)
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    if element_indices.shape != bit_positions.shape:
        raise ValueError("element_indices and bit_positions must have the same shape")
    if bit_positions.size and (bit_positions.min() < 0 or bit_positions.max() >= total_bits):
        raise ValueError(
            f"bit positions must lie in [0, {total_bits}), got range "
            f"[{bit_positions.min()}, {bit_positions.max()}]"
        )
    if element_indices.size and (
        element_indices.min() < 0 or element_indices.max() >= raw.size
    ):
        raise ValueError(
            f"element indices must lie in [0, {raw.size}) for a buffer of "
            f"{raw.size} elements, got range "
            f"[{element_indices.min()}, {element_indices.max()}]"
        )
    return raw, element_indices, bit_positions


def flip_bits(
    raw: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Flip ``bit_positions[i]`` of the flat element ``element_indices[i]``.

    Models a transient single-event upset: the logical value of the targeted
    bit is inverted.  Returns a new array; the input is not modified.
    """
    raw, element_indices, bit_positions = _validate_sites(
        raw, element_indices, bit_positions, total_bits
    )
    out = raw.copy()
    scatter_bits(out.reshape(-1), element_indices, bit_positions, OP_FLIP)
    return out


def set_bits(
    raw: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Force the targeted bits to logic 1 (stuck-at-1 behaviour)."""
    raw, element_indices, bit_positions = _validate_sites(
        raw, element_indices, bit_positions, total_bits
    )
    out = raw.copy()
    scatter_bits(out.reshape(-1), element_indices, bit_positions, OP_SET)
    return out


def clear_bits(
    raw: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Force the targeted bits to logic 0 (stuck-at-0 behaviour)."""
    raw, element_indices, bit_positions = _validate_sites(
        raw, element_indices, bit_positions, total_bits
    )
    out = raw.copy()
    scatter_bits(out.reshape(-1), element_indices, bit_positions, OP_CLEAR)
    return out


def apply_stuck_at(
    raw: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    stuck_value: int,
    total_bits: int,
) -> np.ndarray:
    """Apply a stuck-at fault pattern to the targeted bits.

    Parameters
    ----------
    stuck_value:
        0 for stuck-at-0 or 1 for stuck-at-1.
    """
    if stuck_value not in (0, 1):
        raise ValueError(f"stuck_value must be 0 or 1, got {stuck_value}")
    if stuck_value == 1:
        return set_bits(raw, element_indices, bit_positions, total_bits)
    return clear_bits(raw, element_indices, bit_positions, total_bits)


def apply_bit_ops(
    raw: np.ndarray,
    element_indices: np.ndarray,
    bit_positions: np.ndarray,
    op_codes: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Apply mixed flip/set/clear operations in one fused pass.

    ``op_codes[i]`` (one of :data:`OP_FLIP` / :data:`OP_SET` /
    :data:`OP_CLEAR`) is the operation applied to site
    ``(element_indices[i], bit_positions[i])``.  Sites carrying *different*
    op codes must be distinct; the result is then independent of site order
    and bit-identical to applying each op kind through its own
    :func:`flip_bits` / :func:`set_bits` / :func:`clear_bits` call.  Returns
    a new array; the input is not modified.
    """
    raw, element_indices, bit_positions = _validate_sites(
        raw, element_indices, bit_positions, total_bits
    )
    op_codes = np.asarray(op_codes, dtype=np.int64)
    if op_codes.shape != bit_positions.shape:
        raise ValueError("op_codes and bit_positions must have the same shape")
    if op_codes.size and not np.isin(op_codes, (OP_FLIP, OP_SET, OP_CLEAR)).all():
        raise ValueError(
            f"op_codes must be OP_FLIP ({OP_FLIP}), OP_SET ({OP_SET}) or "
            f"OP_CLEAR ({OP_CLEAR})"
        )
    out = raw.copy()
    if op_codes.size:
        inject_sites(out.reshape(-1), element_indices, bit_positions, op_codes)
    return out


#: Below this population the exact historical ``rng.choice`` draw is kept, so
#: every seed used by the existing figures and tests keeps sampling the exact
#: same fault sites.  Above it, ``rng.choice(population, replace=False)``
#: would materialize and permute the full bit population, so the
#: rejection-sampling fast path takes over.
_CHOICE_POPULATION_LIMIT = 1 << 20


def _sample_without_replacement(
    population: int, n_faults: int, rng: np.random.Generator
) -> np.ndarray:
    """First ``n_faults`` distinct values of a uniform with-replacement stream.

    The first n distinct values of an i.i.d. uniform stream are a uniform
    sample without replacement (in order), so this is unbiased.  Memory is
    ``O(n_faults)`` per round instead of ``O(population)``; with
    ``n_faults << population`` duplicates are rare and one round almost
    always suffices.
    """
    out = np.empty(0, dtype=np.int64)
    while out.size < n_faults:
        need = n_faults - out.size
        draws = rng.integers(0, population, size=need + max(16, need // 8), dtype=np.int64)
        combined = np.concatenate([out, draws])
        # Dedup preserving first-occurrence order, so the result is a prefix
        # of the distinct-value stream regardless of how many rounds ran.
        _, first = np.unique(combined, return_index=True)
        out = combined[np.sort(first)]
    return out[:n_faults]


def random_bit_positions(
    num_elements: int,
    total_bits: int,
    bit_error_rate: float,
    rng: np.random.Generator,
    max_faults: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample fault sites for a given bit error rate.

    The total bit population is ``num_elements * total_bits``.  The number of
    faulty bits is drawn so that the expected fraction equals
    ``bit_error_rate``; sites are sampled without replacement so no bit is
    selected twice within one injection.

    Seed compatibility: for populations up to ``2**20`` bits this draws
    through ``rng.choice(population, replace=False)`` exactly as it always
    has, so existing seeds reproduce their historical fault sites
    bit-for-bit (every policy in the repo's figures is far below the
    threshold).  Larger populations switch to a rejection-sampling path that
    never materializes the population — still uniform without replacement,
    but a *different* (pinned, regression-tested) draw for the same seed.

    Returns
    -------
    (element_indices, bit_positions):
        Parallel arrays describing each faulty bit.
    """
    if not 0.0 <= bit_error_rate <= 1.0:
        raise ValueError(f"bit_error_rate must be in [0, 1], got {bit_error_rate}")
    if num_elements < 0:
        raise ValueError("num_elements must be non-negative")
    population = num_elements * total_bits
    if population == 0 or bit_error_rate == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    expected = population * bit_error_rate
    # Round stochastically so tiny BERs on small tensors still inject
    # sometimes rather than always rounding to zero.
    n_faults = int(np.floor(expected))
    if rng.random() < expected - n_faults:
        n_faults += 1
    n_faults = min(n_faults, population)
    if max_faults is not None:
        n_faults = min(n_faults, max_faults)
    if n_faults == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    if population <= _CHOICE_POPULATION_LIMIT or n_faults * 8 >= population:
        flat_sites = rng.choice(population, size=n_faults, replace=False)
    else:
        flat_sites = _sample_without_replacement(population, n_faults, rng)
    element_indices = (flat_sites // total_bits).astype(np.int64)
    bit_positions = (flat_sites % total_bits).astype(np.int64)
    return element_indices, bit_positions
