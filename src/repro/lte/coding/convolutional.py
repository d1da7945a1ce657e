"""Tail-biting convolutional code (36.212 §5.1.3.1) with Viterbi decoding.

Rate 1/3, constraint length 7, generators (133, 171, 165) octal.  The
encoder is tail-biting: the shift register starts loaded with the last six
message bits, so the start and end states coincide and no tail bits are
transmitted.

Performance notes.  The encoder is a vectorised circular XOR (tail-biting
makes every output a cyclic convolution of the message with the generator
taps).  The decoder is a windowed numpy Viterbi over the 64 states.  Each
tail-biting block is cut into windows of ``WINDOW`` message bits, and each
window is extended circularly by ``WRAP_MARGIN`` steps on both sides so
the survivor paths converge before the bits that are kept.  The windows
of every block in a call, whatever its length, are stacked on the batch
axis and decoded in one trellis sweep of at most ``WINDOW + 2 *
WRAP_MARGIN`` steps: a 20 MHz LTE frame's ten transport blocks (~10.6k
bits each) become ~60 windows and one ~2.2k-step sweep.  A block of at
most ``WINDOW`` bits is a single window with the full-trellis decoder's
margin, so its output is bit-identical to :func:`viterbi_decode_reference`
at any noise level.

The sweep uses the shift-register structure of the trellis: the state
after input ``u`` from state ``s`` is ``(u << 5) | (s >> 1)``, so state
``n`` is entered from states ``2 * (n & 31) + {0, 1}`` with input bit
``n >> 5``, and the traceback is shifts on the state index.  Only 8
distinct output triples exist, so each step correlates every window with
8 sign patterns and gathers the 128 branch metrics from them.

:func:`viterbi_decode_reference` is the full-trellis decoder (one sweep
over the whole circularly extended block), kept as the differential
oracle, as :func:`conv_encode_reference` is for the encoder.
"""

from __future__ import annotations

import numpy as np

#: Constraint length K.
CONSTRAINT_LENGTH = 7

#: 1/R — three coded bits per message bit.
CODE_RATE_INVERSE = 3

#: Generator polynomials, octal 133/171/165, as K-bit taps (MSB = newest bit).
_GENERATORS = (0o133, 0o171, 0o165)

_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)

#: Steps of circular extension on each side of the trellis; ~14 constraint
#: lengths, ample for survivor-path convergence.
WRAP_MARGIN = 96

#: Message bits kept per window of the windowed decoder.  Blocks up to
#: this long decode exactly as the full-trellis reference does.
WINDOW = 2048


def _build_tables():
    """Precompute next-state and output tables for every (state, input)."""
    next_state = np.zeros((_N_STATES, 2), dtype=np.int64)
    outputs = np.zeros((_N_STATES, 2, CODE_RATE_INVERSE), dtype=np.int8)
    for state in range(_N_STATES):
        for bit in (0, 1):
            register = (bit << (CONSTRAINT_LENGTH - 1)) | state
            next_state[state, bit] = register >> 1
            for g_index, g in enumerate(_GENERATORS):
                outputs[state, bit, g_index] = bin(register & g).count("1") & 1
    return next_state, outputs


_NEXT_STATE, _OUTPUTS = _build_tables()


def _predecessor_table():
    """(new_state, candidate) -> (previous_state, input_bit)."""
    table = np.zeros((_N_STATES, 2, 2), dtype=np.int64)
    counts = np.zeros(_N_STATES, dtype=np.int64)
    for state in range(_N_STATES):
        for bit in (0, 1):
            new = _NEXT_STATE[state, bit]
            table[new, counts[new]] = (state, bit)
            counts[new] += 1
    assert np.all(counts == 2), "trellis must have exactly two predecessors"
    return table


_PREDECESSORS = _predecessor_table()
_PREV_STATE = _PREDECESSORS[:, :, 0]  # (64, 2)
_PREV_INPUT = _PREDECESSORS[:, :, 1]  # (64, 2)

#: Branch correlation signs, flattened to (128, 3) over (state*2 + input).
_SIGNS_FLAT = (1.0 - 2.0 * _OUTPUTS.astype(float)).reshape(-1, CODE_RATE_INVERSE)


def conv_encode(bits):
    """Encode a message; returns ``3 * len(bits)`` coded bits.

    Coded bits are interleaved per step: d0(0), d1(0), d2(0), d0(1), ...
    Tail-biting makes each stream a circular convolution, so the whole
    encoder is seven rolled XORs.

    >>> coded = conv_encode(np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.int8))
    >>> len(coded)
    21
    """
    bits = np.asarray(bits, dtype=np.int8)
    if len(bits) < CONSTRAINT_LENGTH - 1:
        raise ValueError("message shorter than the encoder memory")
    coded = np.empty((len(bits), CODE_RATE_INVERSE), dtype=np.int8)
    for g_index, g in enumerate(_GENERATORS):
        acc = np.zeros(len(bits), dtype=np.int8)
        for delay in range(CONSTRAINT_LENGTH):
            if (g >> (CONSTRAINT_LENGTH - 1 - delay)) & 1:
                acc ^= np.roll(bits, delay)
        coded[:, g_index] = acc
    return coded.reshape(-1)


def conv_encode_reference(bits):
    """Bit-serial reference encoder (table-driven); used to cross-check."""
    bits = np.asarray(bits, dtype=np.int64)
    if len(bits) < CONSTRAINT_LENGTH - 1:
        raise ValueError("message shorter than the encoder memory")
    state = 0
    for bit in bits[-(CONSTRAINT_LENGTH - 1) :]:
        state = ((int(bit) << (CONSTRAINT_LENGTH - 1)) | state) >> 1
    coded = np.empty((len(bits), CODE_RATE_INVERSE), dtype=np.int8)
    for n, bit in enumerate(bits):
        coded[n] = _OUTPUTS[state, bit]
        state = _NEXT_STATE[state, bit]
    return coded.reshape(-1)


def _output_index_table():
    """(input u, j, c) -> index of the output triple of state 2j+c on u.

    Output triples ``(d0, d1, d2)`` are numbered ``4 * d0 + 2 * d1 + d2``.
    """
    new_states = np.arange(_N_STATES)
    butterfly = 2 * (new_states[:, None] & 31) + np.array([0, 1])
    assert np.array_equal(_PREV_STATE, butterfly), "predecessors are 2(n&31)+c"
    assert np.all(_PREV_INPUT == (new_states[:, None] >> 5)), "input bit is n>>5"
    triples = _OUTPUTS.astype(np.int64) @ np.array([4, 2, 1])  # (64, 2)
    return np.transpose(triples.reshape(32, 2, 2), (2, 0, 1)).copy()


_OUTPUT_INDEX = _output_index_table()

#: Correlation signs of the 8 output triples, (8, 3).
_TRIPLE_SIGNS = 1.0 - 2.0 * ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1)


def viterbi_decode(llrs, n_bits):
    """Decode ``n_bits`` message bits from coded-bit LLRs.

    ``llrs`` has length ``3 * n_bits``; positive LLR means the coded bit is
    more likely 0.  Erased (punctured) positions should carry LLR 0.
    """
    return viterbi_decode_many([llrs], [n_bits])[0]


def viterbi_decode_many(llrs_list, n_bits_list):
    """Decode several blocks of any lengths in one windowed trellis sweep."""
    if len(llrs_list) != len(n_bits_list):
        raise ValueError("need one bit count per LLR block")
    blocks = []
    for index, (llrs, n_bits) in enumerate(zip(llrs_list, n_bits_list)):
        llrs = np.asarray(llrs, dtype=float)
        n_bits = int(n_bits)
        if llrs.size != CODE_RATE_INVERSE * n_bits:
            raise ValueError(
                f"block {index}: {llrs.size} LLRs for {n_bits} message bits "
                f"(need {CODE_RATE_INVERSE * n_bits})"
            )
        blocks.append(llrs.reshape(n_bits, CODE_RATE_INVERSE))

    # Windows as (block, first kept bit, kept bits, steps before, steps
    # after).  A block of at most WINDOW bits is one window with the
    # reference's margins; a longer block's windows reach back as far as
    # the longest window does, which costs no extra steps.
    n_steps = max(
        [min(n, WINDOW) + 2 * min(WRAP_MARGIN, n) for n in map(len, blocks)],
        default=0,
    )
    windows = []
    for block, llrs in enumerate(blocks):
        n_bits = len(llrs)
        if n_bits <= WINDOW:
            margin = min(WRAP_MARGIN, n_bits)
            windows.append((block, 0, n_bits, margin, margin))
            continue
        for first in range(0, n_bits, WINDOW):
            kept = min(WINDOW, n_bits - first)
            before = n_steps - kept - WRAP_MARGIN
            windows.append((block, first, kept, before, WRAP_MARGIN))

    # Right-align every window in the sweep; leading zero LLRs leave the
    # all-zero start metrics untouched, so a shorter window starts fresh.
    extended = np.zeros((n_steps, len(windows), CODE_RATE_INVERSE))
    for row, (block, first, kept, before, after) in enumerate(windows):
        span = before + kept + after
        steps = (first - before + np.arange(span)) % len(blocks[block])
        extended[n_steps - span :, row] = blocks[block][steps]

    hard = _windowed_sweep(extended)
    results = [np.empty(len(llrs), dtype=np.int8) for llrs in blocks]
    for row, (block, first, kept, _, after) in enumerate(windows):
        stop = n_steps - after
        results[block][first : first + kept] = hard[stop - kept : stop, row]
    return results


def _windowed_sweep(extended):
    """Viterbi over (steps, windows, 3) LLRs; returns (steps, windows) bits.

    Every window starts with all-zero metrics and traces back from its
    best end state.  Ties go to the first predecessor, as in
    :func:`viterbi_decode_reference`.
    """
    n_steps, n_windows, _ = extended.shape
    metrics = np.zeros((n_windows, 2, 32))
    decisions = np.empty((n_steps, n_windows, 2, 32), dtype=bool)
    for step in range(n_steps):
        # (windows, 8) correlations -> cand[w, u, j, c], the metric of
        # predecessor 2j+c entering state 32u+j on input u.
        correlations = extended[step] @ _TRIPLE_SIGNS.T
        cand = metrics.reshape(n_windows, 1, 32, 2) + correlations[:, _OUTPUT_INDEX]
        np.greater(cand[..., 1], cand[..., 0], out=decisions[step])
        metrics = np.maximum(cand[..., 0], cand[..., 1])
        metrics -= metrics.max(axis=(1, 2), keepdims=True)

    decisions = decisions.reshape(n_steps, n_windows, _N_STATES)
    state = np.argmax(metrics.reshape(n_windows, _N_STATES), axis=1)
    hard = np.empty((n_steps, n_windows), dtype=np.int8)
    rows = np.arange(n_windows)
    for step in range(n_steps - 1, -1, -1):
        hard[step] = state >> 5
        state = ((state & 31) << 1) | decisions[step, rows, state]
    return hard


def viterbi_decode_reference(llrs, n_bits):
    """Full-trellis Viterbi over circularly extended blocks (the oracle).

    ``llrs`` is one block, shape ``(3 * n_bits,)``, or a batch of
    equal-length blocks, shape ``(B, 3 * n_bits)``; the result has shape
    ``(n_bits,)`` or ``(B, n_bits)``.  Each block is decoded in one sweep
    of ``n_bits + 2 * min(WRAP_MARGIN, n_bits)`` steps, so
    :func:`viterbi_decode` must match it bit for bit on blocks of at most
    ``WINDOW`` bits.
    """
    llrs = np.asarray(llrs, dtype=float)
    batch_shape = llrs.shape[:-1]
    llrs = llrs.reshape(-1, int(n_bits), CODE_RATE_INVERSE)
    n_blocks, n_bits, _ = llrs.shape
    margin = min(WRAP_MARGIN, n_bits)
    extended = np.concatenate(
        [llrs[:, n_bits - margin :], llrs, llrs[:, :margin]], axis=1
    )
    n_steps = extended.shape[1]

    metrics = np.zeros((n_blocks, _N_STATES))
    decisions = np.empty((n_steps, n_blocks, _N_STATES), dtype=np.int8)

    for step in range(n_steps):
        # (B, 128) branch correlations -> (B, 64, 2) per (state, input).
        branch = (extended[:, step] @ _SIGNS_FLAT.T).reshape(
            n_blocks, _N_STATES, 2
        )
        # Candidates arriving at each new state from its two predecessors:
        # indexing with the (64, 2) predecessor tables broadcasts over B.
        cand = metrics[:, _PREV_STATE] + branch[:, _PREV_STATE, _PREV_INPUT]
        choice = np.argmax(cand, axis=2)
        metrics = np.take_along_axis(cand, choice[:, :, None], axis=2)[:, :, 0]
        decisions[step] = choice
        metrics -= metrics.max(axis=1, keepdims=True)

    # Traceback.  The decision stored at a step selects the transition
    # *into* each state, whose input bit is that step's message bit.
    state = np.argmax(metrics, axis=1)
    hard = np.empty((n_blocks, n_steps), dtype=np.int8)
    rows = np.arange(n_blocks)
    for step in range(n_steps - 1, -1, -1):
        choice = decisions[step, rows, state]
        hard[:, step] = _PREV_INPUT[state, choice]
        state = _PREV_STATE[state, choice]
    return hard[:, margin : margin + n_bits].reshape(*batch_shape, n_bits)
