"""Pure numpy/Python fallback for the compiled kernels in _kernels.pyx.

Must return values identical to the compiled versions: integer counts match
exactly, and the AR recursion applies the same operations in the same order
(IEEE doubles), so outputs are bit-equal.
"""

import numpy as np

_RECURSION_BLOCK = 4096


def word_counts(bits, word_length, stride, n_windows):
    """Count length-`word_length` words with entries spaced `stride` apart."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    codes = np.zeros(n_windows, dtype=np.int64)
    for k in range(word_length):
        np.left_shift(codes, 1, out=codes)
        codes |= bits[k * stride : k * stride + n_windows]
    return np.bincount(codes, minlength=1 << word_length).astype(np.int64)


def ar_lagged_recursion(shocks, feedback, lag, innovation_scale):
    """out[i] = shocks[i] for i < lag, else feedback*out[i-lag] + innovation_scale*shocks[i]."""
    # sequential by construction; Python floats are the same IEEE doubles as
    # numpy's but far cheaper to index one at a time, so each block of
    # _RECURSION_BLOCK outputs is computed in a list (with the `lag` outputs
    # before it in front) and written back, keeping the extra memory O(block)
    out = np.array(shocks, dtype=np.float64)
    feedback, innovation_scale = float(feedback), float(innovation_scale)
    for start in range(lag, len(out), _RECURSION_BLOCK):
        stop = min(start + _RECURSION_BLOCK, len(out))
        buf = out[start - lag : stop].tolist()
        for i in range(lag, len(buf)):
            buf[i] = feedback * buf[i - lag] + innovation_scale * buf[i]
        out[start:stop] = buf[lag:]
    return out
