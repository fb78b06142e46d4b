"""The detector's per-anchor output gradients folded onto the distinct rows of a pass."""

import numpy as np


def fold_onto_rows(tape, d_outputs: np.ndarray) -> np.ndarray:
    """Sum the per-anchor output gradients ``d_outputs`` onto the rows of ``tape``.

    Each occupied anchor's gradient is its own row; the empty anchors'
    gradients sum into the shared zero row. Every layer's backward is linear
    in the output gradient and the empty anchors share their activations, so
    backpropagating the folded rows is, in exact arithmetic, backpropagating
    every anchor.
    """
    empty = tape.anchor_row == 0
    drows = np.empty((len(tape.mlp_tape[0]), d_outputs.shape[1]))
    drows[0] = empty @ d_outputs
    drows[1:] = d_outputs[~empty]  # rows 1.. hold the occupied anchors in order
    return drows
