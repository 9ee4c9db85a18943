from pathlib import Path

import numpy as np
import pytest

from vlab.means import log_mean_blocks


@pytest.fixture
def write_step():
    """A writer of the step-function file format that ``norms --fn file:`` reads.

    Header ``radices=<csv>;N=<int>``, then one ``re,im`` line per cylinder
    with 17 significant digits (README "Function file format").
    """

    def write(path, f):
        lines = [f"radices={f.radix_seq};N={f.radix_seq.depth}"]
        lines += [f"{v.real:.17g},{v.imag:.17g}" for v in f.values]
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")

    return write


@pytest.fixture
def dense_sums():
    """Tiles the partial sums of ``log_mean_blocks(f, n_max)`` out to dense rows.

    Row k of the (n_max + 1, M_r) result is S_k f at the M_r points of the
    truncation the last block is as wide as (row 0 is zero), each block's
    rows repeated out from their m points.
    """

    def unpack(f, n_max):
        blocks = [sums for _, _, sums in log_mean_blocks(f, n_max)]
        width = blocks[-1].shape[1]
        rows = [np.tile(sums, width // sums.shape[1]) for sums in blocks]
        return np.concatenate([np.zeros((1, width), dtype=np.complex128), *rows])

    return unpack
