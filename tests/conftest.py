from pathlib import Path

import numpy as np
import pytest

from vlab.means import stack_levels


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
def dense_stack():
    """Unpacks a ``partial_sum_stack`` into its (n_max + 1, M_r) dense rows.

    Row k is S_k f at the M_r points of the stack's quotient ``group``
    (row 0 is zero): each level's rows repeated out from their m points.
    """

    def unpack(stack, group):
        rows = [np.zeros((1, group.size), dtype=np.complex128)]
        rows += [np.tile(sums, group.size // sums.shape[1]) for _, _, sums in stack_levels(stack, group)]
        return np.concatenate(rows)

    return unpack
