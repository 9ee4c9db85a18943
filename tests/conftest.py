from pathlib import Path

import pytest


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
