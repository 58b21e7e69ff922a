"""The one CSV writer behind every table the package writes."""

from __future__ import annotations

import numpy as np

_ROWS_PER_WRITE = 256  # bounds the text held in memory at once


def write_csv(path, header: str, columns) -> None:
    """Write equal-length numeric columns under a one-line header.

    Each value is written as the ``repr`` of a Python float, the shortest
    text that reads back to the same double.
    """
    cols = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(cols[0]), _ROWS_PER_WRITE):
            text = (map(repr, col[i : i + _ROWS_PER_WRITE].tolist()) for col in cols)
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")
