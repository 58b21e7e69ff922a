"""The one CSV writer behind every table the package writes."""

from __future__ import annotations

import numpy as np

_ROWS_PER_WRITE = 256  # bounds the text held in memory at once


def _reprs(chunk: np.ndarray):
    """The ``repr`` of each value; one ``repr`` when the chunk holds one bit pattern.

    The test compares bytes, not values: -0.0 and 0.0 print differently,
    and a NaN equals nothing.  A bytes comparison also touches no numpy
    loop that the rest of a run does not load (a uint64 ``==`` and
    ``all()`` add ~0.25 MB of resident code pages).
    """
    raw = chunk.tobytes()
    if raw == raw[:8] * len(chunk):  # 8 bytes per float64
        return [repr(chunk.item(0))] * len(chunk)
    return map(repr, chunk.tolist())


def write_csv(path, header: str, columns) -> None:
    """Write equal-length numeric columns under a one-line header.

    Each value is written as the ``repr`` of a Python float, the shortest
    text that reads back to the same double.  The rows go out 256 at a
    time, and where a column's values in one such chunk share one bit
    pattern (a settled state, a repeated time) the value is formatted once
    and repeated.  Columns of unequal length raise ``ValueError`` before
    the file is opened.
    """
    cols = [np.asarray(col, dtype=float) for col in columns]
    lengths = [len(col) for col in cols]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns must have equal length, got lengths {lengths}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(cols[0]), _ROWS_PER_WRITE):
            text = (_reprs(col[i : i + _ROWS_PER_WRITE]) for col in cols)
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")
