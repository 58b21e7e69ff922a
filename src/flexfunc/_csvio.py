"""The one CSV writer behind every table the package writes."""

from __future__ import annotations

import numpy as np

_ROWS_PER_WRITE = 256  # bounds the text held in memory at once

# The previous file's leading column: each 256-row chunk's bytes -> its
# "\n"-joined text.  Every table leads with its grid (t, x, dt or u), and a
# fan of files on one grid then formats it once.
_last_lead: dict[bytes, str] = {}


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
    and repeated.  A leading-column chunk whose bytes equal one of the
    previous file's reuses that file's text, so the writer holds at most one
    leading column between calls.  Columns of unequal length raise
    ``ValueError`` before the file is opened.
    """
    global _last_lead
    cols = [np.asarray(col, dtype=float) for col in columns]
    lengths = [len(col) for col in cols]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns must have equal length, got lengths {lengths}")
    lead = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(cols[0]), _ROWS_PER_WRITE):
            first, *rest = (col[i : i + _ROWS_PER_WRITE] for col in cols)
            key = first.tobytes()
            text = lead[key] = _last_lead.get(key) or "\n".join(_reprs(first))
            rows = zip(text.split("\n"), *map(_reprs, rest))
            fh.write("\n".join(map(",".join, rows)) + "\n")
    _last_lead = lead
