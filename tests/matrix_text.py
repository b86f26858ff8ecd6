"""Row-major text serialization of float64 matrices (golden-file format).

One row per line, entries space-separated with 17 significant digits, so a
save/load round trip is exact.
"""

import numpy as np

from altlora.matcore import as_matrix

_FMT = "%.17g"


def format_matrix(m: np.ndarray) -> str:
    """Row-major text form: one row per line, space-separated, 17 sig digits."""
    m = np.asarray(m, dtype=np.float64)
    return "\n".join(" ".join(_FMT % x for x in row) for row in m) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix text")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix text: rows have differing lengths")
    return as_matrix([[float(x) for x in row] for row in rows], name="parsed matrix")


def save_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(m))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())
