"""The CLI's row writer before its columnar output, kept as the oracle of
the streamed CSVs: ``csv.writer`` with each value formatted on its own,
one row at a time."""

import csv
import io

import numpy as np


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def csv_bytes(header: list[str], rows) -> bytes:
    """The file the row writer makes of ``header`` and ``rows``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")
