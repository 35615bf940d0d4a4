"""The artifact format: every file the CLI writes is made here.

CSV tables go through ``write_table``, which writes floats with 17
significant digits (``fmt``) so that round-tripping through text
preserves the exact double and two runs with the same seed produce
byte-identical files; every other cell is written as ``str``.  The
numeric modules return arrays and records and know nothing of this
format.
"""

import csv
import json

import numpy as np


def fmt(x):
    """Format a float with 17 significant digits."""
    return format(float(x), ".17g")


def write_table(path, header, rows):
    """Write a CSV file: ``header``, then one line per row of cells.

    A float cell (``float`` or ``np.floating``) is written as ``fmt``;
    any other cell as ``str``.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(
                [fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row]
            )


def write_slopes_json(path, slopes):
    """Write slope fits as a JSON list of {branch, slope} objects."""
    payload = [{"branch": b, "slope": float(s)} for b, s in slopes]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
