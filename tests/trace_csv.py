"""Reading the trace CSVs the experiments write, for tests that check them."""

import numpy as np


def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a two-column trace CSV, skipping '#' metadata and the header."""
    xs, ys = [], []
    with open(path) as fh:
        header_seen = False
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True  # single column-name line
                continue
            a, b = line.split(",")
            xs.append(float(a))
            ys.append(float(b))
    if not xs:
        raise ValueError(f"no data rows in {path}")
    return np.array(xs), np.array(ys)
