#!/usr/bin/env python3
"""Sweep Hilbert series of uniform and size-congruent families to CSV.

Each output row is one (family, m) pair, so the file drops straight into
pandas or a plotting tool:

    python3 scripts/hilbert_sweep.py --n-max 8 --p 3 --q 3 > series.csv
"""

import argparse
import csv
import sys

from hilbfam.hilbert import hilbert_series, modq_value, wilson_value
from hilbfam.setfam import family_points


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--q", type=int, help="also sweep size-congruent families mod q")
    args = parser.parse_args()

    writer = csv.writer(sys.stdout)
    writer.writerow(["family", "n", "d", "p", "m", "h", "closed_form"])
    for n in range(1, args.n_max + 1):
        for d in range(n + 1):
            series = hilbert_series(family_points(n, d), args.p, 1)
            for m, h in enumerate(series):
                closed = wilson_value(n, d, m) if m <= min(d, n - d) else ""
                writer.writerow(["uniform", n, d, args.p, m, h, closed])
            if args.q:
                series = hilbert_series(family_points(n, d, args.q), args.p, 1)
                for m, h in enumerate(series):
                    writer.writerow(
                        [f"mod{args.q}", n, d, args.p, m, h, modq_value(n, d, args.q, m)]
                    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
