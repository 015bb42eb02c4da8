"""Standard-norm blowup of the rotated basis as Theta approaches pi/2.

Prints the norm for a few states on a grid hugging the wall, the local
log-log slope against (pi/2 - Theta), and the fitted divergence exponent,
which should land on n1+n2+1.
"""

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field

from bateman.ft import FIT_THETA_GRID, ft_norm_exponent_fit, ft_standard_norm


@dataclass
class Config:
    states: list = field(default_factory=lambda: [(0, 0), (1, 0), (1, 1), (2, 1)])
    decades: int = 4
    out: str | None = None


def wall_grid(decades: int) -> list[float]:
    return [math.pi / 2 - 10.0**-j for j in range(1, decades + 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--decades", type=int, default=4)
    ap.add_argument("--out", default=None, help="also write rows as csv")
    args = ap.parse_args(argv)
    cfg = Config(decades=args.decades, out=args.out)

    rows = []
    for n1, n2 in cfg.states:
        prev = None
        for big in wall_grid(cfg.decades):
            gap = math.pi / 2 - big
            val = ft_standard_norm(big / 2.0, n1, n2)
            slope = "" if prev is None else f"{(math.log(val) - math.log(prev)) / math.log(10):.3f}"
            print(f"({n1},{n2}) Theta=pi/2-{gap:.0e}  norm={val:.6e}  dlog10={slope}")
            rows.append((n1, n2, big, val))
            prev = val
        fit = ft_norm_exponent_fit(FIT_THETA_GRID, n1, n2)
        print(f"({n1},{n2}) fitted exponent {fit:.4f}  expected {n1 + n2 + 1}")
        print()

    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n1", "n2", "big_theta", "norm"])
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
