#!/usr/bin/env python3
"""Sweep the penalised-supremum regularisation of a driver across n.

Produces (y, g, envelope_n...) columns suitable for any plotting tool; the
columns visibly squeeze onto the driver as n grows.

    python scripts/envelope_sweep.py --driver "-y^2" --ns 2 4 8 16 --out sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from bsdelab import Generator, OneSidedLinear, WeightFn, sup_convolution_generator


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--driver", default="-y^2")
    parser.add_argument("--ns", type=int, nargs="+", default=[2, 4, 8, 16])
    parser.add_argument("--growth-f", default="0")
    parser.add_argument("--growth-u", default="1")
    parser.add_argument("--growth-v", default="0")
    parser.add_argument("--y-range", type=float, nargs=2, default=[-3.0, 3.0])
    parser.add_argument("--points", type=int, default=121)
    parser.add_argument("--out", default="envelope_sweep.csv")
    args = parser.parse_args(argv)

    g = Generator.parse(args.driver)
    growth = OneSidedLinear(args.growth_f, args.growth_u, args.growth_v, side="absolute")
    one = WeightFn.parse("1")
    envs = {
        n: sup_convolution_generator(g, n, one, one, growth=growth) for n in args.ns
    }
    ys = np.linspace(args.y_range[0], args.y_range[1], args.points)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "g"] + [f"envelope_n{n}" for n in args.ns])
        columns = [ys, g(0.0, ys, 0.0)] + [envs[n](0.0, ys, 0.0) for n in args.ns]
        writer.writerows([repr(v) for v in row] for row in zip(*(c.tolist() for c in columns)))
    print(f"wrote {args.out} ({args.points} rows, n in {args.ns})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
