#!/usr/bin/env python3
"""Compare the window density against the truncated oscillatory integral.

Both estimate the real density of the fixed-y slice system of the quintic
fixture at y = (0, 0, 1, -1), but they smooth at different scales: the
window construction thickens each slice equation to |value| < epsilon,
while the truncated integral applies a sinc kernel of width W.  That
density does not exist.  The slices c_1, ..., c_4 involve only x3 and x4
and vanish on x3 = -x4, and c_5 = F vanishes on the rational plane
{x1 = -x2, x3 = -x4} too, so the fiber of these 5 equations in 4 unknowns
contains a 2-plane, and both estimates grow without bound as the
smoothing is refined.  Each line also prints the estimate's ratio to the
one before it: with the default knobs, the growth per halving of epsilon
and per doubling of W.
"""

import argparse

from linecount.density import real_density_window, singular_integral_truncated
from linecount.fixtures import QUINTIC_BASE_POINT, fermat_quintic


def _ratio(mean: float, previous) -> str:
    return "" if previous is None else f"  x{mean / previous:.2f}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1 << 20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.2, 0.1, 0.05])
    ap.add_argument("--windows", type=int, nargs="+", default=[2, 4, 8])
    args = ap.parse_args()

    form = fermat_quintic()
    y = QUINTIC_BASE_POINT
    print(f"# samples={args.samples} seed={args.seed}")
    previous = None
    for eps in args.epsilons:
        est = real_density_window(form, y, [eps] * form.degree,
                                  args.samples, seed=args.seed)
        print(f"window  eps={eps:<5} -> {est.mean:12.1f} "
              f"(stderr {est.stderr:.1f}){_ratio(est.mean, previous)}")
        previous = est.mean
    previous = None
    for w in args.windows:
        est = singular_integral_truncated(form, y, w, args.samples,
                                          seed=args.seed)
        print(f"integral  W={w:<4} -> {est.mean:12.1f} "
              f"(stderr {est.stderr:.1f}){_ratio(est.mean, previous)}")
        previous = est.mean


if __name__ == "__main__":
    main()
