"""Certify window-kernel constants over a range of half-widths.

Prints one row per (variant, gamma, R) combination with the certified
curvature and floor constants, and shows what a rejected combination
looks like when the horizon R is too short for the half-width.
"""

import argparse
import math

from ingham import CertificationError, certify_constants, convolution_eval, g_transform


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gammas", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    args = ap.parse_args()

    print(f"{'variant':<8} {'gamma':>6} {'R':>8} {'alpha':>12} {'beta':>12} {'G(0)':>12} {'g(0)':>12}")
    for gamma in args.gammas:
        k = certify_constants("direct", gamma)
        print(
            f"{'direct':<8} {gamma:>6.2f} {'-':>8} {k.alpha:>12.6f} {k.beta:>12.6f} "
            f"{float(convolution_eval(k, 0.0)):>12.6f} {float(g_transform(k, 0.0)):>12.6f}"
        )
        big_r = 1.5 * math.pi / gamma
        k = certify_constants("inverse", gamma, R=big_r)
        print(
            f"{'inverse':<8} {gamma:>6.2f} {big_r:>8.4f} {k.alpha:>12.6f} {k.beta:>12.6f} "
            f"{float(convolution_eval(k, 0.0)):>12.6f} {float(g_transform(k, 0.0)):>12.6f}"
        )

    # an inadmissible horizon is rejected, naming the violated inequality
    try:
        certify_constants("inverse", 0.5, R=3.0)
    except CertificationError as err:
        print(f"\nrejected inverse (gamma=0.5, R=3.0): {err}")


if __name__ == "__main__":
    main()
