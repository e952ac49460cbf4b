"""Watch discrete frame constants converge to their continuous-time limits.

Fixes a five-exponent sequence with one clustered pair and refines the
sampling step delta = R/J while the observation window [-R, R] stays put.
The relative gap between the sampled-pencil constants and the integral
ones should shrink roughly linearly in delta.
"""

import argparse

from ingham import ExponentSequence, continuum_limit_scan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=float, default=2.6, help="half-length R of the window")
    ap.add_argument("--max-pow", type=int, default=12, help="largest J as a power of two")
    args = ap.parse_args()

    seq = ExponentSequence((-3.0, -0.5, 0.3, 2.8, 5.9), 1.3, 0.9)
    rows = continuum_limit_scan(seq, args.horizon, [2**p for p in range(4, args.max_pow + 1)])

    print(f"exponents: {seq.omegas}  gamma={seq.gamma}  gamma0={seq.gamma0}")
    print(f"clustered leads: {sorted(seq.classification.a2_leads)}")
    print(f"{'J':>6} {'delta':>10} {'c1_disc':>12} {'c2_disc':>12} {'c1_cont':>12} {'c2_cont':>12} {'rel_gap':>10}")
    for r in rows:
        print(
            f"{r.J:>6} {r.delta:>10.6f} {r.c1_discrete:>12.6f} {r.c2_discrete:>12.6f} "
            f"{r.c1_continuous:>12.6f} {r.c2_continuous:>12.6f} {r.rel_gap:>10.3e}"
        )


if __name__ == "__main__":
    main()
