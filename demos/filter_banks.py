"""Tour of the shipped filter banks.

Prints the analysis/synthesis coefficients of every wavelet the library
ships, verifies the quadrature-mirror relation and the biorthogonality
residuals, and shows that Cohen(1,1) collapses to the Haar filter pair.

Run:  python3 demos/filter_banks.py
"""

import numpy as np

from wavepool.filterbank import check_biorthogonality, parse_wavelet

NAMES = ["haar", "db2", "db3", "db4", "ch3.3", "ch5.5"]


def show(vec):
    return "[" + ", ".join(f"{v: .6f}" for v in vec) + "]"


def main():
    print("shipped filter banks")
    print("=" * 72)
    for name in NAMES:
        spec = parse_wavelet(name)
        residual = max(check_biorthogonality(spec).values())
        family = "orthogonal" if spec.orthogonal else "biorthogonal"
        print(f"\n{name}  ({family}, {spec.analysis_low.size} analysis taps)")
        print(f"  analysis low   {show(spec.analysis_low)}")
        print(f"  analysis high  {show(spec.analysis_high)}")
        if spec.synthesis_low.size != spec.analysis_low.size:
            print(f"  synthesis low  {show(spec.synthesis_low)}")
            print(f"  synthesis high {show(spec.synthesis_high)}")
        print(f"  low-pass sum   {np.sum(spec.analysis_low):.12f}  (sqrt(2))")
        print(f"  duality residual {residual:.3e}")

    print("\nquadrature mirror relation: high[n] = (-1)^n * dual_low[L-1-n]")
    spec = parse_wavelet("db2")
    L = spec.synthesis_low.size
    mirrored = np.array(
        [(-1) ** n * spec.synthesis_low[L - 1 - n] for n in range(L)]
    )
    print(f"  db2 analysis high   {show(spec.analysis_high)}")
    print(f"  mirrored dual low   {show(mirrored)}")
    print(f"  max difference      {np.max(np.abs(spec.analysis_high - mirrored)):.3e}")

    print("\nCohen(1,1) reduces to Haar:")
    cohen, haar = parse_wavelet("ch1.1"), parse_wavelet("haar")
    same = all(
        np.array_equal(getattr(cohen, bank), getattr(haar, bank))
        for bank in ("analysis_low", "analysis_high", "synthesis_low", "synthesis_high")
    )
    print(f"  coefficient-identical: {same}")


if __name__ == "__main__":
    main()
