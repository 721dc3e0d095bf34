"""Why stride-2 subsampling aliases and wavelet pooling does not.

Sends plane waves of increasing frequency through each down-sampling
operator and tabulates the retained energy and where it lands: above the
Nyquist rate of the output, energy kept by naive subsampling folds back
into low frequencies as a counterfeit signal, while the wavelet low-pass
band attenuates it instead.

Run:  python3 demos/anti_aliased_pooling.py
"""

import numpy as np

from wavepool.analysis import alias_energy_sweep
from wavepool.autodiff import Tensor
from wavepool.filterbank import parse_wavelet
from wavepool.pooling import parse_pool, subsample2, wavelet_pool

POOLS = ["strided", "avg", "blur:1-2-1", "wavelet:haar", "wavelet:db4"]
FREQS = [k * np.pi / 8 for k in (2, 4, 6, 8)]


def _label(freq):
    return f"{freq / np.pi:.4f}pi"


def _table(title, reports, freqs):
    """One row of energy_ratio per pool, one column per frequency."""
    print(title)
    header = "pool            " + "".join(f"  {f / np.pi:4.2f}pi" for f in freqs)
    print(header)
    print("-" * len(header))
    for pool, report in reports.items():
        cells = "".join(f"  {report.value(f'energy_ratio@{_label(f)}'):6.3f}" for f in freqs)
        print(f"{pool:<16}{cells}")


def main():
    reports = {pool: alias_energy_sweep(parse_pool(pool), FREQS) for pool in POOLS}
    _table("retained energy fraction by input frequency (64x64 plane waves)", reports, FREQS)

    # the folding flag describes the probe (2w wraps past the output
    # Nyquist), so it is the same for every pool
    aliased = [f for f in FREQS
               if reports["strided"].value(f"folded_below_nyquist@{_label(f)}")]
    _table("\nenergy kept as alias (where 2w wraps past the output Nyquist)",
           {pool: reports[pool] for pool in ("strided", "wavelet:haar")}, aliased)

    # A concrete casualty: a period-2 checkerboard is pure Nyquist texture.
    i, j = np.indices((8, 8))
    board = ((i + j) % 2).astype(float) - 0.5
    x = Tensor(board[None, None])
    naive = subsample2(x).data[0, 0]
    ll = wavelet_pool(x, parse_wavelet("haar")).data[0, 0]
    print("\nperiod-2 checkerboard (zero mean):")
    print(f"  naive stride-2 output range  [{naive.min():+.2f}, {naive.max():+.2f}]"
          "   <- reads as a constant +/-0.5 plane")
    print(f"  haar LL output max |value|   {np.max(np.abs(ll)):.2e}"
          "   <- correctly vanishes")


if __name__ == "__main__":
    main()
