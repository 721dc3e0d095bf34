"""Parameter and FLOP accounting for the residual backbones.

Shows that swapping the down-sampling operator never moves a parameter,
how the block-order variants and filter lengths shift the FLOP bill, and
how the bottom-heavy schedule buys a large parameter cut at near-constant
compute.

Run:  python3 demos/architecture_accounting.py
"""

from wavepool.backbone import (
    Network,
    bottom_heavy,
    count_flops,
    count_params,
    micro_schedule,
    resnet50_schedule,
)
from wavepool.pooling import parse_pool


def main():
    print("micro net (32x32 input, 4 classes): pooling operator swap")
    print(f"{'pool / variant':<24}{'params':>10}{'flops':>14}")
    print("-" * 48)
    for pool, variant in (
        ("strided", "a"), ("max", "c"), ("avg", "c"), ("blur:1-2-1", "c"),
        ("wavelet:haar", "c"), ("wavelet:db4", "c"),
    ):
        model = Network(micro_schedule(), parse_pool(pool), variant, num_classes=4)
        label = f"{pool} / {variant}"
        print(f"{label:<24}{count_params(model):>10,}{count_flops(model, 32, 32):>14,}")
    print("every operator is parameter-free, so only the FLOP column moves;")
    print("longer filters (db4) cost more than haar; avg costs the same as haar, "
          "max the least")

    print("\nResNet50-shaped net (640x512 input, 1000 classes): bottom-heavy shift")
    print(f"{'schedule':<24}{'params':>12}{'gflops':>10}")
    print("-" * 46)
    base_sched = resnet50_schedule()
    strided = parse_pool("strided")
    base = Network(base_sched, strided, "a", num_classes=1000)
    p0, f0 = count_params(base), count_flops(base, 640, 512)
    print(f"{'baseline':<24}{p0:>12,}{f0 / 1e9:>10.2f}")
    for shift in (1, 2):  # the deepest stage has 3 blocks, so shift tops out at 2
        heavy = Network(bottom_heavy(base_sched, shift), strided, "a", num_classes=1000)
        p1, f1 = count_params(heavy), count_flops(heavy, 640, 512)
        print(
            f"{f'bottom-heavy shift {shift}':<24}{p1:>12,}{f1 / 1e9:>10.2f}"
            f"   ({(p1 - p0) / p0:+.1%} params, {(f1 - f0) / f0:+.2%} flops)"
        )
    print("moving blocks from the deepest (widest) stage toward the stem trades")
    print("parameters for almost no change in compute: wide layers dominate the")
    print("parameter bill, early layers dominate the FLOP bill")


if __name__ == "__main__":
    main()
