"""End-to-end training demo on the synthetic tiny-object set.

Trains the micro network twice on a small synthetic split, once with
wavelet pooling and once with max pooling, then compares test accuracy
and prediction stability under circular input shifts.  Finishes with a
one-epoch knowledge-distillation run that uses the max-pool model as the
teacher.  Artifacts land in demo_out/.

Runtime is about a minute on one CPU core.

Run:  python3 demos/train_micro_net.py
"""

import os

from wavepool.analysis import load_dataset, shift_consistency, train_model
from wavepool.config import parse_config

OUTDIR = "demo_out"

BASE = """\
[dataset]
kind = synthetic
n_train = 600
n_test = 100
image_size = 24
object_size = 4
classes = 4

[model]
schedule = micro
pool = {pool}
variant = c

[train]
epochs = {epochs}
batch_size = 25
lr = {lr}
lr_schedule = {lr_schedule}
mode = {mode}
teacher = {teacher}
teacher_pool = max
alpha = 0.5
temperature = 4.0
seed = 7

[output]
dir = {outdir}
"""


def config(pool, epochs=6, lr=0.05, lr_schedule="cosine", mode="plain", teacher=""):
    return parse_config(
        BASE.format(pool=pool, epochs=epochs, lr=lr, lr_schedule=lr_schedule,
                    mode=mode, teacher=teacher, outdir=OUTDIR)
    )


def main():
    os.makedirs(OUTDIR, exist_ok=True)
    models = {}
    print("training the micro net on 600 synthetic 24x24 images, 4 classes")
    for pool in ("wavelet:haar", "max"):
        cfg = config(pool)
        slug = pool.replace(":", "_")
        ckpt_dir = os.path.join(OUTDIR, f"{slug}_checkpoints")
        model, report = train_model(cfg, checkpoint_dir=ckpt_dir)
        report.write(OUTDIR, f"train_{slug}")
        models[pool] = model
        print(
            f"  {pool:<14} test accuracy {report.value('final_test_accuracy'):6.1%}"
            f"   ({int(report.value('param_count')):,} params)"
        )

    print("\nprediction stability under circular shifts up to 3 pixels:")
    test_set = load_dataset(config("max"), "test")
    for pool, model in models.items():
        report = shift_consistency(model, test_set, max_shift=3, sample_limit=50)
        report.write(OUTDIR, f"consistency_{pool.replace(':', '_')}")
        print(
            f"  {pool:<14} argmax agreement {report.value('argmax_agreement'):6.1%}"
            f"   logit cosine {report.value('logit_cosine'):.4f}"
        )

    print("\nknowledge distillation, two-epoch short schedule:")
    teacher_ckpt = os.path.join(OUTDIR, "max_checkpoints", "final.wvpk")
    short = dict(epochs=2, lr=0.02, lr_schedule="constant")
    _model, plain = train_model(config("wavelet:haar", **short))
    _model, distilled = train_model(
        config("wavelet:haar", mode="kd", teacher=teacher_ckpt, **short)
    )
    print(f"  plain      {plain.value('final_test_accuracy'):6.1%}")
    print(f"  distilled  {distilled.value('final_test_accuracy'):6.1%}")
    print(f"\nreports and checkpoints written to {OUTDIR}/")


if __name__ == "__main__":
    main()
