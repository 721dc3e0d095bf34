"""wavepool: anti-aliased CNN down-sampling via discrete wavelet transforms.

The package provides exact single-level DWT/IDWT machinery (filterbank,
transforms), a wavelet low-pass pooling operator with baselines (pooling),
a small numpy autodiff core sufficient to train micro networks (autodiff,
ops, optim), residual backbone builders with parameter/FLOP accounting
(backbone), frequency-domain and shift-robustness diagnostics (analysis),
dataset loaders (data) and a command line front end (cli).
"""
