"""Central finite-difference gradient checking used across the op tests."""

import numpy as np

from wavepool.autodiff import Tensor


def gradcheck(f, *arrays, rng, coords=6, eps=1e-5, tol=1e-6):
    """Compare reverse-mode gradients of ``f`` against central differences
    on ``coords`` random coordinates of every input.

    ``f`` may return a Tensor of any shape.  A fixed cotangent ``w`` drawn
    from ``rng`` seeds the backward pass, so the gradients checked are those
    of the scalar ``<w, f(x)>``; its finite differences are taken in numpy.

    Returns the worst relative error; asserts it is within ``tol``.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = f(*tensors)
    w = rng.normal(size=out.shape)
    out.backward(w)

    def objective(pert) -> float:
        return float(np.sum(w * f(*[Tensor(a) for a in pert]).data))

    worst = 0.0
    for k, a in enumerate(arrays):
        grad = tensors[k].grad
        assert grad is not None, f"input {k} received no gradient"
        assert grad.shape == a.shape
        idxs = rng.choice(a.size, size=min(coords, a.size), replace=False)
        for i in idxs:
            pert = [x.copy() for x in arrays]
            pert[k].flat[i] += eps
            fp = objective(pert)
            pert[k].flat[i] -= 2 * eps
            fm = objective(pert)
            numeric = (fp - fm) / (2 * eps)
            analytic = grad.flat[i]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-3)
            worst = max(worst, rel)
    assert worst <= tol, f"gradient mismatch: relative error {worst:.3e}"
    return worst
