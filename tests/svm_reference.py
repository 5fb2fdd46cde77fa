"""Pegasos on the hinge loss in its direct numpy form, the oracle for the
scaled form of `classify.train_svm`.

Every step costs three passes over the whole weight vector: the decay
w *= 1 - eta*lam, the norm and the projection onto the 1/sqrt(lam) ball.
The visiting order comes from `np.random.default_rng(seed).permutation(n)`
once per epoch, and each row's dot product adds in entry order.
"""

from __future__ import annotations

import math

import numpy as np

from stresskit.classify import LinearModel, SvmHyper


def train_svm(examples, hyper: SvmHyper = SvmHyper(), *, vocabulary, fingerprint="",
              feature_kind="bow") -> LinearModel:
    indices, data, indptr = [], [], [0]
    for vec, _ in examples:
        indices.extend(vec)
        data.extend(vec.values())
        indptr.append(len(indices))
    indices, data = np.asarray(indices, dtype=np.intp), np.asarray(data, dtype=float)
    y = 2.0 * np.asarray([label for _, label in examples], dtype=float) - 1.0
    rng = np.random.default_rng(hyper.seed)
    w = np.zeros(vocabulary.size)
    b = 0.0
    radius = 1.0 / math.sqrt(hyper.lam)
    t = 0
    for _epoch in range(hyper.epochs):
        for idx in rng.permutation(len(examples)):
            t += 1
            eta = 1.0 / (hyper.lam * t)
            lo, hi = indptr[idx], indptr[idx + 1]
            cols, vals = indices[lo:hi], data[lo:hi]
            row_dot = np.add.accumulate(vals * w[cols])[-1] if hi > lo else 0.0
            margin = y[idx] * (row_dot + b)
            w *= 1.0 - eta * hyper.lam
            if margin < 1.0:
                w[cols] += eta * y[idx] * vals
                b += eta * y[idx]
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm
    return LinearModel(
        kind="svm", weights=tuple(w.tolist()), bias=float(b), vocabulary=vocabulary,
        pipeline_fingerprint=fingerprint, hyper=hyper, feature_kind=feature_kind)
