"""Small dense network exercising the soft-bound loss on synthetic blobs.

The classifier head generalizes softmax: with logits x and sharpness alpha,

    head(x)_i = exp(x_i) / sum_j exp(alpha * x_j),

computed as exp(x_i - logsumexp(alpha * x)) so it never overflows.  At
alpha = 1 this is exactly softmax (identical summation order, so agreement
is bit-for-bit); for alpha != 1 the outputs are positive but sum to
head_mass = sum exp(x) / sum exp(alpha x) rather than 1, and the loss
accounts for that explicitly instead of renormalizing.

The training loss couples the usual label term with a mass penalty:

    loss_i = -log softmax(x_i)[y_i] + (1/alpha) * log sum_y softmax(x_i)[y] ** alpha.

The recorded regularizer term -(1/alpha) * log sum_y p_y ** alpha is
non-negative, zero exactly for a one-hot prediction, and at most
log(K) * (alpha - 1) / alpha (attained at uniform predictions); it enters
the loss with a minus sign, so minimizing the loss trades label fit against
spread-out predictions.  alpha = 1 collapses to plain cross entropy.

Everything trains by explicitly written backpropagation on numpy arrays;
there is no autodiff anywhere, which is what makes the finite-difference
audit in the test suite meaningful.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    LabelOutOfRange,
    NonFiniteLogits,
    RangeMismatch,
    require_alpha,
)
from .logspace import logsumexp

__all__ = [
    "hn_forward",
    "head_mass",
    "intersection_loss",
    "cross_entropy_loss",
    "regularizer_bound",
    "ToyDataset",
    "make_toy_dataset",
    "ToyNet",
    "loss_and_grads",
    "EpochRecord",
    "TrainReport",
    "train",
    "report_to_jsonable",
    "canonical_report_bytes",
]

LOSS_MODES = ("intersection", "ce-l2")


def _check_logits(logits) -> np.ndarray:
    x = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteLogits("logits must be finite")
    return x


def hn_forward(logits, alpha: float) -> np.ndarray:
    """Generalized softmax head: exp(x_i - logsumexp(alpha * x)) along the last axis."""
    require_alpha(alpha)
    x = _check_logits(logits)
    return np.exp(x - logsumexp(alpha * x, axis=-1)[..., np.newaxis])


def head_mass(logits, alpha: float) -> np.ndarray:
    """Total head output per sample; equals 1 only at alpha = 1."""
    return hn_forward(logits, alpha).sum(axis=-1)


def _check_batch(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    x = _check_logits(logits)
    if x.ndim != 2:
        raise DimensionMismatch(f"batch logits must be 2-d, got shape {x.shape}")
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise DimensionMismatch(f"labels shape {y.shape} does not match batch size {x.shape[0]}")
    if np.any(y < 0) or np.any(y >= x.shape[1]):
        raise LabelOutOfRange(f"labels must lie in [0, {x.shape[1]})")
    return x, y.astype(int)


def intersection_loss(batch_logits, labels, alpha: float) -> float:
    """Mean of -log p[y] + (1/alpha) * log sum_y p_y ** alpha over the batch."""
    require_alpha(alpha)
    x, y = _check_batch(batch_logits, labels)
    lse = logsumexp(x, axis=-1)
    logp = x - lse[:, np.newaxis]
    log_mass_alpha = logsumexp(alpha * logp, axis=-1)  # log sum_y p_y ** alpha
    per_sample = -logp[np.arange(len(y)), y] + log_mass_alpha / alpha
    return float(per_sample.mean())


def cross_entropy_loss(batch_logits, labels) -> float:
    """Mean negative log softmax probability of the true labels."""
    x, y = _check_batch(batch_logits, labels)
    logp = x - logsumexp(x, axis=-1)[:, np.newaxis]
    return float(-logp[np.arange(len(y)), y].mean())


def _mean_regularizer(batch_logits, alpha: float) -> float:
    """Mean of -(1/alpha) * log sum_y p_y ** alpha; zero everywhere at alpha = 1."""
    x = _check_logits(np.atleast_2d(batch_logits))
    logp = x - logsumexp(x, axis=-1)[:, np.newaxis]
    return float(-(logsumexp(alpha * logp, axis=-1) / alpha).mean())


def regularizer_bound(k: int, alpha: float) -> float:
    """Largest possible regularizer term for k classes: log(k) * (alpha - 1) / alpha."""
    return float(np.log(k) * (alpha - 1.0) / alpha)


@dataclass(frozen=True, eq=False)
class ToyDataset:
    """Gaussian blobs on a circle; balanced labels assigned round-robin."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    k: int

    def __post_init__(self) -> None:
        for name in ("train_x", "train_y", "test_x", "test_y"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def make_toy_dataset(n_train: int = 512, n_test: int = 512, k: int = 3,
                     radius: float = 2.0, noise: float = 1.0, seed: int = 0) -> ToyDataset:
    """Classes are unit-variance Gaussians centered on a radius-2 circle.

    Class c sits at angle 2*pi*c/k starting from angle 0; labels cycle
    round-robin so counts differ by at most one when k does not divide the
    sample count.  Everything is a pure function of the seed.
    """
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    total = n_train + n_test
    labels = np.arange(total) % k
    points = centers[labels] + noise * rng.standard_normal((total, 2))
    return ToyDataset(points[:n_train], labels[:n_train],
                      points[n_train:], labels[n_train:], k)


class ToyNet:
    """Two hidden ReLU layers, 2 -> hidden -> hidden -> k, explicit weights.

    Weight matrices are drawn from N(0, 1/fan_in) with a seeded generator;
    biases start at zero.  params is an ordered name -> array mapping used
    by the update loop, the digest, and the finite-difference audit alike.
    """

    PARAM_ORDER = ("W1", "b1", "W2", "b2", "W3", "b3")

    def __init__(self, k: int = 3, hidden: int = 16, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.k = k
        self.hidden = hidden
        self.params: dict[str, np.ndarray] = {
            "W1": rng.standard_normal((2, hidden)) / np.sqrt(2.0),
            "b1": np.zeros(hidden),
            "W2": rng.standard_normal((hidden, hidden)) / np.sqrt(hidden),
            "b2": np.zeros(hidden),
            "W3": rng.standard_normal((hidden, k)) / np.sqrt(hidden),
            "b3": np.zeros(k),
        }

    def forward(self, x: np.ndarray, want_cache: bool = False):
        p = self.params
        z1 = x @ p["W1"] + p["b1"]
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ p["W2"] + p["b2"]
        a2 = np.maximum(z2, 0.0)
        logits = a2 @ p["W3"] + p["b3"]
        if want_cache:
            return logits, (x, z1, a1, z2, a2)
        return logits

    def head(self, x: np.ndarray, alpha: float) -> np.ndarray:
        """Generalized-softmax outputs; rows sum to head_mass, not 1, for alpha != 1."""
        return hn_forward(self.forward(x), alpha)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in self.PARAM_ORDER:
            h.update(self.params[name].tobytes())
        return h.hexdigest()


def loss_and_grads(net: ToyNet, x: np.ndarray, y: np.ndarray, mode: str,
                   alpha: float = 1.0, lam: float = 0.0,
                   ) -> tuple[float, dict[str, np.ndarray], float]:
    """One forward/backward pass; returns (loss, gradients, regularizer term).

    mode "intersection" uses the mass-penalized loss at the given alpha;
    mode "ce-l2" uses cross entropy plus lam * sum of squared weight-matrix
    entries (biases are not penalized).  The logit gradient is
    skeleton_alpha(p) - onehot, which reduces to p - onehot at alpha = 1.
    """
    if mode not in LOSS_MODES:
        raise RangeMismatch(f"mode must be one of {LOSS_MODES}, got {mode!r}")
    logits, (x0, z1, a1, z2, a2) = net.forward(x, want_cache=True)
    xb, yb = _check_batch(logits, y)
    n = len(yb)
    logp = xb - logsumexp(xb, axis=-1)[:, np.newaxis]
    onehot = np.zeros_like(logp)
    onehot[np.arange(n), yb] = 1.0

    p = net.params
    if mode == "intersection":
        loss = intersection_loss(xb, yb, alpha)
        reg = _mean_regularizer(xb, alpha)
        # d loss_i / d x_j = softmax(alpha x)_j - onehot_j
        sharp = np.exp(alpha * xb - logsumexp(alpha * xb, axis=-1)[:, np.newaxis])
        dlogits = (sharp - onehot) / n
        penalty_grads = {name: 0.0 for name in ("W1", "W2", "W3")}
    else:
        penalty = lam * sum(float(np.sum(p[w] ** 2)) for w in ("W1", "W2", "W3"))
        loss = cross_entropy_loss(xb, yb) + penalty
        reg = penalty
        dlogits = (np.exp(logp) - onehot) / n
        penalty_grads = {w: 2.0 * lam * p[w] for w in ("W1", "W2", "W3")}

    grads: dict[str, np.ndarray] = {}
    grads["W3"] = a2.T @ dlogits + penalty_grads["W3"]
    grads["b3"] = dlogits.sum(axis=0)
    da2 = dlogits @ p["W3"].T
    dz2 = da2 * (z2 > 0)
    grads["W2"] = a1.T @ dz2 + penalty_grads["W2"]
    grads["b2"] = dz2.sum(axis=0)
    da1 = dz2 @ p["W2"].T
    dz1 = da1 * (z1 > 0)
    grads["W1"] = x0.T @ dz1 + penalty_grads["W1"]
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads, reg


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    test_loss: float
    train_acc: float
    test_acc: float
    reg_term: float


@dataclass(frozen=True)
class TrainReport:
    mode: str
    alpha: float
    lam: float
    epochs: int
    step: float
    seed: int
    net_seed: int
    data_seed: int
    k: int
    hidden: int
    records: tuple[EpochRecord, ...]
    final_digest: str


def _metrics(net: ToyNet, data: ToyDataset, mode: str, alpha: float, lam: float,
             epoch: int) -> EpochRecord:
    logits_tr = net.forward(data.train_x)
    logits_te = net.forward(data.test_x)
    if mode == "intersection":
        tr = intersection_loss(logits_tr, data.train_y, alpha)
        te = intersection_loss(logits_te, data.test_y, alpha)
        reg = _mean_regularizer(logits_tr, alpha)
    else:
        penalty = lam * sum(float(np.sum(net.params[w] ** 2)) for w in ("W1", "W2", "W3"))
        tr = cross_entropy_loss(logits_tr, data.train_y) + penalty
        te = cross_entropy_loss(logits_te, data.test_y) + penalty
        reg = penalty
    acc_tr = float((logits_tr.argmax(axis=1) == data.train_y).mean())
    acc_te = float((logits_te.argmax(axis=1) == data.test_y).mean())
    return EpochRecord(epoch, float(tr), float(te), acc_tr, acc_te, float(reg))


def train(net: ToyNet, data: ToyDataset, mode: str = "intersection", alpha: float = 1.0,
          lam: float = 0.0, epochs: int = 200, step: float = 0.05, seed: int = 0,
          batch_size: Optional[int] = None, net_seed: int = 0, data_seed: int = 0,
          ) -> TrainReport:
    """Gradient descent on the chosen loss; mutates net, returns the full report.

    Full batch by default.  With batch_size set, each epoch shuffles the
    training set once with a generator seeded from `seed`, so runs remain
    exactly reproducible.  Epoch 0 records the untouched initial network.
    """
    if mode not in LOSS_MODES:
        raise RangeMismatch(f"mode must be one of {LOSS_MODES}, got {mode!r}")
    rng = np.random.default_rng(seed)
    records = [_metrics(net, data, mode, alpha, lam, 0)]
    n = len(data.train_y)
    for epoch in range(1, epochs + 1):
        if batch_size is None:
            slices = [(data.train_x, data.train_y)]
        else:
            order = rng.permutation(n)
            slices = [(data.train_x[order[i:i + batch_size]], data.train_y[order[i:i + batch_size]])
                      for i in range(0, n, batch_size)]
        for bx, by in slices:
            _, grads, _ = loss_and_grads(net, bx, by, mode, alpha, lam)
            for name in net.PARAM_ORDER:
                net.params[name] = net.params[name] - step * grads[name]
        records.append(_metrics(net, data, mode, alpha, lam, epoch))
    return TrainReport(mode, alpha, lam, epochs, step, seed, net_seed, data_seed,
                       data.k, net.hidden, tuple(records), net.digest())


def report_to_jsonable(report: TrainReport) -> dict:
    out = {
        "mode": report.mode,
        "alpha": report.alpha,
        "lambda": report.lam,
        "epochs": report.epochs,
        "step": report.step,
        "seed": report.seed,
        "net_seed": report.net_seed,
        "data_seed": report.data_seed,
        "k": report.k,
        "hidden": report.hidden,
        "final_digest": report.final_digest,
        "records": [
            {
                "epoch": r.epoch,
                "train_loss": r.train_loss,
                "test_loss": r.test_loss,
                "train_acc": r.train_acc,
                "test_acc": r.test_acc,
                "reg_term": r.reg_term,
            }
            for r in report.records
        ],
    }
    return out


def canonical_report_bytes(report: TrainReport) -> bytes:
    """Stable byte serialization used for the reproducibility checks."""
    return json.dumps(report_to_jsonable(report), sort_keys=True,
                      separators=(",", ":")).encode()
