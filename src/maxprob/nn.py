"""Small dense network trained on the intersection objective, on synthetic blobs.

Each example is one cell of the paper's objective (objectives): the model is
p = softmax(x) of the example's logits x over the K classes, the oracle is
one-hot at its label y, the prior is uniform, and the assumption is
cond-independent.  The likelihood term is then log p[y] + log K and the soft
bound -log K - (1/alpha) * log sum_c p_c ** alpha, so the intersection loss
is exactly minus the objective:

    loss_i = -log p[y_i] + (1/alpha) * log sum_c p_c ** alpha = -objective_i.

Its gradient in the logits is repulsion - attraction: the soft bound's ratio
skeleton softmax(alpha * x) minus the oracle's posterior, onehot(y).  Both
run on the package's one reduction, which shifts before it scales by alpha,
for the objectives too: the loss on the soft minimum of -log p
(logspace._soft_min_step), the gradient on the weights of the soft minimum of -x,
exp(logspace._log_softmax(x, alpha)), taken from x without negating.

The recorded regularizer term -(1/alpha) * log sum_c p_c ** alpha lies
between 0 (a one-hot prediction) and log(K) * (alpha - 1) / alpha (a uniform
one, regularizer_bound); it enters the loss with a minus sign, so minimizing
the loss trades label fit against spread-out predictions.  alpha = 1
collapses to plain cross entropy.  Mode "ce-l2" is cross entropy plus lam
times the squared weight-matrix entries.

Training runs through one loss kernel (_loss) and one hand-written backward
pass (_backprop) on numpy arrays; there is no autodiff anywhere, which is
what makes the finite-difference audit in the test suite meaningful.  train
checks every setting and both splits once; a minibatch then checks only
that its logits are finite, which is how a diverging run is reported: numpy's
overflow and invalid-value warnings are off for the whole run.  The report
reads its seeds from the network and the dataset, which record them.
train concatenates the six tensors into one flat weight vector, and after it
net.params holds views into that vector: _backprop writes each minibatch's
gradients into views of a second one, and one subtraction updates them all.
Each epoch permutes the training set and its one-hot label rows once and
steps through slices of both; a minibatch subtracts its label rows from the
weights.  Each epoch's record takes a forward pass per split, then one loss
pass over both splits' logits concatenated, and each split's means from its
half.  (A forward pass over both splits at once allocates 128 KiB arrays,
which glibc's malloc can return to the system and fault in again each epoch.)
loss_and_grads runs the same _backprop on the one-hot rows of its labels.

hn_forward is the generalized softmax head exp(x_i) / sum_j exp(alpha * x_j),
exp(x_i - logsumexp(alpha * x)) (logspace._head): softmax at alpha = 1, bit for
bit, and inf for a head value past finfo.max.  Training does not call it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    LabelOutOfRange,
    NonFiniteLogits,
    as_array,
    require_alpha,
    require_choice,
    require_integer,
    require_real,
)
from .logspace import _head, _log_softmax, _soft_min_step

__all__ = [
    "LOSS_MODES",
    "MAX_TOY_CLASSES",
    "MAX_TOY_HIDDEN",
    "hn_forward",
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
WEIGHTS = ("W1", "W2", "W3")
# Largest toy sizes, so that no array training makes holds more than 10**8 floats.
MAX_TOY_CLASSES = 10**3
MAX_TOY_HIDDEN = 10**3
_N_TRAIN = _N_TEST = 512  # the toy dataset's split sizes
_RADIUS = 2.0  # the toy blobs' class centers lie on a circle of this radius
_NOISE = 1.0  # standard deviation of each blob around its center


def _finite(logits: np.ndarray) -> np.ndarray:
    """The logits array, unless an entry is NaN or infinite."""
    if not np.isfinite(logits).all():
        raise NonFiniteLogits("logits must be finite")
    return logits


def _check_logits(logits) -> np.ndarray:
    return _finite(as_array(logits))


def _check_batch(rows, labels, k: Optional[int] = None,
                 width: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, labels as ints) for n >= 1 rows (of the given width) and n integer labels
    in [0, k); k defaults to the rows' width, as it is for logits."""
    x = as_array(rows)
    y = as_array(labels, None)
    if x.ndim != 2 or len(x) == 0 or width not in (None, x.shape[1]) or y.shape != (len(x),):
        raise DimensionMismatch(f"expected n >= 1 rows of width {width or 'k'} and n labels, "
                                f"got shapes {x.shape} and {y.shape}")
    k = x.shape[1] if k is None else k
    if y.dtype.kind not in "iu":
        raise LabelOutOfRange(f"labels must be integers, got dtype {y.dtype}")
    if np.any(y < 0) or np.any(y >= k):
        raise LabelOutOfRange(f"labels must lie in [0, {k})")
    return x, y.astype(int)


def _check_loss(mode: str, alpha: float, lam: float,
                step: float = 1.0) -> tuple[float, float, float]:
    """alpha, lam and step as floats, so that a numpy scalar does not reach a report, once
    mode is known, alpha finite and positive, lam finite and >= 0 and step finite and > 0."""
    require_choice("mode", mode, LOSS_MODES)
    return (require_alpha(alpha), require_real("lam", lam, "non-negative"),
            require_real("step", step, "positive"))


def hn_forward(logits, alpha: float) -> np.ndarray:
    """Generalized softmax head: exp(x_i - logsumexp(alpha * x)) along the last axis."""
    alpha = require_alpha(alpha)
    return _head(_check_logits(logits), alpha)


def _loss(x: np.ndarray, y: np.ndarray, mode: str, alpha: float, penalty: float,
          parts: tuple[slice, ...] = (slice(None),)) -> list[tuple[float, float]]:
    """(mean loss, regularizer term) of each stretch of rows in parts (slices) of checked
    logits x against labels y; the penalty, ce-l2's regularizer, is ignored by
    intersection.  Every row is reduced on its own, so a stretch's means are those of its
    rows alone, bit for bit."""
    logp = _log_softmax(x)
    label_logp = logp[np.arange(len(y)), y]
    if mode == "intersection":
        mass = -_soft_min_step(-logp, alpha, False)[0]
        losses = mass - label_logp
        return [(float(losses[rows].mean()), float(-mass[rows].mean())) for rows in parts]
    return [(float(-label_logp[rows].mean()) + penalty, penalty) for rows in parts]


def _penalty(net: "ToyNet", mode: str, lam: float) -> float:
    """ce-l2's regularizer, lam times the sum of squared weight-matrix entries (biases are
    not penalized); intersection has none, and _loss ignores it there."""
    if mode != "ce-l2":
        return 0.0
    return lam * sum(float(np.sum(net.params[w] ** 2)) for w in WEIGHTS)


def intersection_loss(batch_logits, labels, alpha: float) -> float:
    """Mean of -log p[y] + (1/alpha) * log sum_y p_y ** alpha over the batch."""
    alpha = require_alpha(alpha)
    x, y = _check_batch(_check_logits(batch_logits), labels)
    return _loss(x, y, "intersection", alpha, 0.0)[0][0]


def cross_entropy_loss(batch_logits, labels) -> float:
    """Mean negative log softmax probability of the true labels."""
    x, y = _check_batch(_check_logits(batch_logits), labels)
    # -0.0 is the exact additive identity: a saturated batch keeps its -0.0 loss
    return _loss(x, y, "ce-l2", 1.0, -0.0)[0][0]


def regularizer_bound(k: int, alpha: float) -> float:
    """Regularizer term of a uniform prediction over k classes, log(k) * (alpha - 1) / alpha:
    the largest the term can be for alpha >= 1, the smallest below.  -log p is log(k) for
    every class, and a soft minimum of k equal entries lies log(k) / alpha below them."""
    alpha = require_alpha(alpha)
    k = require_integer("k", k, 1, MAX_TOY_CLASSES)
    return float(np.log(k) + _soft_min_step(np.zeros(k), alpha, False)[0])


@dataclass(frozen=True, eq=False)
class ToyDataset:
    """Gaussian blobs on a circle; balanced labels assigned round-robin."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    k: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("train_x", "train_y", "test_x", "test_y"):
            getattr(self, name).setflags(write=False)


def make_toy_dataset(k: int = 3, seed: int = 0) -> ToyDataset:
    """_N_TRAIN training and _N_TEST test points in k unit-variance Gaussian classes
    centered on a radius-2 circle.

    Class c sits at angle 2*pi*c/k starting from angle 0; labels cycle
    round-robin so counts differ by at most one when k does not divide the
    sample count.  Everything is a pure function of the seed it records.
    """
    k, seed = require_integer("k", k, 1, MAX_TOY_CLASSES), require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = _RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = np.arange(_N_TRAIN + _N_TEST) % k
    points = centers[labels] + _NOISE * rng.standard_normal((len(labels), 2))
    return ToyDataset(points[:_N_TRAIN], labels[:_N_TRAIN],
                      points[_N_TRAIN:], labels[_N_TRAIN:], k, seed)


class ToyNet:
    """Two hidden ReLU layers, 2 -> hidden -> hidden -> k, explicit weights.

    Weight matrices are drawn from N(0, 1/fan_in) with a seeded generator;
    biases start at zero.  params is an ordered name -> array mapping used
    by the update loop, the digest, and the finite-difference audit alike.
    """

    PARAM_ORDER = ("W1", "b1", "W2", "b2", "W3", "b3")

    def __init__(self, k: int = 3, hidden: int = 16, seed: int = 0) -> None:
        k, hidden, seed = (require_integer("k", k, 1, MAX_TOY_CLASSES),
                           require_integer("hidden", hidden, 1, MAX_TOY_HIDDEN),
                           require_integer("seed", seed, 0))
        rng = np.random.default_rng(seed)
        self.k, self.hidden, self.seed = k, hidden, seed
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

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in self.PARAM_ORDER:
            h.update(self.params[name].tobytes())
        return h.hexdigest()


def _backprop(net: ToyNet, x: np.ndarray, hot: np.ndarray, mode: str, alpha: float,
              lam: float, out: Optional[dict[str, np.ndarray]] = None,
              ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(logits, mean-loss gradients) of checked examples x with one-hot label rows hot,
    the gradients written into out's arrays if given, else fresh; d loss_i / d logits is
    the soft minimum's weights softmax(a * logits) - hot_i, a = alpha (intersection) or 1.
    A weight w >= 0 less 0.0 is w, so subtracting hot changes only the label entries."""
    logits, (x0, z1, a1, z2, a2) = net.forward(x, want_cache=True)
    dlogits = np.exp(_log_softmax(_finite(logits), alpha if mode == "intersection" else 1.0))
    dlogits -= hot
    dlogits /= len(hot)
    p, out = net.params, out or {}
    grads = {"W3": np.matmul(a2.T, dlogits, out=out.get("W3")),
             "b3": np.add.reduce(dlogits, 0, out=out.get("b3"))}
    dz2 = dlogits @ p["W3"].T
    dz2 *= z2 > 0
    grads["W2"] = np.matmul(a1.T, dz2, out=out.get("W2"))
    grads["b2"] = np.add.reduce(dz2, 0, out=out.get("b2"))
    dz1 = dz2 @ p["W2"].T
    dz1 *= z1 > 0
    grads["W1"] = np.matmul(x0.T, dz1, out=out.get("W1"))
    grads["b1"] = np.add.reduce(dz1, 0, out=out.get("b1"))
    if mode == "ce-l2":
        for w in WEIGHTS:
            grads[w] += 2.0 * lam * p[w]
    return logits, grads


def loss_and_grads(net: ToyNet, x: np.ndarray, y: np.ndarray, mode: str,
                   alpha: float = 1.0, lam: float = 0.0,
                   ) -> tuple[float, dict[str, np.ndarray], float]:
    """One forward/backward pass; returns (loss, gradients, regularizer term).

    mode "intersection" uses the mass-penalized loss at the given alpha;
    mode "ce-l2" uses cross entropy plus lam * sum of squared weight-matrix
    entries (biases are not penalized).  The logit gradient is
    skeleton_alpha(p) - onehot, which reduces to p - onehot at alpha = 1.
    """
    alpha, lam, _ = _check_loss(mode, alpha, lam)
    x, y = _check_batch(x, y, net.k, width=2)
    logits, grads = _backprop(net, x, np.eye(net.k)[y], mode, alpha, lam)
    loss, reg = _loss(logits, y, mode, alpha, _penalty(net, mode, lam))[0]
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
    final_digest: str
    records: tuple[EpochRecord, ...]


def _metrics(net: ToyNet, xs: tuple[np.ndarray, np.ndarray], y: np.ndarray, mode: str,
             alpha: float, lam: float, epoch: int) -> EpochRecord:
    """The record of one epoch from the checked training and test rows xs and their labels
    y, concatenated: a forward pass per split, then one loss pass over both."""
    cut = len(xs[0])
    logits = _finite(np.concatenate([net.forward(x) for x in xs]))
    splits = (slice(None, cut), slice(cut, None))
    (tr, reg), (te, _) = _loss(logits, y, mode, alpha, _penalty(net, mode, lam), splits)
    hits = logits.argmax(axis=1) == y
    return EpochRecord(epoch, tr, te, float(hits[:cut].mean()), float(hits[cut:].mean()), reg)


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """name -> the stretch of flat shaped as like[name], laid out in ToyNet.PARAM_ORDER."""
    views, start = {}, 0
    for name in ToyNet.PARAM_ORDER:
        views[name] = flat[start:start + like[name].size].reshape(like[name].shape)
        start += like[name].size
    return views


def train(net: ToyNet, data: ToyDataset, mode: str = "intersection", alpha: float = 1.0,
          lam: float = 0.0, epochs: int = 200, step: float = 0.05, seed: int = 0,
          batch_size: Optional[int] = None) -> TrainReport:
    """Gradient descent on the chosen loss; mutates net, returns the full report.

    Full batch by default.  With batch_size set, each epoch shuffles the
    training set once with a generator seeded from `seed`, so runs remain
    exactly reproducible.  Epoch 0 records the untouched initial network.
    """
    alpha, lam, step = _check_loss(mode, alpha, lam, step)
    if data.k != net.k:
        raise DimensionMismatch(f"the data has {data.k} classes, the net {net.k}")
    epochs, seed = require_integer("epochs", epochs, 0), require_integer("seed", seed, 0)
    size = None if batch_size is None else require_integer("batch_size", batch_size, 1)
    train_x, train_y = _check_batch(data.train_x, data.train_y, net.k, width=2)
    test_x, test_y = _check_batch(data.test_x, data.test_y, net.k, width=2)
    n = len(train_y)
    size = n if size is None else size
    both_y = np.concatenate([train_y, test_y])
    train_hot = np.eye(net.k)[train_y]
    rng = np.random.default_rng(seed)
    weights = np.concatenate([net.params[name].ravel() for name in net.PARAM_ORDER])
    net.params.update(_views(weights, net.params))
    flat_grads = np.empty_like(weights)
    grads = _views(flat_grads, net.params)
    # a diverging run overflows in forward's matmuls: its logits report it, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        records = [_metrics(net, (train_x, test_x), both_y, mode, alpha, lam, 0)]
        for epoch in range(1, epochs + 1):
            xs, hot = train_x, train_hot
            if batch_size is not None:
                order = rng.permutation(n)
                xs, hot = train_x[order], train_hot[order]
            for start in range(0, n, size):
                _backprop(net, xs[start:start + size], hot[start:start + size], mode, alpha,
                          lam, grads)
                weights -= step * flat_grads
            records.append(_metrics(net, (train_x, test_x), both_y, mode, alpha, lam, epoch))
    return TrainReport(mode, alpha, lam, epochs, step, seed, net.seed, data.seed,
                       data.k, net.hidden, net.digest(), tuple(records))


def report_to_jsonable(report: TrainReport) -> dict:
    """The report as a JSON-ready dict, field order kept and lam written as "lambda"."""
    return {("lambda" if key == "lam" else key): value
            for key, value in dataclasses.asdict(report).items()}


def canonical_report_bytes(report: TrainReport) -> bytes:
    """Stable byte serialization used for the reproducibility checks."""
    return json.dumps(report_to_jsonable(report), sort_keys=True,
                      separators=(",", ":")).encode()
