"""Embedding + cross + deep network trained with exact reverse-mode gradients.

Each example is encoded as h0 = [E_1[i_1] | ... | E_N[i_N] | dense] and pushed
through two parallel paths: a stack of cross layers
``h_{l+1} = W_l h_l + b_l + (c_l . h_l) h0`` that keeps the input width, and a
plain fully connected network. A linear head over the concatenated path
outputs produces the logit. Training minimizes mean binary cross-entropy with
Adam updates; gradients are derived by hand and checked against finite
differences in the test suite.

Every parameter array is a view of one flat vector, ``model.params``, laid
out by ``_shapes`` with the embedding tables first. So h0's embedding part is
one gather at positions computed from each row's indices, ``backward``
returns one gradient vector of the same layout (its embedding part one
``np.bincount``), and an Adam step is a few whole-vector operations.
``forward`` scores a batch in blocks of ``_BLOCK_ROWS`` rows, so the
network's intermediates stay a few MiB however many rows are scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .artifact import FORMAT_VERSION, check_header, config_from_dict, config_to_dict, flat_array
from .artifact import read_model_file, write_json
from .dataset import DesignMatrix
from .metrics import sigmoid


@dataclass(frozen=True)
class XDeepFMConfig:
    embedding_dim: int = 8
    n_cross_layers: int = 2
    deep_widths: tuple[int, ...] = (64, 32)
    hidden_activation: str = "relu"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 256
    n_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be at least 1")
        if self.n_cross_layers < 0 or any(w < 1 for w in self.deep_widths):
            raise ValueError("invalid layer configuration")
        if self.hidden_activation not in ("relu", "sigmoid"):
            raise ValueError("hidden_activation must be 'relu' or 'sigmoid'")
        if self.learning_rate <= 0.0 or self.batch_size < 1 or self.n_epochs < 0:
            raise ValueError("invalid optimizer configuration")


@dataclass
class EmbeddingTable:
    """One (vocab_size x K) table per categorical field, row 0 OOV/missing, as views of ``values``.

    ``values`` is the row-major stacked (sum of ``sizes`` x K) matrix, flattened,
    and ``tables[f]`` its (sizes[f] x K) block. ``positions`` turns a batch's
    indices into positions in ``values``, and ``gradient`` sums a batch's
    gradient back into a vector laid out like ``values``.
    """

    values: np.ndarray
    sizes: tuple[int, ...]
    k: int

    def __post_init__(self):
        starts = np.cumsum((0,) + self.sizes, dtype=np.int64)[:-1] * self.k
        self.tables = [self.values[o : o + m * self.k].reshape(m, self.k) for o, m in zip(starts, self.sizes)]
        self._bound = np.array(self.sizes, dtype=np.int64)
        # per h0 embedding column c: its field, and its position is base[c] + index * K
        self._field = np.repeat(np.arange(len(self.sizes), dtype=np.int64), self.k)
        self._base = (starts[:, None] + np.arange(self.k)).ravel()
        self.width = self._field.size  # embedding columns of h0

    def positions(self, cat_idx: np.ndarray) -> np.ndarray:
        """(n, width) positions in ``values`` of the h0 embedding entries a batch selects.

        ValueError names the first field holding an index outside its table.
        """
        bad = (cat_idx < 0) | (cat_idx >= self._bound)
        if np.count_nonzero(bad):
            f = int(bad.any(axis=0).argmax())
            raise ValueError(f"field {f}: categorical index out of range [0, {self.sizes[f]})")
        at = cat_idx.take(self._field, axis=1)
        at *= self.k
        at += self._base
        return at

    def gradient(self, cat_idx: np.ndarray, d_emb: np.ndarray) -> np.ndarray:
        """The gradient of ``values`` from the (n, width) gradient of the h0 entries a batch selected.

        ``np.bincount`` adds its weights in input order, batch row after batch
        row, so each entry sums the same addends in the same order as a
        per-field ``np.add.at`` would.
        """
        at = self.positions(cat_idx).ravel()
        return np.bincount(at, weights=d_emb.ravel(), minlength=self.values.size)


@dataclass
class CrossLayer:
    W: np.ndarray  # (p, p)
    b: np.ndarray  # (p,)
    c: np.ndarray  # (p,)


@dataclass
class DeepLayer:
    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)


@dataclass
class DeepNet:
    layers: list[DeepLayer]


@dataclass
class XDeepFMModel:
    """The network: its config, the sizes that fix its layout, and one flat parameter vector.

    ``__post_init__`` copies ``params`` and views it, in ``_shapes`` order, as
    the embedding tables, each cross layer's W, b, c, each deep layer's W, b,
    then the head's w and b; an in-place edit of any of them is an edit of
    ``params``.
    """

    config: XDeepFMConfig
    n_dense: int
    vocab_sizes: tuple[int, ...]
    params: np.ndarray

    def __post_init__(self):
        """Build the views; ValueError if ``params`` has the wrong length or is not finite."""
        shapes = _shapes(self.vocab_sizes, self.n_dense, self.config)
        ends = list(accumulate((math.prod(shape) for shape in shapes), initial=0))
        self.params = np.array(self.params, dtype=np.float64)
        if self.params.size != ends[-1]:
            raise ValueError(f"'params' has {self.params.size} entries, the model needs {ends[-1]}")
        if not np.isfinite(self.params).all():
            raise ValueError("model parameters hold non-finite values")
        n_fields = len(self.vocab_sizes)
        self.embeddings = EmbeddingTable(self.params[: ends[n_fields]], self.vocab_sizes, self.config.embedding_dim)
        views = zip(ends[n_fields:], ends[n_fields + 1 :], shapes[n_fields:])
        rest = (self.params[a:b].reshape(shape) for a, b, shape in views)
        self.cross_layers = [CrossLayer(next(rest), next(rest), next(rest)) for _ in range(self.config.n_cross_layers)]
        self.deep = DeepNet([DeepLayer(next(rest), next(rest)) for _ in self.config.deep_widths])
        self.head_w, self.head_b = rest


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def _shapes(vocab_sizes, n_dense: int, cfg: XDeepFMConfig) -> list[tuple[int, ...]]:
    """The shape of every parameter array of a model, in ``params`` order."""
    k = cfg.embedding_dim
    p = k * len(vocab_sizes) + n_dense
    if p == 0:
        raise ValueError("model needs at least one categorical or dense feature")
    shapes = [(m, k) for m in vocab_sizes] + [(p, p), (p,), (p,)] * cfg.n_cross_layers
    w_in = p
    for w_out in cfg.deep_widths:
        shapes += [(w_out, w_in), (w_out,)]
        w_in = w_out
    return shapes + [(p + w_in,), (1,)]


def _init_model(
    rng: np.random.Generator, vocab_sizes: tuple[int, ...], n_dense: int, cfg: XDeepFMConfig
) -> XDeepFMModel:
    """Small uniform tables, Glorot-uniform weights and zero biases, drawn in ``params`` order."""
    shapes = iter(_shapes(vocab_sizes, n_dense, cfg))
    arrays = [rng.uniform(-0.05, 0.05, next(shapes)) for _ in vocab_sizes]
    for _ in range(cfg.n_cross_layers):
        arrays += [_glorot(rng, next(shapes)), np.zeros(next(shapes)), _glorot(rng, next(shapes))]
    for _ in cfg.deep_widths:
        arrays += [_glorot(rng, next(shapes)), np.zeros(next(shapes))]
    arrays += [_glorot(rng, next(shapes)), np.zeros(next(shapes))]
    return XDeepFMModel(cfg, n_dense, vocab_sizes, np.concatenate(arrays, axis=None))


def init_xdeepfm(vocab_sizes, n_dense: int, cfg: XDeepFMConfig = XDeepFMConfig()) -> XDeepFMModel:
    return _init_model(np.random.default_rng(cfg.seed), tuple(vocab_sizes), n_dense, cfg)


def _stack_batch(emb: EmbeddingTable, cat_idx: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """h0 for each row: the selected embedding rows of every field, then the dense features."""
    h0 = np.empty((cat_idx.shape[0], emb.width + dense.shape[1]))
    emb.values.take(emb.positions(cat_idx), out=h0[:, : emb.width])
    h0[:, emb.width :] = dense
    return h0


def _cross_step(layer: CrossLayer, h: np.ndarray, h0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = c . h, and the layer's output W h + b + s h0."""
    s = h @ layer.c
    return s, h @ layer.W.T + layer.b + s[..., None] * h0


def cross_forward(layers: list[CrossLayer], h0: np.ndarray) -> np.ndarray:
    """Apply h_{l+1} = W_l h_l + b_l + (c_l . h_l) h0 in order; width is preserved."""
    h = h0
    for layer in layers:
        _, h = _cross_step(layer, h, h0)
    return h


def _activate(z: np.ndarray, name: str) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return np.asarray(sigmoid(z))
    raise ValueError(f"unknown activation {name!r}")


def _activate_grad(z: np.ndarray, name: str) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        s = np.asarray(sigmoid(z))
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {name!r}")


def deep_forward(net: DeepNet, h0: np.ndarray, activation: str) -> np.ndarray:
    """Alternating affine + activation; an empty net returns h0 unchanged."""
    a = h0
    for layer in net.layers:
        a = _activate(a @ layer.W.T + layer.b, activation)
    return a


def _as_batch(model: XDeepFMModel, cat_idx, dense) -> tuple[np.ndarray, np.ndarray, bool]:
    cat_idx = np.asarray(cat_idx, dtype=np.int64)
    dense = np.asarray(dense, dtype=np.float64)
    single = cat_idx.ndim == 1 and dense.ndim == 1
    if single:
        cat_idx = cat_idx[None, :]
        dense = dense[None, :]
    n_fields = len(model.vocab_sizes)
    if cat_idx.shape[1] != n_fields:
        raise ValueError(f"expected {n_fields} categorical indices per row, got {cat_idx.shape[1]}")
    if dense.shape[1] != model.n_dense:
        raise ValueError(f"expected {model.n_dense} dense features per row, got {dense.shape[1]}")
    if cat_idx.shape[0] != dense.shape[0]:
        raise ValueError("categorical and dense batches differ in length")
    return cat_idx, dense, single


# Rows per forward block. 512 to 2,048 rows scored 100,000 rows about equally
# fast (2x the unblocked pass); 64-row blocks were slower and changed the last
# bits of some probabilities.
_BLOCK_ROWS = 1024


def forward(model: XDeepFMModel, cat_idx, dense):
    """Predicted probability/probabilities; accepts one row or a batch.

    Rows are scored in blocks of ``_BLOCK_ROWS``; the last block also takes the
    remainder, so no block is small enough to switch BLAS to another kernel.
    """
    cat_idx, dense, single = _as_batch(model, cat_idx, dense)
    n = cat_idx.shape[0]
    n_blocks = max(n // _BLOCK_ROWS, 1)
    activation = model.config.hidden_activation
    p = np.empty(n)
    for b in range(n_blocks):
        lo = b * _BLOCK_ROWS
        hi = n if b == n_blocks - 1 else lo + _BLOCK_ROWS
        h0 = _stack_batch(model.embeddings, cat_idx[lo:hi], dense[lo:hi])
        u = np.concatenate([cross_forward(model.cross_layers, h0), deep_forward(model.deep, h0, activation)], axis=1)
        p[lo:hi] = sigmoid(u @ model.head_w + model.head_b[0])
    if np.isnan(p).any():  # some layer met inf - inf or inf * 0
        raise ValueError("the network's output is NaN: its parameters or inputs overflow")
    return float(p[0]) if single else p


def backward(model: XDeepFMModel, cat_idx, dense, y) -> np.ndarray:
    """Exact gradient of mean BCE over the batch, laid out like ``model.params``.

    Embedding rows not referenced by the batch get exactly zero gradient.
    """
    cat_idx, dense, _ = _as_batch(model, cat_idx, dense)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n == 0:
        raise ValueError("backward requires a non-empty batch")
    h0 = _stack_batch(model.embeddings, cat_idx, dense)
    activation = model.config.hidden_activation

    # forward pass, keeping what the backward sweep needs
    hs = [h0]
    dots = []
    h = h0
    for layer in model.cross_layers:
        s, h = _cross_step(layer, h, h0)
        dots.append(s)
        hs.append(h)
    acts = [h0]
    zs = []
    a = h0
    for layer in model.deep.layers:
        z = a @ layer.W.T + layer.b
        zs.append(z)
        a = _activate(z, activation)
        acts.append(a)
    u = np.concatenate([hs[-1], acts[-1]], axis=1)
    p = np.asarray(sigmoid(u @ model.head_w + model.head_b[0]))

    d_logit = (p - y) / n
    rev = [np.array([d_logit.sum()]), u.T @ d_logit]  # gradient pieces, last parameter first
    du = d_logit[:, None] * model.head_w[None, :]
    width = h0.shape[1]
    d_h0 = np.zeros_like(h0)

    # deep path
    grad = du[:, width:]
    for li in reversed(range(len(model.deep.layers))):
        layer = model.deep.layers[li]
        dz = grad * _activate_grad(zs[li], activation)
        rev += [dz.sum(axis=0), dz.T @ acts[li]]
        grad = dz @ layer.W
    d_h0 += grad

    # cross path; each layer touches h0 directly through the interaction term
    grad = du[:, :width]
    for li in reversed(range(len(model.cross_layers))):
        layer = model.cross_layers[li]
        h_in = hs[li]
        s = dots[li]
        ds = (grad * h0).sum(axis=1)
        rev += [h_in.T @ ds, grad.sum(axis=0), grad.T @ h_in]
        d_h0 += grad * s[:, None]
        grad = grad @ layer.W + ds[:, None] * layer.c[None, :]
    d_h0 += grad

    rev.append(model.embeddings.gradient(cat_idx, d_h0[:, : model.embeddings.width]))
    return np.concatenate(rev[::-1], axis=None)


def _grad_arrays(g: np.ndarray) -> list[np.ndarray]:
    """``backward``'s gradient as the one-array list that callers concatenate."""
    return [g]


def get_flat_params(model: XDeepFMModel) -> np.ndarray:
    return model.params.copy()


def set_flat_params(model: XDeepFMModel, vec: np.ndarray) -> None:
    if vec.size != model.params.size:
        raise ValueError(f"parameter vector has {vec.size} entries, model needs {model.params.size}")
    model.params[...] = vec


def train_xdeepfm(dm: DesignMatrix, cfg: XDeepFMConfig = XDeepFMConfig()) -> XDeepFMModel:
    """Mini-batch Adam on mean BCE; deterministic for a fixed seed."""
    y = dm.labels.astype(np.float64)
    if y.size == 0:
        raise ValueError("training requires at least one row")
    if y.min() == y.max():
        raise ValueError("training requires both classes to be present")
    rng = np.random.default_rng(cfg.seed)
    model = _init_model(rng, tuple(dm.cat_cardinalities), dm.dense.shape[1], cfg)
    theta = model.params
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    n = y.size
    for _ in range(cfg.n_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            g = backward(model, dm.cat_indices[sel], dm.dense[sel], y[sel])
            step += 1
            bias1 = 1.0 - cfg.beta1**step
            bias2 = 1.0 - cfg.beta2**step
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            theta -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)
    return model


def xdeepfm_to_dict(model: XDeepFMModel) -> dict:
    """The model document: the sizes that fix the layout, then ``model.params`` as one list."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "xdeepfm",
        "config": config_to_dict(model.config),
        "n_dense": model.n_dense,
        "vocab_sizes": [int(m) for m in model.vocab_sizes],  # Python ints, also if built from NumPy ints
        "params": model.params.tolist(),
    }


def xdeepfm_from_dict(d: dict) -> XDeepFMModel:
    """The model a document describes; ValueError if its sizes or parameters are malformed or non-finite."""
    check_header(d, "xdeepfm")
    cfg = config_from_dict(XDeepFMConfig, d["config"])
    n_dense, vocab_sizes = d["n_dense"], d["vocab_sizes"]
    if type(n_dense) is not int or n_dense < 0:
        raise ValueError(f"n_dense must be a non-negative integer, got {n_dense!r}")
    if not isinstance(vocab_sizes, list) or any(type(m) is not int or m < 1 for m in vocab_sizes):
        raise ValueError("'vocab_sizes' must be a list of integers >= 1")
    params = flat_array("'params'", d["params"])
    if 3 * cfg.n_cross_layers > params.size:  # checked first: _shapes lists 3 shapes per cross layer
        raise ValueError(f"'params' has {params.size} entries, too few for {cfg.n_cross_layers} cross layers")
    return XDeepFMModel(cfg, n_dense, tuple(vocab_sizes), params)


def save_xdeepfm(model: XDeepFMModel, path) -> None:
    write_json(path, xdeepfm_to_dict(model))


def load_xdeepfm(path) -> XDeepFMModel:
    return xdeepfm_from_dict(read_model_file(path))
