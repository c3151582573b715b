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
``forward`` and ``backward`` share one pass, ``_passes``: ``forward`` runs
it on blocks of ``_BLOCK_ROWS`` rows, so the network's intermediates stay a
few MiB however many rows are scored, and ``backward`` on its whole batch.

h0's dense part is a design matrix's first ``n_dense`` columns, the numeric and
binary ones: each categorical enters once, as its embedding, and the matrix's
tail of the same indices as floats is the GBDT's alone, which ``forward`` and
``backward`` accept and skip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .artifact import FORMAT_VERSION, check_header, config_from_dict, config_to_dict, pack_floats
from .artifact import read_model_file, unpack_floats, write_json
from .dataset import DesignMatrix
from .metrics import bce, sigmoid

# with validation rows, training stops this many epochs after the lowest validation BCE
_EARLY_STOPPING_EPOCHS = 3


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
        if self.seed < 0:  # NumPy's generators take no negative seed
            raise ValueError("seed must be non-negative")


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

    def gradient(self, at: np.ndarray, d_emb: np.ndarray) -> np.ndarray:
        """The gradient of ``values`` from the (n, width) gradient of the h0 entries at a batch's ``positions``.

        ``np.bincount`` adds its weights in input order, batch row after batch
        row, so each entry sums the same addends in the same order as a
        per-field ``np.add.at`` would.
        """
        return np.bincount(at.ravel(), weights=d_emb.ravel(), minlength=self.values.size)


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
        self.full_width = self.n_dense + n_fields  # with each field's index column


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


def _stack_batch(emb: EmbeddingTable, at: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """h0 for each row: the embedding entries at the batch's ``positions``, then the dense features."""
    h0 = np.empty((at.shape[0], emb.width + dense.shape[1]))
    emb.values.take(at, out=h0[:, : emb.width])
    h0[:, emb.width :] = dense
    return h0


def _activate(z: np.ndarray, name: str) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    return np.asarray(sigmoid(z))  # XDeepFMConfig admits no other name


def _activate_grad(z: np.ndarray, name: str) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    s = np.asarray(sigmoid(z))
    return s * (1.0 - s)


def _passes(model: XDeepFMModel, h0: np.ndarray) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Everything after a batch's h0: the cross and deep paths, the head input u and the probabilities p.

    Returns (crosses, deeps, u, p): each cross layer's input h and its c . h,
    and each deep layer's input a and pre-activation z, in layer order.
    """
    crosses = []
    h = h0
    for layer in model.cross_layers:  # h_{l+1} = W_l h_l + b_l + (c_l . h_l) h0
        s = h @ layer.c
        crosses.append((h, s))
        h = h @ layer.W.T + layer.b + s[:, None] * h0
    deeps = []
    a = h0
    for layer in model.deep.layers:
        z = a @ layer.W.T + layer.b
        deeps.append((a, z))
        a = _activate(z, model.config.hidden_activation)
    u = np.concatenate([h, a], axis=1)
    return crosses, deeps, u, np.asarray(sigmoid(u @ model.head_w + model.head_b[0]))


def _as_batch(model: XDeepFMModel, cat_idx, dense) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both inputs as a batch, and whether they were one row; ValueError unless both are 1-D or both 2-D."""
    cat_idx = np.asarray(cat_idx, dtype=np.int64)
    dense = np.asarray(dense, dtype=np.float64)
    if cat_idx.ndim != dense.ndim or cat_idx.ndim not in (1, 2):
        raise ValueError(f"expected one row or a batch of both, got {cat_idx.ndim}-D indices, {dense.ndim}-D features")
    single = cat_idx.ndim == 1
    if single:
        cat_idx = cat_idx[None, :]
        dense = dense[None, :]
    n_fields = len(model.vocab_sizes)
    if cat_idx.shape[1] != n_fields:
        raise ValueError(f"expected {n_fields} categorical indices per row, got {cat_idx.shape[1]}")
    if dense.shape[1] not in (model.n_dense, model.full_width):
        raise ValueError(
            f"expected {model.n_dense} dense features per row, or {model.full_width} with the index columns,"
            f" got {dense.shape[1]}"
        )
    if cat_idx.shape[0] != dense.shape[0]:
        raise ValueError("categorical and dense batches differ in length")
    return cat_idx, dense[:, : model.n_dense], single


# Rows per forward block. 512 to 2,048 rows scored 100,000 rows about equally
# fast (2x the unblocked pass); 64-row blocks were slower and changed the last
# bits of some probabilities.
_BLOCK_ROWS = 1024


def forward(model: XDeepFMModel, cat_idx, dense):
    """Predicted probability/probabilities; accepts one row or a batch.

    Rows are scored in blocks of ``_BLOCK_ROWS`` and a shorter last block, so
    scoring the rows in pieces cut at multiples of ``_BLOCK_ROWS`` gives the
    same bits as one call.
    """
    cat_idx, dense, single = _as_batch(model, cat_idx, dense)
    emb = model.embeddings
    p = np.empty(cat_idx.shape[0])
    for lo in range(0, p.size, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        p[block] = _passes(model, _stack_batch(emb, emb.positions(cat_idx[block]), dense[block]))[-1]
    if np.isnan(p).any():  # some layer met inf - inf or inf * 0
        raise ValueError("the network's output is NaN: its parameters or inputs overflow")
    return float(p[0]) if single else p


def backward(model: XDeepFMModel, cat_idx, dense, y) -> np.ndarray:
    """Exact gradient of mean BCE over the batch, laid out like ``model.params``.

    ``y`` holds one label per row, or is a scalar for one row; ValueError
    otherwise. Embedding rows not referenced by the batch get exactly zero
    gradient.
    """
    cat_idx, dense, single = _as_batch(model, cat_idx, dense)
    y = np.asarray(y, dtype=np.float64)
    n = cat_idx.shape[0]
    if y.shape != (n,) and not (single and y.ndim == 0):
        raise ValueError(f"expected one label per row, {n} in all, got labels of shape {y.shape}")
    if n == 0:
        raise ValueError("backward requires a non-empty batch")
    at = model.embeddings.positions(cat_idx)  # found once, for the gather and for the gradient
    h0 = _stack_batch(model.embeddings, at, dense)
    crosses, deeps, u, p = _passes(model, h0)

    d_logit = (p - y) / n
    rev = [np.array([d_logit.sum()]), u.T @ d_logit]  # gradient pieces, last parameter first
    du = d_logit[:, None] * model.head_w[None, :]
    width = h0.shape[1]
    d_h0 = np.zeros_like(h0)

    # deep path
    grad = du[:, width:]
    for layer, (a, z) in zip(reversed(model.deep.layers), reversed(deeps)):
        dz = grad * _activate_grad(z, model.config.hidden_activation)
        rev += [dz.sum(axis=0), dz.T @ a]
        grad = dz @ layer.W
    d_h0 += grad

    # cross path; each layer touches h0 directly through the interaction term
    grad = du[:, :width]
    for layer, (h, s) in zip(reversed(model.cross_layers), reversed(crosses)):
        ds = (grad * h0).sum(axis=1)
        rev += [h.T @ ds, grad.sum(axis=0), grad.T @ h]
        d_h0 += grad * s[:, None]
        grad = grad @ layer.W + ds[:, None] * layer.c[None, :]
    d_h0 += grad

    rev.append(model.embeddings.gradient(at, d_h0[:, : model.embeddings.width]))
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


def train_xdeepfm(
    dm: DesignMatrix, cfg: XDeepFMConfig = XDeepFMConfig(), val: DesignMatrix | None = None
) -> XDeepFMModel:
    """Mini-batch Adam on mean BCE; deterministic for a fixed seed. ValueError if an epoch ends non-finite.

    Without ``val``, the model is the one after all cfg.n_epochs epochs. With
    ``val``, ``forward`` scores its rows after each epoch. Training stops once
    ``_EARLY_STOPPING_EPOCHS`` epochs in a row have not lowered their BCE
    strictly, and the model keeps the parameters of the lowest BCE, the first
    such epoch on a tie. It is the model a fit of that many epochs without
    ``val`` gives, its config's n_epochs included.
    """
    y = dm.labels.astype(np.float64)
    if y.size == 0:
        raise ValueError("training requires at least one row")
    if y.min() == y.max():
        raise ValueError("training requires both classes to be present")
    dense = np.ascontiguousarray(dm.dense[:, : dm.dense.shape[1] - dm.n_categorical])  # the index tail is the GBDT's
    rng = np.random.default_rng(cfg.seed)
    model = _init_model(rng, tuple(dm.cat_cardinalities), dense.shape[1], cfg)
    theta = model.params
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    n = y.size
    best_epoch, best_loss, kept = 0, math.inf, theta  # kept: the parameters after epoch best_epoch
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging fit is reported below, not warned of
        for epoch in range(1, cfg.n_epochs + 1):
            if val is not None and epoch - 1 - best_epoch >= _EARLY_STOPPING_EPOCHS:
                break
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                sel = order[start : start + cfg.batch_size]
                g = backward(model, dm.cat_indices[sel], dense[sel], y[sel])
                step += 1
                bias1 = 1.0 - cfg.beta1**step
                bias2 = 1.0 - cfg.beta2**step
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * g
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * g * g
                theta -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)
            if not np.isfinite(theta).all():
                raise ValueError(f"parameters are not finite after epoch {epoch}")
            if val is not None and (loss := bce(val.labels, forward(model, val.cat_indices, val.dense))) < best_loss:
                best_epoch, best_loss, kept = epoch, loss, theta.copy()
    if val is not None:  # the model a fit of best_epoch epochs gives
        return XDeepFMModel(replace(cfg, n_epochs=best_epoch), model.n_dense, model.vocab_sizes, kept)
    return model


def xdeepfm_to_dict(model: XDeepFMModel) -> dict:
    """The model document: the sizes that fix the layout, then ``model.params`` as their exact bytes."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "xdeepfm",
        "config": config_to_dict(model.config),
        "n_dense": model.n_dense,
        "vocab_sizes": [int(m) for m in model.vocab_sizes],  # Python ints, also if built from NumPy ints
        "params": pack_floats(model.params),
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
    params = unpack_floats("'params'", d["params"])
    if 3 * cfg.n_cross_layers > params.size:  # checked first: _shapes lists 3 shapes per cross layer
        raise ValueError(f"'params' has {params.size} entries, too few for {cfg.n_cross_layers} cross layers")
    return XDeepFMModel(cfg, n_dense, tuple(vocab_sizes), params)


def save_xdeepfm(model: XDeepFMModel, path) -> None:
    write_json(path, xdeepfm_to_dict(model))


def load_xdeepfm(path) -> XDeepFMModel:
    return xdeepfm_from_dict(read_model_file(path))
