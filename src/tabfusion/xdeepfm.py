"""Embedding + cross + deep network trained with exact reverse-mode gradients.

Each example is encoded as h0 = [E_1[i_1] | ... | E_N[i_N] | dense] and pushed
through two parallel paths: a stack of cross layers
``h_{l+1} = W_l h_l + b_l + (c_l . h_l) h0`` that keeps the input width, and a
plain fully connected network. A linear head over the concatenated path
outputs produces the logit. Training minimizes mean binary cross-entropy with
Adam updates; gradients are derived by hand and checked against finite
differences in the test suite.

Every parameter array is a view of one flat vector, ``model.params``, with
the embedding tables first. So h0's embedding part is one gather at
positions computed from each row's indices, ``backward`` returns one
gradient vector of the same layout (its embedding part one ``np.bincount``),
and an Adam step is a few whole-vector operations.
``forward`` scores a batch in blocks of ``_BLOCK_ROWS`` rows, so the
network's intermediates stay a few MiB however many rows are scored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import FORMAT_VERSION, check_header, config_from_dict, config_to_dict, write_json
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
    """One (vocab_size x K) matrix per categorical field; row 0 is OOV/missing.

    The constructor copies every table into one flat vector, ``values``, and
    replaces ``tables`` with views of it, so an in-place edit of ``tables[f]``
    is an edit of ``values``. With one K for every field, as in a model,
    ``values`` is the row-major stacked (sum of vocab sizes x K) matrix.
    ``sizes`` holds each table's row count. ``positions`` turns a batch's
    indices into positions in ``values``, and ``gradient`` sums a batch's
    gradient back into a vector laid out like ``values``.
    """

    tables: list[np.ndarray]

    def __post_init__(self):
        for f, table in enumerate(self.tables):
            if table.ndim != 2:
                raise ValueError(f"embedding table {f} has shape {table.shape}, expected a matrix")
        shapes = [t.shape for t in self.tables]
        starts = np.cumsum([0] + [m * k for m, k in shapes]).tolist()
        self._blocks = [(o, m, k) for o, (m, k) in zip(starts, shapes)]  # (start, m, K) per table
        self.values = np.concatenate([t.ravel() for t in self.tables] or [np.zeros(0)], dtype=np.float64)
        self.tables = self.split(self.values)
        self.sizes = np.array([m for m, _ in shapes], dtype=np.int64)
        # per h0 embedding column c: its field, and its position is base[c] + index * stride[c]
        self._field = np.array([f for f, (_, k) in enumerate(shapes) for _ in range(k)], dtype=np.int64)
        self._stride = np.array([k for _, k in shapes for _ in range(k)], dtype=np.int64)
        self._base = np.array([o + j for o, _, k in self._blocks for j in range(k)], dtype=np.int64)

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per-table (m x K) views of a vector laid out like ``values``."""
        return [vec[o : o + m * k].reshape(m, k) for o, m, k in self._blocks]

    @property
    def n_fields(self) -> int:
        return len(self.tables)

    @property
    def width(self) -> int:
        """Embedding columns of h0: the sum of every table's K."""
        return self._field.size

    def positions(self, cat_idx: np.ndarray) -> np.ndarray:
        """(n, width) positions in ``values`` of the h0 embedding entries a batch selects.

        ValueError names the first field holding an index outside its table.
        """
        bad = (cat_idx < 0) | (cat_idx >= self.sizes)
        if np.count_nonzero(bad):
            f = int(bad.any(axis=0).argmax())
            raise ValueError(f"field {f}: categorical index out of range [0, {self.sizes[f]})")
        at = cat_idx.take(self._field, axis=1)
        at *= self._stride
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
    activation: str


@dataclass
class DeepNet:
    layers: list[DeepLayer]


@dataclass
class XDeepFMModel:
    """The network. ``__post_init__`` copies every parameter array into one vector,
    ``params``, and makes each array a view of it: the embedding tables, each
    cross layer's W, b, c, each deep layer's W, b, then the head's w and b."""

    config: XDeepFMConfig
    n_dense: int
    embeddings: EmbeddingTable
    cross_layers: list[CrossLayer]
    deep: DeepNet
    head_w: np.ndarray  # (p + deep output width,)
    head_b: np.ndarray  # shape (1,)

    def __post_init__(self):
        """Reject parameters that are not finite or whose shapes do not chain; then build ``params``."""
        k = self.config.embedding_dim
        if not isinstance(self.n_dense, (int, np.integer)) or self.n_dense < 0:
            raise ValueError(f"n_dense must be a non-negative integer, got {self.n_dense!r}")
        for f, table in enumerate(self.embeddings.tables):
            if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] != k:
                raise ValueError(f"embedding table {f} has shape {table.shape}, expected (>= 1, {k})")
        p = self.input_width
        if p == 0:
            raise ValueError("model needs at least one categorical or dense feature")
        for i, layer in enumerate(self.cross_layers):
            if layer.W.shape != (p, p) or layer.b.shape != (p,) or layer.c.shape != (p,):
                raise ValueError(f"cross layer {i} needs W of shape ({p}, {p}) and b, c of shape ({p},)")
        width = p
        for i, layer in enumerate(self.deep.layers):
            out = layer.W.shape[0] if layer.W.ndim == 2 else 0
            if out < 1 or layer.W.shape != (out, width) or layer.b.shape != (out,):
                raise ValueError(f"deep layer {i} needs W of shape (out >= 1, {width}) and b of shape (out,)")
            if layer.activation not in ("relu", "sigmoid"):
                raise ValueError(f"deep layer {i} has unknown activation {layer.activation!r}")
            width = out
        if self.head_w.shape != (p + width,) or self.head_b.shape != (1,):
            raise ValueError(f"the head must hold {p + width} weights and one bias")
        slots = [(self.embeddings, "values")]
        for layer in self.cross_layers:
            slots += [(layer, "W"), (layer, "b"), (layer, "c")]
        for layer in self.deep.layers:
            slots += [(layer, "W"), (layer, "b")]
        slots += [(self, "head_w"), (self, "head_b")]
        arrays = [getattr(owner, name) for owner, name in slots]
        self.params = np.concatenate(arrays, axis=None, dtype=np.float64)
        if not np.isfinite(self.params).all():
            raise ValueError("model parameters hold non-finite values")
        start = 0
        for (owner, name), a in zip(slots, arrays):
            setattr(owner, name, self.params[start : start + a.size].reshape(a.shape))
            start += a.size
        self.embeddings.tables = self.embeddings.split(self.embeddings.values)

    @property
    def input_width(self) -> int:
        return self.config.embedding_dim * self.embeddings.n_fields + self.n_dense


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def _init_model(
    rng: np.random.Generator, vocab_sizes: tuple[int, ...], n_dense: int, cfg: XDeepFMConfig
) -> XDeepFMModel:
    k = cfg.embedding_dim
    tables = [rng.uniform(-0.05, 0.05, (m, k)) for m in vocab_sizes]
    p = k * len(vocab_sizes) + n_dense
    if p == 0:
        raise ValueError("model needs at least one categorical or dense feature")
    cross = [
        CrossLayer(W=_glorot(rng, (p, p)), b=np.zeros(p), c=_glorot(rng, (p,)))
        for _ in range(cfg.n_cross_layers)
    ]
    deep_layers: list[DeepLayer] = []
    w_in = p
    for w_out in cfg.deep_widths:
        deep_layers.append(
            DeepLayer(W=_glorot(rng, (w_out, w_in)), b=np.zeros(w_out), activation=cfg.hidden_activation)
        )
        w_in = w_out
    head_w = _glorot(rng, (p + w_in,))
    return XDeepFMModel(
        config=cfg,
        n_dense=n_dense,
        embeddings=EmbeddingTable(tables=tables),
        cross_layers=cross,
        deep=DeepNet(layers=deep_layers),
        head_w=head_w,
        head_b=np.zeros(1),
    )


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
        if layer.W.shape[1] != h.shape[-1]:
            raise ValueError(
                f"cross layer width {layer.W.shape[1]} does not match input width {h.shape[-1]}"
            )
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


def deep_forward(net: DeepNet, h0: np.ndarray) -> np.ndarray:
    """Alternating affine + activation; an empty net returns h0 unchanged."""
    a = h0
    for layer in net.layers:
        if layer.W.shape[1] != a.shape[-1]:
            raise ValueError(
                f"deep layer width {layer.W.shape[1]} does not match input width {a.shape[-1]}"
            )
        a = _activate(a @ layer.W.T + layer.b, layer.activation)
    return a


def _as_batch(model: XDeepFMModel, cat_idx, dense) -> tuple[np.ndarray, np.ndarray, bool]:
    cat_idx = np.asarray(cat_idx, dtype=np.int64)
    dense = np.asarray(dense, dtype=np.float64)
    single = cat_idx.ndim == 1 and dense.ndim == 1
    if single:
        cat_idx = cat_idx[None, :]
        dense = dense[None, :]
    n_fields = model.embeddings.n_fields
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
    p = np.empty(n)
    for b in range(n_blocks):
        lo = b * _BLOCK_ROWS
        hi = n if b == n_blocks - 1 else lo + _BLOCK_ROWS
        h0 = _stack_batch(model.embeddings, cat_idx[lo:hi], dense[lo:hi])
        u = np.concatenate(
            [cross_forward(model.cross_layers, h0), deep_forward(model.deep, h0)], axis=1
        )
        p[lo:hi] = sigmoid(u @ model.head_w + model.head_b[0])
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
        a = _activate(z, layer.activation)
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
        dz = grad * _activate_grad(zs[li], layer.activation)
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


def train_xdeepfm(
    dm: DesignMatrix, cfg: XDeepFMConfig = XDeepFMConfig(), vocab_sizes: tuple[int, ...] | None = None
) -> XDeepFMModel:
    """Mini-batch Adam on mean BCE; deterministic for a fixed seed."""
    y = dm.labels.astype(np.float64)
    if y.size == 0:
        raise ValueError("training requires at least one row")
    if y.min() == y.max():
        raise ValueError("training requires both classes to be present")
    if vocab_sizes is None:
        vocab_sizes = dm.cat_cardinalities
    rng = np.random.default_rng(cfg.seed)
    model = _init_model(rng, tuple(vocab_sizes), dm.dense.shape[1], cfg)
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
    return {
        "format_version": FORMAT_VERSION,
        "kind": "xdeepfm",
        "config": config_to_dict(model.config),
        "n_dense": model.n_dense,
        "embeddings": [t.tolist() for t in model.embeddings.tables],
        "cross_layers": [
            {"W": l.W.tolist(), "b": l.b.tolist(), "c": l.c.tolist()} for l in model.cross_layers
        ],
        "deep_layers": [
            {"W": l.W.tolist(), "b": l.b.tolist(), "activation": l.activation}
            for l in model.deep.layers
        ],
        "head": {"w": model.head_w.tolist(), "b": float(model.head_b[0])},
    }


def xdeepfm_from_dict(d: dict) -> XDeepFMModel:
    """The model a document describes; ValueError if its parameters are malformed or non-finite."""
    check_header(d, "xdeepfm")

    def array(values) -> np.ndarray:
        return np.array(values, dtype=np.float64)

    try:
        return XDeepFMModel(
            config=config_from_dict(XDeepFMConfig, d["config"]),
            n_dense=d["n_dense"],
            embeddings=EmbeddingTable(tables=[array(t) for t in d["embeddings"]]),
            cross_layers=[
                CrossLayer(W=array(l["W"]), b=array(l["b"]), c=array(l["c"])) for l in d["cross_layers"]
            ],
            deep=DeepNet(
                layers=[
                    DeepLayer(W=array(l["W"]), b=array(l["b"]), activation=l["activation"])
                    for l in d["deep_layers"]
                ]
            ),
            head_w=array(d["head"]["w"]),
            head_b=array([d["head"]["b"]]),
        )
    except TypeError as exc:  # an entry of the wrong JSON type
        raise ValueError(f"malformed xdeepfm model file: {exc}") from None


def save_xdeepfm(model: XDeepFMModel, path) -> None:
    write_json(path, xdeepfm_to_dict(model))


def load_xdeepfm(path) -> XDeepFMModel:
    return xdeepfm_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
