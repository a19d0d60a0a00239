"""Tiny decoder built on the attention kernel, with hand-written gradients.

One to four layers of (attention + residual, tanh feed-forward + residual)
over a token embedding, classified from the final position. No layer norm,
no dropout, no biases: small enough that every gradient is written out by
hand and checkable against finite differences.

A (B, T) batch runs in chunks of whole sequences with cells * chunk * heads *
T * T within _SCORE_BUDGET entries (one cell unless stacked, below), at least
one sequence, which bounds the scored attention tiles a layer keeps for
backward (scores run in row tiles, and the dense weights are never built); a
chunk's heads form one (cells * chunk * heads, T, d_head) stack.
Activations stay (cells, B, T, d) stacks, so products round exactly as for one sequence.
predict and loss_and_grads take the AttentionPlan (rotation table, tiles
with any rpe bias) from the caller, who builds it once with plan_attention; a
trial shares one plan across every step, layer and chunk.

The classifier reads only the final position of the last layer, so that
layer runs its Q projection, attention, w_o residual and feed-forward (and
their backward) on the final _QUERY_ROWS rows; its K and V still cover every
row. Two rows rather than one on purpose: a one-row product goes through gemv
and rounds differently from the same row of a gemm, while the last two rows
round as in a full-length pass. Every other row of the last layer only ever
received a zero gradient, so the loss and gradients are those of the full
computation.

Parameter matrices of shape (fan_in, fan_out) initialise uniform in
+-1/sqrt(fan_in); the embedding table uses fan_in = embed_dim. All
initialisation draws come from one seeded stream in a fixed parameter
order, so a seed pins the model bit-for-bit. Every parameter is a named
view (model.params) into one contiguous float64 vector, model.flat, in that
order: embed, per layer w_q, w_k, w_v, w_o, w_ff1, w_ff2, then w_out.
loss_and_grads returns its gradient as one vector in the same layout, and
model.views(grad) names its blocks, so an SGD step is one array operation.

Cells. `model.with_params(stack)` over a (cells, P) stack of such vectors
gives a model that steps several trials in lockstep: trials that share
their data, batch order, initial parameters, layout, head width and
attention tiles, and differ in pe_mode, gamma and, in one tile of at most 64
tokens, mask. It takes a tuple of one plan per cell
in place of the plan. Every activation carries the cell axis in front, and
each cell's products are the one-cell model's own gemms, so every cell's
loss, gradient and prediction are bitwise its own model's; each cell's loss
is reduced on its own row. The chunk budget counts the cells: cells * chunk
* heads * T * T stays within _SCORE_BUDGET, and `max_cells` gives the most
cells whose whole batch is one chunk, the size of a harness lockstep group
(each of whose reports takes the group's wall time over its size as wall_ms).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .attention import attention_backward, attention_forward
from .layout import check_int
from .numerics import int_array, make_rng

__all__ = ["ModelConfig", "TinyModel", "max_cells"]

# Most entries cells * chunk * heads * T * T may reach, which bounds the scored attention
# tiles a chunk keeps per layer: 4 MiB of float64.
_SCORE_BUDGET = 1 << 19
# Query rows the last layer computes: the final one, which the classifier reads, and one more.
_QUERY_ROWS = 2


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    num_heads: int
    d_head: int
    vocab_size: int
    num_classes: int
    ff_hidden: int = 0  # 0 means 2 * embed_dim

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            check_int(name, getattr(self, name), 0 if name == "ff_hidden" else 1)
        if self.layers > 4:
            raise ValueError(f"layers must be in 1..4, got {self.layers}")
        if self.ff_hidden == 0:
            object.__setattr__(self, "ff_hidden", 2 * self.embed_dim)

    @functools.cached_property
    def embed_dim(self) -> int:
        return self.num_heads * self.d_head


def _init(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def max_cells(config: ModelConfig, batch: int, t: int) -> int:
    """Most cells one stacked step of `batch` sequences of length t runs as one chunk, at least 1."""
    return max(1, _SCORE_BUDGET // (batch * config.num_heads * t * t))


def _add_weight_grad(grad: np.ndarray, inputs: np.ndarray, grad_out: np.ndarray) -> None:
    """grad[c] += inputs[c, s]^T grad_out[c, s] for each sequence s of two (cells, B, T, .) stacks, in order."""
    grad += np.add.reduce(inputs.mT @ grad_out, axis=1, keepdims=True)


class TinyModel:
    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        d, h = config.embed_dim, config.ff_hidden
        # (name, fan_in, shape) of every parameter, in init and storage order.
        specs = [("embed", d, (config.vocab_size, d))]
        for layer in range(config.layers):
            specs += [(f"layer{layer}.{name}", d, (d, d)) for name in ("w_q", "w_k", "w_v", "w_o")]
            specs += [(f"layer{layer}.w_ff1", d, (d, h)), (f"layer{layer}.w_ff2", h, (h, d))]
        specs.append(("w_out", d, (d, config.num_classes)))
        rng = make_rng(seed, 0)
        flat = np.concatenate([_init(rng, fan_in, shape).ravel() for _, fan_in, shape in specs])
        # (name, span of model.flat, shape) of every parameter, found once.
        ends = np.cumsum([math.prod(shape) for *_, shape in specs]).tolist()
        self._blocks = [(name, slice(end - math.prod(shape), end), shape) for (name, _, shape), end in zip(specs, ends)]
        self._bind(flat)

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self._cells = len(flat) if flat.ndim == 2 else 1
        self._weights = self._split(flat)
        self.params = self.views(flat)

    def with_params(self, flat: np.ndarray) -> TinyModel:
        """This model over `flat`, not copied: a float64 vector laid out like model.flat, or a (cells, P) stack."""
        size = self.flat.shape[-1]
        if not isinstance(flat, np.ndarray) or flat.dtype != np.float64 or flat.shape[-1:] != (size,) or flat.ndim > 2:
            raise ValueError(f"expected a float64 vector of length {size} or a (cells, {size}) stack of them")
        other = copy.copy(self)
        other._bind(flat)
        return other

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views into a vector or stack laid out like model.flat, cell axis first: embed (cells, vocab, d),
        then six per layer and w_out (cells, 1, fan_in, fan_out), the 1 broadcasting over the batch."""
        stack = flat.reshape(self._cells, -1)
        return [stack[:, span].reshape(self._cells, *shape if name == "embed" else (1, *shape))
                for name, span, shape in self._blocks]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named, parameter-shaped views into a vector (or stack) laid out like model.flat."""
        if flat.shape != self.flat.shape:
            raise ValueError(f"expected a flat vector of shape {self.flat.shape}, got {flat.shape}")
        return {name: flat[..., span].reshape(*flat.shape[:-1], *shape) for name, span, shape in self._blocks}

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(cells, B, T, embed_dim) -> (cells * B * heads, T, d_head), cell- then sequence-major."""
        t = x.shape[2]
        cfg = self.config
        x = x.reshape(-1, t, cfg.num_heads, cfg.d_head).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(x).reshape(-1, t, cfg.d_head)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        _, t, d_head = x.shape
        x = x.reshape(-1, self.config.num_heads, t, d_head).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(x).reshape(self._cells, -1, t, self.config.embed_dim)

    def _checked(self, tokens, labels, plan) -> tuple[np.ndarray, np.ndarray | None]:
        """A (B, T) token batch, B >= 1 and T the plan's, and its B labels unless None.

        Ids out of range are refused: numpy would read -1 as the last row. A stack
        of cells takes a tuple of one plan per cell, a one-vector model one plan.
        """
        tokens = int_array("tokens", tokens, self.config.vocab_size)
        if self.flat.ndim == 2:
            if not (isinstance(plan, tuple) and len(plan) == self._cells):
                raise ValueError(f"a stack of {self._cells} cells takes a tuple of {self._cells} plans")
            plan = plan[0]
        t = plan.layout.total_len
        if tokens.ndim != 2 or len(tokens) == 0 or tokens.shape[1] != t:
            raise ValueError(f"tokens must be a (batch, {t}) array with batch >= 1, got shape {tokens.shape}")
        if labels is not None:
            labels = int_array("labels", labels, self.config.num_classes)
            if labels.shape != (len(tokens),):
                raise ValueError(f"labels must be one per sequence, shape ({len(tokens)},), got shape {labels.shape}")
        return tokens, labels

    def _chunks(self, tokens: np.ndarray) -> list[slice]:
        n, t = tokens.shape
        size = max(1, _SCORE_BUDGET // (self._cells * self.config.num_heads * t * t))
        return [slice(lo, lo + size) for lo in range(0, n, size)]

    def _forward(self, tokens, plan):
        """(cells, B, C) logits of a (B, T) chunk, the last layer's output rows and per-layer caches."""
        weights = self._weights
        cell = plan[0] if isinstance(plan, tuple) else plan
        x = weights[0][:, tokens]
        caches = []
        for layer in range(self.config.layers):
            w_q, w_k, w_v, w_o, w_ff1, w_ff2 = weights[1 + 6 * layer : 7 + 6 * layer]
            x_q = x[:, :, -_QUERY_ROWS:] if layer == self.config.layers - 1 else x
            q, k, v = self._split_heads(x_q @ w_q), self._split_heads(x @ w_k), self._split_heads(x @ w_v)
            attn = attention_forward(q, k, v, cell.layout, cell.config, plan=plan)
            attn_cat = self._merge_heads(attn.output)
            x_mid = x_q + attn_cat @ w_o
            hidden = np.tanh(x_mid @ w_ff1)
            caches.append((x, attn, attn_cat, x_mid, hidden))
            x = x_mid + hidden @ w_ff2
        # x[:, :, -1:] keeps one (1, d) product per sequence, which rounds as a one-sequence pass.
        return (x[:, :, -1:] @ weights[-1])[:, :, 0], x, caches

    def predict(self, tokens, plan) -> np.ndarray:
        """Class index of each sequence of a (B, T) token batch under `plan`, B >= 1; (cells, B) for a stack."""
        tokens, _ = self._checked(tokens, None, plan)
        logits = [self._forward(tokens[c], plan)[0] for c in self._chunks(tokens)]
        predictions = np.concatenate(logits, axis=1).argmax(axis=-1)
        return predictions if self.flat.ndim == 2 else predictions[0]

    def loss_and_grads(self, tokens_batch, labels, plan):
        """Mean cross-entropy of a (B, T) batch with B labels under `plan`, and its gradient in model.flat's layout.

        A stack returns each cell's loss, a (cells,) array, and a (cells, P) gradient.
        """
        tokens_batch, labels = self._checked(tokens_batch, labels, plan)
        flat_grad = np.zeros(self.flat.shape)
        grads = self._split(flat_grad)
        total_loss = np.zeros(self._cells)
        for c in self._chunks(tokens_batch):
            total_loss += self._chunk_loss(tokens_batch[c], labels[c], plan, grads)
        flat_grad /= len(tokens_batch)
        total_loss /= len(tokens_batch)
        return (total_loss if self.flat.ndim == 2 else float(total_loss[0])), flat_grad

    def _chunk_loss(self, tokens, labels, plan, grads) -> np.ndarray:
        """Each cell's summed cross-entropy of one chunk; adds its unaveraged gradients into the _split views."""
        weights = self._weights
        logits, x_final, caches = self._forward(tokens, plan)
        rows = np.arange(len(labels))
        exps = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
        probs = exps / np.add.reduce(exps, axis=-1, keepdims=True)
        picked = np.log(np.maximum(probs[:, rows, labels], 1e-300))
        # One reduction per cell's row: a reduction over the (cells, B) stack may sum in another order.
        loss = np.empty(self._cells)
        for cell, row in enumerate(picked):
            loss[cell] = -np.add.reduce(row)
        dlogits = probs
        dlogits[:, rows, labels] -= 1.0
        _add_weight_grad(grads[-1], x_final[:, :, -1:], dlogits[:, :, None])
        dx = np.zeros(x_final.shape)
        dx[:, :, -1] = (weights[-1] @ dlogits[..., None])[..., 0]
        for layer in reversed(range(self.config.layers)):
            w_q, w_k, w_v, w_o, w_ff1, w_ff2 = weights[1 + 6 * layer : 7 + 6 * layer]
            g_q, g_k, g_v, g_o, g_ff1, g_ff2 = grads[1 + 6 * layer : 7 + 6 * layer]
            x_in, attn, attn_cat, x_mid, hidden = caches.pop()
            # x_out = x_mid + tanh(x_mid w_ff1) w_ff2
            _add_weight_grad(g_ff2, hidden, dx)
            dpre = (dx @ w_ff2.mT) * (1.0 - hidden**2)
            _add_weight_grad(g_ff1, x_mid, dpre)
            dx_mid = dx + dpre @ w_ff1.mT
            # x_mid = x_in + attn_cat w_o
            _add_weight_grad(g_o, attn_cat, dx_mid)
            attn_grads = attention_backward(attn, self._split_heads(dx_mid @ w_o.mT))
            # The query rows' residual and Q terms land in the last rows of a
            # full-length dx; the K and V terms reach every row.
            rows = dx_mid.shape[2]
            d_q = self._merge_heads(attn_grads.grad_q)
            _add_weight_grad(g_q, x_in[:, :, -rows:], d_q)
            dx = np.zeros(x_in.shape)
            dx[:, :, -rows:] = dx_mid + d_q @ w_q.mT
            for grad, w, d_attn in ((g_k, w_k, attn_grads.grad_k), (g_v, w_v, attn_grads.grad_v)):
                d_proj = self._merge_heads(d_attn)
                _add_weight_grad(grad, x_in, d_proj)
                dx += d_proj @ w.mT
        np.add.at(grads[0], (np.arange(self._cells)[:, None, None], tokens), dx)
        return loss
