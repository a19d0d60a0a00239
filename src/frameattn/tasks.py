"""Synthetic temporal classification tasks over multimodal layouts.

Visual "tokens" are ordinary vocabulary symbols; what makes a position
visual is the layout alone, so these tasks isolate the positional and
masking machinery from any perception problem. Token ids: 0 is the text
filler used in the prefix, 1 the query filler used in the suffix, 2 the
marker, 3 onward the content symbols.

  * frame_order: every frame is filled with a frame-identifying symbol, but
    which symbol names which frame is shuffled per sample; one or more
    frames additionally carry one marker token each. Label: index of the
    temporally first marked frame, drawn uniformly (frames after it are
    marked independently). Content alone cannot solve it.
  * moving_count: frames hold random symbols; a random subset of frames
    (possibly empty) gets one marker each. Label: number of marked frames.
  * last_frame_recall: the final frame repeats one symbol that no earlier
    frame contains. Label: that symbol's index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .layout import NamedEnum, SequenceLayout, check_enum, check_int
from .numerics import make_rng

__all__ = [
    "Task",
    "Dataset",
    "TOKEN_TEXT",
    "TOKEN_QUERY",
    "TOKEN_MARKER",
    "SYMBOL_BASE",
    "vocab_size",
    "num_classes",
    "check_task",
    "gen_task",
]

TOKEN_TEXT = 0
TOKEN_QUERY = 1
TOKEN_MARKER = 2
SYMBOL_BASE = 3


class Task(NamedEnum):
    FRAME_ORDER = "frame_order"
    MOVING_COUNT = "moving_count"
    LAST_FRAME_RECALL = "last_frame_recall"


@dataclass(frozen=True)
class Dataset:
    tokens: np.ndarray  # (count, T) int64
    labels: np.ndarray  # (count,) int64

    def __len__(self) -> int:
        return len(self.labels)

    def to_bytes(self) -> bytes:
        return self.tokens.astype(np.int64).tobytes() + self.labels.astype(np.int64).tobytes()

    def sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def vocab_size(num_symbols: int) -> int:
    return SYMBOL_BASE + num_symbols


def num_classes(task: Task, layout: SequenceLayout, num_symbols: int) -> int:
    check_enum("task", task, Task)
    if task is Task.FRAME_ORDER:
        return layout.num_frames
    if task is Task.MOVING_COUNT:
        return layout.num_frames + 1
    return num_symbols


def check_task(task: Task, layout: SequenceLayout, num_symbols: int) -> None:
    """Reject a layout or symbol count that `task`'s data generation cannot fill."""
    check_enum("task", task, Task)
    if not layout.has_visual:
        raise ValueError(f"{task.value} needs at least one frame, got a layout with none")
    if task is Task.FRAME_ORDER and num_symbols < layout.num_frames:
        raise ValueError(f"frame_order needs num_symbols >= num_frames ({num_symbols} < {layout.num_frames})")
    if task is Task.LAST_FRAME_RECALL and num_symbols < 2:
        raise ValueError(f"last_frame_recall needs num_symbols >= 2, got {num_symbols}")


def _base_tokens(layout: SequenceLayout) -> np.ndarray:
    t = np.full(layout.total_len, TOKEN_QUERY, dtype=np.int64)
    t[: layout.prefix_len] = TOKEN_TEXT
    return t


def gen_task(
    task: Task,
    layout: SequenceLayout,
    seed: int,
    count: int,
    num_symbols: int = 8,
) -> Dataset:
    """Deterministic dataset of `count` (token sequence, label) pairs."""
    check_int("count", count, 1)
    check_task(task, layout, num_symbols)
    f = layout.num_frames
    m = layout.tokens_per_frame

    rng = make_rng(seed, 100)
    symbols = SYMBOL_BASE + np.arange(num_symbols, dtype=np.int64)
    tokens = np.empty((count, layout.total_len), dtype=np.int64)
    labels = np.empty(count, dtype=np.int64)
    for s in range(count):
        row = _base_tokens(layout)
        if task is Task.FRAME_ORDER:
            name_for_frame = rng.permutation(symbols)[:f]
            for frame in range(f):
                row[layout.frame_slice(frame)] = name_for_frame[frame]
            first = int(rng.integers(f))
            marked = [first] + [fr for fr in range(first + 1, f) if rng.random() < 0.5]
            for frame in marked:
                slot = int(rng.integers(m))
                row[layout.prefix_len + frame * m + slot] = TOKEN_MARKER
            label = first
        elif task is Task.MOVING_COUNT:
            vis = slice(layout.visual_start, layout.visual_end + 1)
            row[vis] = rng.choice(symbols, size=f * m)
            k = int(rng.integers(0, f + 1))
            marked = rng.choice(f, size=k, replace=False)
            for frame in marked:
                slot = int(rng.integers(m))
                row[layout.prefix_len + int(frame) * m + slot] = TOKEN_MARKER
            label = k
        else:  # LAST_FRAME_RECALL
            target = int(rng.integers(num_symbols))
            others = np.delete(symbols, target)
            for frame in range(f - 1):
                row[layout.frame_slice(frame)] = rng.choice(others, size=m)
            row[layout.frame_slice(f - 1)] = symbols[target]
            label = target
        tokens[s] = row
        labels[s] = label
    return Dataset(tokens=tokens, labels=labels)
