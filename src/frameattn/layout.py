"""Multimodal token sequences and their position ids.

A sequence is text prefix, then F frames of m visual tokens each, then text
suffix. Every token gets three position values:

  * a global id n (0..T-1),
  * a temporal id that is constant inside a frame, increments across frames,
    and is the identity outside the visual span,
  * an adjusted real position n + gamma * temporal_id(n), which must be
    finite: a gamma that overflows any of them is rejected.

The temporal map is implemented exactly as the piecewise definition reads,
which makes the first suffix token share the last frame's temporal id. Pass
``strict_monotonic_suffix=True`` to bump the suffix branch by one and avoid
that collision.

This module also holds the strict field checks that every config parser in
the package shares (layout, rotary, attention and trial configs): integers
must be non-bool ints, real numbers finite non-bool ints or floats, flags
bools, enums members of their type rather than strings, and nothing is coerced.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "NamedEnum",
    "check_fields",
    "check_int",
    "check_enum",
    "check_float",
    "check_flag",
    "TokenRole",
    "SequenceLayout",
    "PositionTable",
    "build_layout",
    "temporal_ids",
    "adjusted_positions",
]


class NamedEnum(enum.Enum):
    """Enum whose members are parsed from their string values."""

    @classmethod
    def from_string(cls, name: str):
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(member.value for member in cls)
            raise ValueError(f"unknown {cls.__name__} {name!r}; valid values: {valid}") from None


def check_fields(what: str, obj, known, required=()) -> None:
    """Reject a non-object, unknown field names and missing required fields."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")


def check_int(name: str, value, minimum: int = 0) -> None:
    """Reject anything but an int >= minimum, bools and integral floats such as 2.0 included."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_enum(name: str, value, enum_type: type[enum.Enum]) -> None:
    """Reject anything but a member of `enum_type`, its string value included."""
    if not isinstance(value, enum_type):
        raise ValueError(f"{name} must be a {enum_type.__name__} member, got {value!r}")


def check_float(name: str, value) -> None:
    """Reject anything but a finite int or float: bools, numeric strings such as "1.5", NaN, inf, 10**400."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_flag(name: str, value) -> None:
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")


class TokenRole(enum.Enum):
    TEXT_PREFIX = "text_prefix"
    VISUAL = "visual"
    TEXT_SUFFIX = "text_suffix"


@dataclass(frozen=True)
class SequenceLayout:
    """Token-role structure of one sequence: text, F frames x m tokens, text."""

    prefix_len: int
    num_frames: int
    tokens_per_frame: int
    suffix_len: int

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            check_int(name, getattr(self, name))
        if (self.num_frames == 0) != (self.tokens_per_frame == 0):
            raise ValueError("num_frames and tokens_per_frame must be zero together or both positive")
        if self.total_len < 1:
            raise ValueError("layout must contain at least one token")

    @property
    def visual_len(self) -> int:
        return self.num_frames * self.tokens_per_frame

    @property
    def total_len(self) -> int:
        return self.prefix_len + self.visual_len + self.suffix_len

    @property
    def has_visual(self) -> bool:
        return self.visual_len > 0

    @property
    def visual_start(self) -> int:
        """First visual position id v_s (== prefix_len; meaningless if no visual span)."""
        return self.prefix_len

    @property
    def visual_end(self) -> int:
        """Last visual position id v_e; only defined when the visual span is non-empty."""
        if not self.has_visual:
            raise ValueError("layout has no visual span")
        return self.prefix_len + self.visual_len - 1

    def role_of(self, n: int) -> TokenRole:
        self._check_index(n)
        if n < self.prefix_len:
            return TokenRole.TEXT_PREFIX
        if n < self.prefix_len + self.visual_len:
            return TokenRole.VISUAL
        return TokenRole.TEXT_SUFFIX

    def frame_of(self, n: int) -> int | None:
        """Frame index of a visual position, None for text positions."""
        if self.role_of(n) is not TokenRole.VISUAL:
            return None
        return (n - self.prefix_len) // self.tokens_per_frame

    def frame_slice(self, f: int) -> slice:
        if not 0 <= f < self.num_frames:
            raise ValueError(f"frame index {f} out of range for {self.num_frames} frames")
        start = self.prefix_len + f * self.tokens_per_frame
        return slice(start, start + self.tokens_per_frame)

    def _check_index(self, n: int) -> None:
        if not 0 <= n < self.total_len:
            raise ValueError(f"position {n} out of range for T={self.total_len}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "SequenceLayout":
        """Exactly the four fields; __post_init__ rejects any value that is not an int."""
        check_fields("layout", obj, cls.__dataclass_fields__, cls.__dataclass_fields__)
        return cls(**obj)

    @classmethod
    def from_json(cls, text: str) -> "SequenceLayout":
        return cls.from_dict(json.loads(text))


def build_layout(prefix_len: int, num_frames: int, tokens_per_frame: int, suffix_len: int) -> SequenceLayout:
    return SequenceLayout(prefix_len, num_frames, tokens_per_frame, suffix_len)


def temporal_ids(layout: SequenceLayout, strict_monotonic_suffix: bool = False) -> np.ndarray:
    """Per-token temporal ids as an int64 vector of length T.

    Identity before the visual span; v_s + (n - v_s) // m inside it; after
    the span the global id shifted down by the span length minus the number
    of whole frame steps it covered. With no visual span this is the identity
    map.
    """
    n = np.arange(layout.total_len, dtype=np.int64)
    if not layout.has_visual:
        return n
    v_s = layout.visual_start
    v_e = layout.visual_end
    m = layout.tokens_per_frame
    ids = n.copy()
    inside = (n >= v_s) & (n <= v_e)
    ids[inside] = v_s + (n[inside] - v_s) // m
    after = n > v_e
    shift = v_e - v_s + 1 - (v_e - v_s) // m
    if strict_monotonic_suffix:
        shift -= 1
    ids[after] = n[after] - shift
    return ids


@dataclass(frozen=True)
class PositionTable:
    """Global, temporal, and adjusted positions for every token of a layout."""

    global_ids: np.ndarray
    temporal_ids: np.ndarray
    adjusted: np.ndarray


def adjusted_positions(
    layout: SequenceLayout, gamma: float, strict_monotonic_suffix: bool = False
) -> PositionTable:
    """Full position table with adjusted[n] = n + gamma * temporal_id(n), exactly.

    Raises ValueError naming gamma if an adjusted position overflows; trial
    configs apply this same rule at parse time.
    """
    check_float("gamma", gamma)
    g = np.arange(layout.total_len, dtype=np.int64)
    t = temporal_ids(layout, strict_monotonic_suffix=strict_monotonic_suffix)
    with np.errstate(over="ignore"):
        adjusted = g.astype(np.float64) + gamma * t.astype(np.float64)
    if not np.all(np.isfinite(adjusted)):
        raise ValueError(f"gamma {gamma!r} overflows the adjusted positions of a {layout.total_len}-token layout")
    return PositionTable(global_ids=g, temporal_ids=t, adjusted=adjusted)

