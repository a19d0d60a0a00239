"""What the benchmark's tracer (perfbench/tracing.py) expects of frameattn.

The tracer wraps frameattn functions where their callers look them up, and
reads attention_forward's layout and config by position to count allowed
score entries. A refactor that moves any of these fails here, in the
ordinary suite, not first when the benchmark runs with tracing on.
"""

import importlib.util
import inspect
import itertools
import sys
from pathlib import Path

import pytest

from frameattn.attention import AttentionConfig, attention_forward
from frameattn.layout import build_layout
from frameattn.masks import MaskKind, build_mask, mask_stats

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves_at_every_call_site(tracing):
    assert tracing.check_sites() == []


def test_attention_forward_takes_layout_and_config_fourth_and_fifth():
    assert list(inspect.signature(attention_forward).parameters)[3:5] == ["layout", "config"]


def test_tracer_allowed_count_is_the_mask_allowed_count(tracing):
    layout = build_layout(2, 3, 4, 1)
    tracer = tracing.Tracer()
    configs = [AttentionConfig()] + [
        AttentionConfig(mask_kind=kind, fw_block_causal_within_frame=within)
        for kind, within in itertools.product(MaskKind, (False, True))
    ]
    for config in configs:
        mask = build_mask(config.mask_kind, layout, config.fw_block_causal_within_frame)
        assert tracer.allowed_count(config, layout) == mask_stats(mask)["allowed_count"]
