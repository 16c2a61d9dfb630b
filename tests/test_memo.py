"""The memo layer: keys, defaults and clear()."""

import pytest

from modlab import memo
from modlab.catalog import GenerationPolicy
from modlab.modules import FiniteModule

calls = []


@memo.memo
def probe(module, policy=GenerationPolicy()):
    """A fresh object per computation, so hits show as identity."""
    calls.append(policy)
    return object()


@memo.memo
def refuse(module):
    calls.append(module.key)
    raise ValueError("no value")


def test_defaults_are_filled_in_and_other_values_recompute(z4_reg):
    calls.clear()
    first = probe(z4_reg)
    assert probe(z4_reg, GenerationPolicy()) is first
    assert probe(z4_reg, policy=GenerationPolicy()) is first
    small = GenerationPolicy(max_size=8)
    other = probe(z4_reg, small)
    assert other is not first
    assert probe(z4_reg, policy=GenerationPolicy(max_size=8)) is other
    assert calls == [GenerationPolicy(), small]


def test_arguments_stand_by_their_key(z4_reg):
    copy = FiniteModule(z4_reg.ring, z4_reg.component_orders, z4_reg.action)
    assert copy is not z4_reg
    assert probe(copy) is probe(z4_reg)


def test_clear_empties_every_memo(z4_reg):
    first = probe(z4_reg)
    memo.clear()
    assert probe(z4_reg) is not first


def test_a_call_that_raises_stores_nothing(z4_reg):
    calls.clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            refuse(z4_reg)
    assert calls == [z4_reg.key] * 2


def test_memo_needs_plain_parameters():
    with pytest.raises(TypeError):
        memo.memo(lambda *modules: None)
