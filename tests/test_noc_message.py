"""Unit tests for messages and flit accounting."""

import pytest

from repro.noc.message import (
    Message,
    MessageClass,
    control_message_bits,
    data_message_bits,
    flit_count,
)


def test_message_sizes():
    assert control_message_bits() == 128
    assert data_message_bits(64) == 128 + 512


def test_message_size_must_be_positive():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, msg_class=MessageClass.REQUEST, size_bits=0)


def test_single_flit_control_packet():
    assert flit_count(control_message_bits(), link_width_bits=128) == 1


def test_data_packet_flit_count_at_128_bits():
    assert flit_count(data_message_bits(), link_width_bits=128) == 5  # 640 / 128


def test_narrow_links_increase_flit_count():
    wide = flit_count(data_message_bits(), link_width_bits=128)
    narrow = flit_count(data_message_bits(), link_width_bits=32)
    assert narrow == 4 * wide


def test_flit_count_rounds_up():
    assert flit_count(129, link_width_bits=128) == 2


def test_invalid_link_width_rejected():
    with pytest.raises(ValueError):
        flit_count(128, link_width_bits=0)


def test_message_class_values_cover_paper_classes():
    assert {c.name for c in MessageClass} == {"REQUEST", "SNOOP", "RESPONSE"}
