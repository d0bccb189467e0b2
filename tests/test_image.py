"""Tests for the functional memory image."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.image import WORD_BYTES, MemoryImage


def test_write_then_read_round_trip():
    image = MemoryImage()
    image.write(0x1000, 99)
    assert image.read(0x1000) == 99


def test_subword_addresses_alias_to_the_word():
    image = MemoryImage()
    image.write(0x1000, 7)
    assert image.read(0x1004) == 7  # same 8-byte word
    image.write(0x1001, 8)
    assert image.read(0x1000) == 8


def test_uninitialised_reads_are_deterministic_garbage():
    image = MemoryImage()
    first = image.read(0x5000)
    second = image.read(0x5000)
    assert first == second
    assert first != 0
    # Different addresses give different garbage (overwhelmingly).
    others = {image.read(0x5000 + 8 * i) for i in range(16)}
    assert len(others) > 8


def test_uninitialised_values_never_look_like_pointers():
    image = MemoryImage()
    image.note_heap(0, 1 << 40)  # absurdly wide heap
    for i in range(64):
        value = image.read(0x9000 + 8 * i)
        assert not image.looks_like_pointer(value)  # odd by construction


def test_read_line_returns_all_words():
    image = MemoryImage()
    for i in range(4):
        image.write(0x2000 + i * WORD_BYTES, i + 1)
    assert image.read_line(0x2000, 32) == (1, 2, 3, 4)


def test_read_line_mixes_written_and_garbage_words():
    image = MemoryImage()
    image.write(0x3000, 5)
    words = image.read_line(0x3000, 32)
    assert words[0] == 5
    assert all(w != 0 for w in words[1:])


def test_pointer_detection_requires_heap_range_and_alignment():
    image = MemoryImage()
    image.note_heap(0x1000, 0x2000)
    assert image.looks_like_pointer(0x1008)
    assert not image.looks_like_pointer(0x1009)   # unaligned
    assert not image.looks_like_pointer(0x3000)   # outside heap
    assert not image.looks_like_pointer(0)
    assert not image.looks_like_pointer(-8)


def test_note_heap_extends_range():
    image = MemoryImage()
    image.note_heap(0x1000, 0x2000)
    image.note_heap(0x8000, 0x9000)
    assert image.looks_like_pointer(0x1008)
    assert image.looks_like_pointer(0x8008)


def test_contains_and_len():
    image = MemoryImage()
    assert 0x1000 not in image
    image.write(0x1000, 1)
    assert 0x1000 in image
    assert 0x1004 in image  # same word
    assert len(image) == 1


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 20),
                  st.integers(min_value=0, max_value=1 << 62)),
        min_size=1, max_size=50,
    )
)
def test_last_write_wins(writes):
    """Property: reading a word returns its most recent write."""
    image = MemoryImage()
    last = {}
    for addr, value in writes:
        image.write(addr, value)
        last[addr & ~7] = value
    for word_addr, value in last.items():
        assert image.read(word_addr) == value


def test_write_words_equals_one_write_per_word():
    batched, single = MemoryImage(), MemoryImage()
    for image in (batched, single):
        image.write(0x2010, 1)  # an existing word keeps its dict position
    values = [5, 6, 7, 8]
    batched.write_words(0x2003, values)  # unaligned base aligns down
    for i, value in enumerate(values):
        single.write(0x2003 + i * WORD_BYTES, value)
    assert list(batched._words.items()) == list(single._words.items())
    assert batched.writes == single.writes == 5


def test_words_thaws_a_pending_base_under_the_overlay():
    image = MemoryImage()
    image._pending = ([0x100, 0x108], [1, 2])
    image.write(0x108, 9)
    words = image.words()
    assert image._pending is None
    assert list(words.items()) == [(0x100, 1), (0x108, 9)]
    words[0x110] = 3
    assert image.read(0x110) == 3
