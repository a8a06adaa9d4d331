"""Unit tests for page images and torn-write modelling."""

from repro.innodb.page import Page, torn_copy


def test_page_fields():
    page = Page(7, 100, ("payload",))
    assert page.page_id == 7
    assert page.lsn == 100
    assert not page.is_torn()


def test_torn_copy_fails_checksum():
    page = Page(7, 100, "data")
    torn = torn_copy(page)
    assert torn.is_torn()
    assert torn.page_id == 7
    assert torn.payload != "data"


def test_pages_hashable_and_comparable():
    a = Page(1, 2, "x")
    b = Page(1, 2, "x")
    assert a == b
    assert hash(a) == hash(b)
