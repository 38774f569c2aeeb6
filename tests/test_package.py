import pamfk


def test_every_export_resolves():
    missing = [name for name in pamfk.__all__ if not hasattr(pamfk, name)]
    assert missing == []
