import factorlab


def test_every_exported_name_resolves():
    # a stale entry (a name deleted from its module) fails here at once
    for name in factorlab.__all__:
        assert hasattr(factorlab, name), name
    assert factorlab.__all__ == sorted(set(factorlab.__all__))
