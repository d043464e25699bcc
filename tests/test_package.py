import extractorforge


def test_every_exported_name_resolves_once():
    names = extractorforge.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(extractorforge, name) is not None
