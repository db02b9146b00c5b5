import corpus


def test_every_pinned_request_keeps_its_exit_code_and_bytes():
    """Every request of ``tests/corpus.py`` gives the digest pinned in
    ``tests/corpus.sha256``; a change that moves output bytes rewrites the
    file with ``python3 tests/corpus.py --write`` and names the ids."""
    assert corpus.differences() == []
