"""Every document a test hands to io.parse_blocks in process is read by the
line loop it replaced, test_io.ref_parse_blocks, too, and the two must
agree: the same blocks, or the same ParseError message and line."""

import pytest

from latkit import io
from latkit.errors import ParseError

from test_io import block_tuples, parsed, ref_parse_blocks


@pytest.fixture(autouse=True)
def parse_blocks_matches_the_line_loop(monkeypatch):
    real = io.parse_blocks

    def checked(text):
        try:
            blocks = real(text)
        except ParseError as exc:
            assert parsed(ref_parse_blocks, text) == ("error", str(exc), exc.line), text
            raise
        assert parsed(ref_parse_blocks, text) == block_tuples(blocks), text
        return blocks

    monkeypatch.setattr(io, "parse_blocks", checked)
