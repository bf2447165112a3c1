"""The flat ``.hex`` image grammar ``parse_hex`` reads.

One 8-digit hex word per line; ``#`` comments, blank lines, CRLF line
endings and upper-case digits are accepted. Any other line, bytes that
are not UTF-8 included, is refused with one :class:`Rv32iError` line
naming the file and the line number, so an image cut mid-word is never
read as a shorter program.
"""

from __future__ import annotations

import pytest

from repro.isa.rv32i.workload import Rv32iError, Rv32iProgram, parse_hex


def test_accepted_forms():
    text = ("# kernel image\r\n"
            "\r\n"
            "00000013   # nop\r\n"
            "DEADBEEF\r\n"
            "  0010a0B3  \n"
            "\n"
            "00100073\n")
    assert parse_hex(text, "ok.hex") == [0x00000013, 0xDEADBEEF,
                                         0x0010A0B3, 0x00100073]


@pytest.mark.parametrize("bad", [b"0000013", b"000000013", b"0x1234ab",
                                 b"\xff\xfe000013"])
def test_refused_word_names_file_and_line(tmp_path, bad):
    image = tmp_path / "bad.hex"
    image.write_bytes(b"00000013\n# comment\n" + bad + b"\n00100073\n")
    with pytest.raises(Rv32iError) as info:
        Rv32iProgram.from_file(image)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("bad.hex: line 3: not an 8-digit hex word")
