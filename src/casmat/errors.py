"""Shared exception types and the line reader of the text formats."""

import hashlib
import re


class CasmatError(ValueError):
    """Base class for precondition and consistency failures."""


class SpaceMismatchError(CasmatError):
    """Two objects live over different measure spaces (identity check)."""


class ParseError(CasmatError):
    """A casmat text format failed to parse.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# a byte that is not UTF-8, as errors="surrogateescape" decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# the reader reads at least this many bytes at a time, and its blocks of
# whole lines stay near this size
_READ_BLOCK_BYTES = 1 << 15


class _LineReader:
    """The lines of a UTF-8 text file as str.splitlines() of its whole text
    would give them, numbered from 1, read once, as bytes, a block at a
    time, so no copy of the text is held; every byte read goes to one
    sha256. Use it as a context manager."""

    def __init__(self, path):
        self.fh = open(path, "rb")
        self.sha = hashlib.sha256()
        # the bytes held, read up to pos; buf[0] is at file offset done
        self.buf, self.pos, self.done, self.lineno = b"", 0, 0, 0
        # the rest of the last physical line, split at \r, \f, \v and the
        # other breaks that splitlines() knows beyond \n, in reverse
        self.pending = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def block(self, size=None):
        """The bytes from pos through the last line break within size bytes
        (_READ_BLOCK_BYTES by default), else through the first, else to the
        end; skip() reads them. Reads take at least as many bytes as are
        held, so a long line costs linear time."""
        size, eof = size or _READ_BLOCK_BYTES, False
        while True:
            end = (self.buf.rfind(b"\n", self.pos, self.pos + size) + 1
                   or self.buf.find(b"\n", self.pos) + 1)
            if eof or end and len(self.buf) - self.pos >= size:
                return self.buf[self.pos:end or len(self.buf)]
            data = self.fh.read(max(_READ_BLOCK_BYTES,
                                    len(self.buf) - self.pos))
            self.sha.update(data)
            self.done += self.pos
            self.buf, self.pos, eof = self.buf[self.pos:] + data, 0, not data

    def skip(self, size, lines):
        """Read size bytes that hold lines lines."""
        self.pos += size
        self.lineno += lines

    def tell(self):
        return self.done + self.pos

    def digest(self) -> str:
        """The sha256 of the file's bytes, read on to its end."""
        while data := self.fh.read(_READ_BLOCK_BYTES):
            self.sha.update(data)
        return "sha256:" + self.sha.hexdigest()

    def next_content(self):
        """(line number, stripped text) of the next non-blank line, or, at
        the end of the file, (number of the line after the last, None).
        A line holding a byte that is not UTF-8 is refused."""
        while True:
            if not self.pending:
                end = self.buf.find(b"\n", self.pos) + 1
                line = self.buf[self.pos:end] if end else self.block(1)
                if not line:
                    return self.lineno + 1, None
                self.pos += len(line)
                self.pending = line.decode(
                    "utf-8", "surrogateescape").splitlines()[::-1]
            self.lineno += 1
            text = self.pending.pop()
            if not text.isascii():
                bad = _ESCAPED_BYTE.search(text)
                if bad:
                    raise ParseError(
                        f"byte {ord(bad.group()) - 0xdc00:#04x} is not "
                        f"valid UTF-8", line=self.lineno)
            text = text.strip()
            if text:
                return self.lineno, text
