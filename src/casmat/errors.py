"""Shared exception types and the line reader of the text formats."""

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


class _LineReader:
    """The lines of a UTF-8 text file as str.splitlines() of its whole text
    would give them, numbered from 1, read one physical line at a time, so
    no copy of the text is held. Use it as a context manager."""

    def __init__(self, path):
        self.fh = open(path, encoding="utf-8", errors="surrogateescape")
        self.lineno = 0
        # the rest of the last physical line, split at \f, \v and the
        # other breaks that splitlines() knows beyond \n, in reverse
        self.pending = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def next_content(self):
        """(line number, stripped text) of the next non-blank line, or, at
        the end of the file, (number of the line after the last, None).
        A line holding a byte that is not UTF-8 is refused."""
        while True:
            if not self.pending:
                line = self.fh.readline()
                if not line:
                    return self.lineno + 1, None
                self.pending = line.splitlines()[::-1]
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
