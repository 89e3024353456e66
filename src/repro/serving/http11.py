"""HTTP/1.1 message framing, bounded, for both ends of the query transport.

:class:`~repro.serving.server.SketchQueryServer` reads request heads
with :func:`read_request` and :class:`~repro.serving.client.DistanceClient`
reads reply heads with :func:`read_head`, so both ends apply one set of
rules to what the other side sends:

* a line is at most :data:`MAX_LINE` bytes (64 KiB), its line ending
  included;
* a head is at most :data:`MAX_HEADERS` lines, its blank terminator
  included (the bound :mod:`http.client` uses);
* a header line is ``name: value`` with no whitespace around the name;
* ``Content-Length`` is ASCII digits only (at most 20 of them), and
  repeated copies must agree;
* ``Connection`` is a comma-separated token list: ``close`` closes,
  and an HTTP/1.0 message stays open only with ``keep-alive``;
* ``Transfer-Encoding`` is refused: messages carry a
  ``Content-Length``;
* a request line is ``METHOD SP target SP HTTP/x.y``; HTTP/2 and
  later are refused.

Every fault raises :class:`FramingError`, carrying the status a server
answers it with.  The reader is never asked for more than
``MAX_LINE + 1`` bytes at a time, nor for more than ``MAX_HEADERS``
lines after the start line, and a head that parses leaves it at the
first body byte.
"""

from __future__ import annotations

from typing import NamedTuple

#: The longest line either end reads, in bytes, line ending included.
MAX_LINE = 65536

#: The most lines one head may hold, its blank terminator included.
MAX_HEADERS = 100

#: ``Content-Length`` digits beyond this are refused before ``int()``.
_MAX_LENGTH_DIGITS = 20


class FramingError(ConnectionError):
    """A message broke the framing rules; its connection cannot be reused.

    ``status`` is the HTTP status a server answers it with.  It is a
    :class:`ConnectionError`, so a client's transport retry handles a
    broken reply like any other failed exchange.
    """

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


class Head(NamedTuple):
    """What a message head decides about its body and its connection."""

    #: ``Content-Length``, or ``None`` when the head has none
    length: int | None
    #: the connection closes after this message
    close: bool
    #: an HTTP/1.1 request asked for ``100 Continue`` before its body
    expect_continue: bool


def read_head(rfile, persistent: bool) -> Head:
    """Read header lines up to and including the blank one that ends them.

    ``persistent`` is the start line's default: true for HTTP/1.1 and
    later, whose connections stay open unless ``Connection: close``.
    """
    length = None
    close = keep_alive = chunked = expect = False
    for _ in range(MAX_HEADERS):
        line = rfile.readline(MAX_LINE + 1)
        if line == b"\r\n" or line == b"\n":
            break
        if len(line) > MAX_LINE:
            raise FramingError(f"header line over {MAX_LINE} bytes", 431)
        if not line:
            raise FramingError("connection closed inside the head", 400)
        name, colon, value = line.partition(b":")
        if not colon or not name or name.strip() != name:
            raise FramingError(f"malformed header line {line[:80]!r}", 400)
        name = name.lower()
        if name == b"content-length":
            value = value.strip()
            if not value.isdigit() or len(value) > _MAX_LENGTH_DIGITS or (
                length is not None and int(value) != length
            ):
                raise FramingError(f"bad Content-Length {value[:80]!r}", 400)
            length = int(value)
        elif name == b"connection":
            tokens = {token.strip() for token in value.lower().split(b",")}
            close = close or b"close" in tokens
            keep_alive = keep_alive or b"keep-alive" in tokens
        elif name == b"transfer-encoding":
            chunked = True
        elif name == b"expect":
            expect = value.strip().lower() == b"100-continue"
    else:
        raise FramingError(f"head runs past {MAX_HEADERS} lines", 431)
    if chunked:
        raise FramingError(
            "Transfer-Encoding is not supported; send a Content-Length", 501
        )
    return Head(length, close or not (persistent or keep_alive), persistent and expect)


def read_request(rfile) -> tuple[str, str, Head] | None:
    """Read one request's start line and head: ``(method, target, head)``.

    Returns ``None`` when the peer closed the connection before sending
    a byte of the next request: the end of a keep-alive conversation.
    """
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise FramingError(f"request line over {MAX_LINE} bytes", 414)
    words = line.split()
    if len(words) != 3:
        raise FramingError(f"malformed request line {line[:80]!r}", 400)
    method, target, version = words
    major, dot, minor = version[5:].partition(b".")
    if not (
        version.startswith(b"HTTP/") and dot and major.isdigit() and minor.isdigit()
        and len(major) <= 10 and len(minor) <= 10
    ):
        raise FramingError(f"malformed HTTP version {version[:80]!r}", 400)
    if int(major) >= 2:
        raise FramingError(f"HTTP version {version.decode('latin-1')} is not supported", 505)
    head = read_head(rfile, persistent=(int(major), int(minor)) >= (1, 1))
    return method.decode("latin-1"), target.decode("latin-1"), head
