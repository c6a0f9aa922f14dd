"""The stdlib HTTP/1.1 codec: pure head parsing, framing, hard bounds."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import http
from repro.live.http import (
    HttpError,
    Request,
    RequestFramer,
    encode_request,
    encode_response,
    json_body,
    parse_request_head,
    parse_response_head,
    read_response,
)


def _take(framer):
    """Every whole request the framer holds, in order."""
    requests = []
    while (request := framer.next_request()) is not None:
        requests.append(request)
    return requests


def _frame(data):
    """Feed ``data`` to a framer in one piece, then end the stream."""
    framer = RequestFramer()
    framer.feed(data)
    requests = _take(framer)
    framer.close()
    return requests


def _read(data, fn):
    """Run an async client-side framer against a pre-fed StreamReader."""

    async def go():
        reader = asyncio.StreamReader(limit=http.MAX_HEAD_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        return await fn(reader)

    return asyncio.run(go())


def test_request_roundtrip_through_the_wire():
    body = json_body({"sim": "building", "participants": 2})
    wire = encode_request("POST", "/sessions?x=1", body, host="example")
    [request] = _frame(wire)
    assert request.method == "POST"
    assert request.path == "/sessions"
    assert request.headers["host"] == "example"
    assert request.json() == {"participants": 2, "sim": "building"}
    assert request.keep_alive


def test_response_roundtrip_through_the_wire():
    wire = encode_response(
        429, json_body({"error": "full"}), extra_headers=[("Retry-After", "3")]
    )
    response = _read(wire, read_response)
    assert response.status == 429
    assert response.reason == "Too Many Requests"
    assert response.headers["retry-after"] == "3"
    assert response.json() == {"error": "full"}


def test_keep_alive_semantics_by_version():
    r = parse_request_head(b"GET / HTTP/1.1\r\n\r\n")
    assert r.keep_alive  # 1.1 default
    r = parse_request_head(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert not r.keep_alive
    r = parse_request_head(b"GET / HTTP/1.0\r\n\r\n")
    assert not r.keep_alive  # 1.0 default
    r = parse_request_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
    assert r.keep_alive


def test_json_body_is_canonical_and_parse_is_strict():
    assert json_body({"b": 1, "a": 2}) == b'{"a":2,"b":1}\n'
    empty = parse_request_head(b"POST /s HTTP/1.1\r\n\r\n")
    assert empty.json() == {}
    bad = parse_request_head(b"POST /s HTTP/1.1\r\n\r\n")
    bad.body = b"{nope"
    with pytest.raises(HttpError) as exc:
        bad.json()
    assert exc.value.status == 400
    # not an object; bad UTF-8; an integer literal past the interpreter's
    # digit limit (a plain ValueError); nesting past the recursion limit
    for body in (b"[1,2]", b'{"v":"\xff"}', b'{"v":' + b"1" * 5000 + b"}", b"[" * 100_000):
        bad.body = body
        with pytest.raises(HttpError) as exc:
            bad.json()
        assert exc.value.status == 400


@pytest.mark.parametrize(
    "head,status",
    [
        (b"BREW /pot HTTP/1.1\r\n\r\n", 405),  # unknown method
        (b"GET / HTTP/2.0\r\n\r\n", 400),  # unsupported version
        (b"GET http://x/ HTTP/1.1\r\n\r\n", 400),  # not origin-form
        (b"GET /\r\n\r\n", 400),  # malformed request line
        (b"GET / HTTP/1.1\r\nname value\r\n\r\n", 400),  # no colon
        (b"GET / HTTP/1.1\r\nh: a\r\n folded\r\n\r\n", 400),  # folding
    ],
)
def test_request_head_rejections(head, status):
    with pytest.raises(HttpError) as exc:
        parse_request_head(head)
    assert exc.value.status == status


def test_response_head_rejections():
    with pytest.raises(HttpError) as exc:
        parse_response_head(b"NOPE\r\n\r\n")
    assert exc.value.status == 502
    with pytest.raises(HttpError) as exc:
        parse_response_head(b"HTTP/1.1 abc Bad\r\n\r\n")
    assert exc.value.status == 502


@pytest.mark.parametrize(
    "headers,status",
    [
        (b"Transfer-Encoding: chunked\r\n", 501),
        (b"Content-Length: nope\r\n", 400),
        (b"Content-Length: -5\r\n", 400),
        (f"Content-Length: {http.MAX_BODY_BYTES + 1}\r\n".encode(), 413),
    ],
)
def test_body_framing_rejections(headers, status):
    wire = b"POST /s HTTP/1.1\r\n" + headers + b"\r\n"
    framer = RequestFramer()
    framer.feed(wire)
    with pytest.raises(HttpError) as exc:  # refused when the head completes
        framer.next_request()
    assert exc.value.status == status


@pytest.mark.parametrize(
    "raw,status",
    [
        ("1_0", 400),  # int() reads 10
        ("+5", 400),
        (" 7", 400),
        ("7 ", 400),
        ("", 400),
        ("0x10", 400),
        ("\u00b2", 400),  # a latin-1 digit str.isdigit() accepts
        ("\u0663", 400),  # a non-ASCII decimal int() reads as 3
        pytest.param("1" + "0" * 5000, 413, id="past-int-digit-limit"),
    ],
)
def test_content_length_is_ascii_digits_only(raw, status):
    with pytest.raises(HttpError) as exc:
        http._body_length({"content-length": raw}, "request")
    assert exc.value.status == status


def test_content_length_leading_zeros_read_as_decimal():
    assert http._body_length({"content-length": "007"}, "request") == 7
    assert http._body_length({"content-length": "0" * 5000 + "5"}, "request") == 5
    assert http._body_length({}, "request") == 0


def test_conflicting_content_lengths_are_refused():
    head = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n"
    with pytest.raises(HttpError) as exc:
        parse_request_head(head)
    assert exc.value.status == 400
    # a repeated identical value frames the message one way only
    same = b"POST /s HTTP/1.1\r\ncontent-length: 3\r\nContent-Length:3\r\n\r\nabc"
    assert _frame(same)[0].body == b"abc"


_HEADER_LINE = st.one_of(
    st.builds(
        b"Content-Length:".__add__,
        st.binary(max_size=12) | st.from_regex(rb"[ +\-_0-9]{0,8}", fullmatch=True),
    ),
    st.sampled_from([b"Transfer-Encoding: chunked", b"Connection: close", b" folded"]),
    st.binary(max_size=40),
)

_HEAD = st.one_of(
    st.binary(max_size=256),
    st.builds(
        lambda line, lines: b"\r\n".join([line, *lines]) + b"\r\n\r\n",
        st.sampled_from([b"GET / HTTP/1.1", b"POST /sessions HTTP/1.0", b"BREW / HTTP/1.1"])
        | st.binary(max_size=40),
        st.lists(_HEADER_LINE, max_size=4),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_HEAD)
def test_any_head_yields_a_request_or_an_http_error(head):
    try:
        request = parse_request_head(head)
        length = http._body_length(request.headers, "request")
    except HttpError as exc:
        assert exc.status in http.REASONS
        return
    assert isinstance(request, Request)
    assert 0 <= length <= http.MAX_BODY_BYTES


def test_clean_eof_and_torn_messages():
    assert _frame(b"") == []
    assert _frame(b"\r\n") == []  # whitespace between requests, then EOF
    with pytest.raises(HttpError) as exc:  # closed mid-head
        _frame(b"GET / HTTP/1.1\r\nHost:")
    assert exc.value.status == 400
    assert "mid-head" in exc.value.detail
    torn = b"POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
    with pytest.raises(HttpError) as exc:  # closed mid-body
        _frame(torn)
    assert exc.value.status == 400
    assert "mid-body" in exc.value.detail
    # a head torn across reads yields its request with its last byte
    wire = encode_request("POST", "/s", b'{"a":1}')
    framer = RequestFramer()
    for i in range(len(wire) - 1):
        framer.feed(wire[i : i + 1])
        assert framer.next_request() is None
    framer.feed(wire[-1:])
    assert framer.next_request().json() == {"a": 1}
    framer.close()


def test_oversized_head_is_431():
    wire = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (http.MAX_HEAD_BYTES + 10)
    framer = RequestFramer()
    framer.feed(wire)
    with pytest.raises(HttpError) as exc:  # no need to wait for the blank line
        framer.next_request()
    assert exc.value.status == 431
    # the bound is a StreamReader's with limit=MAX_HEAD_BYTES: the blank
    # line may start at MAX_HEAD_BYTES, not one byte later
    line = b"GET / HTTP/1.1\r\nX-Pad: "
    fits = line + b"a" * (http.MAX_HEAD_BYTES - len(line)) + b"\r\n\r\n"
    assert _frame(fits)[0].headers["x-pad"]
    with pytest.raises(HttpError) as exc:
        _frame(line + b"a" + fits[len(line) :])
    assert exc.value.status == 431


def test_keep_alive_pipeline_frames_two_requests():
    wire = encode_request("GET", "/healthz") + encode_request("GET", "/statsz")
    first, second = _frame(wire)
    assert (first.path, second.path) == ("/healthz", "/statsz")


@pytest.mark.parametrize(
    "target, path",
    [
        ("/a?b#c", "/a"),
        ("/a#b?c", "/a"),
        ("/s/x/steer?", "/s/x/steer"),
        ("//host/healthz", "/healthz"),
        ("/he\tal\nthz", "/healthz"),
        ("//[x", None),
    ],
)
def test_path_is_the_targets_urlsplit_path(target, path):
    """``Request.path`` is set when the head is parsed: ``urlsplit``'s
    path, or a 400 for a target ``urlsplit`` refuses."""
    head = f"GET {target} HTTP/1.1\r\n\r\n".encode()
    if path is None:
        with pytest.raises(HttpError) as exc:
            parse_request_head(head)
        assert exc.value.status == 400
    else:
        assert parse_request_head(head).path == path


def _outcome(chunks):
    """What a framer fed ``chunks`` then EOF yields: (requests, error)."""
    framer = RequestFramer()
    requests = []
    try:
        for chunk in chunks:
            framer.feed(chunk)
            while (request := framer.next_request()) is not None:
                requests.append(request)
        framer.close()
    except HttpError as exc:
        return requests, (exc.status, exc.detail)
    return requests, None


_PIECE = st.one_of(
    st.builds(
        encode_request,
        st.sampled_from(["GET", "POST", "DELETE"]),
        st.sampled_from(["/healthz", "/sessions?x=1", "//h/s"]),
        st.binary(max_size=24),
        keep_alive=st.booleans(),
    ),
    _HEAD,
    st.sampled_from(
        [
            b"\r\n",
            b"Content-Length: 3\r\n\r\nabc",
            b"X-Pad: " + b"a" * (http.MAX_HEAD_BYTES - 20),
        ]
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_PIECE, max_size=5), st.data())
def test_any_cut_of_a_stream_frames_as_the_whole_stream(pieces, data):
    stream = b"".join(pieces)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=8)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
    assert _outcome(chunks) == _outcome([stream])
