"""The stdlib HTTP/1.1 codec: pure head parsing, framing, hard bounds."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import http
from repro.live.http import (
    HttpError,
    Request,
    encode_request,
    encode_response,
    json_body,
    parse_request_head,
    parse_response_head,
    read_request,
    read_response,
)


def _frame(data, fn):
    """Run an async framer against a pre-fed StreamReader."""

    async def go():
        reader = asyncio.StreamReader(limit=http.MAX_HEAD_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        return await fn(reader)

    return asyncio.run(go())


def test_request_roundtrip_through_the_wire():
    body = json_body({"sim": "building", "participants": 2})
    wire = encode_request("POST", "/sessions?x=1", body, host="example")
    request = _frame(wire, read_request)
    assert request.method == "POST"
    assert request.path == "/sessions"
    assert request.query == {"x": "1"}
    assert request.headers["host"] == "example"
    assert request.json() == {"participants": 2, "sim": "building"}
    assert request.keep_alive


def test_response_roundtrip_through_the_wire():
    wire = encode_response(
        429, json_body({"error": "full"}), extra_headers=[("Retry-After", "3")]
    )
    response = _frame(wire, read_response)
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
    with pytest.raises(HttpError) as exc:
        _frame(wire, read_request)
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
    assert _frame(same, read_request).body == b"abc"


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
    assert _frame(b"", read_request) is None
    with pytest.raises(HttpError) as exc:  # closed mid-head
        _frame(b"GET / HTTP/1.1\r\nHost:", read_request)
    assert exc.value.status == 400
    torn = b"POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
    with pytest.raises(HttpError) as exc:  # closed mid-body
        _frame(torn, read_request)
    assert exc.value.status == 400


def test_oversized_head_is_431():
    wire = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (http.MAX_HEAD_BYTES + 10)
    with pytest.raises(HttpError) as exc:
        _frame(wire, read_request)
    assert exc.value.status == 431


def test_keep_alive_pipeline_frames_two_requests():
    wire = encode_request("GET", "/healthz") + encode_request("GET", "/statsz")

    async def go():
        reader = asyncio.StreamReader(limit=http.MAX_HEAD_BYTES)
        reader.feed_data(wire)
        reader.feed_eof()
        first = await read_request(reader)
        second = await read_request(reader)
        third = await read_request(reader)
        return first, second, third

    first, second, third = asyncio.run(go())
    assert (first.path, second.path, third) == ("/healthz", "/statsz", None)
