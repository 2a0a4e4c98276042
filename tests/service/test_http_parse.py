"""Malformed requests answer 400 naming the bad field, never 500, and
a stalled request answers 408 instead of holding its connection.

The client library never sends these, so the tests speak raw HTTP to
a live :class:`ServerThread` over a socket.
"""

import json
import socket
from urllib.parse import urlsplit

import pytest

from repro.service import http
from repro.service.client import ServiceClient
from repro.service.http import ServerThread

FIG7 = {"kind": "figure", "scenario": "fig7", "samples": 60, "seed": 1}


def raw_request(address, head):
    """Send one request head; return (status, decoded JSON body)."""
    return raw_exchange(address, head.encode("latin-1") + b"\r\n\r\n")


def raw_exchange(address, data, timeout=30.0):
    """Send raw request bytes; return (status, decoded JSON body)."""
    split = urlsplit(address)
    with socket.create_connection((split.hostname, split.port),
                                  timeout=timeout) as sock:
        sock.sendall(data)
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed mid-head: {reply!r}"
            reply += chunk
        status_head, _, body = reply.partition(b"\r\n\r\n")
        lines = status_head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        length = int(headers["Content-Length"])
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed mid-body: {body!r}"
            body += chunk
    return int(lines[0].split(" ", 2)[1]), json.loads(body)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A live server holding one finished job; yields (address, id)."""
    root = str(tmp_path_factory.mktemp("svc") / "store")
    with ServerThread(root, workers=1) as address:
        client = ServiceClient(address)
        job_id = client.submit(FIG7)["id"]
        assert client.wait(job_id, poll_s=10.0)["state"] == "done"
        yield address, job_id


@pytest.mark.parametrize("value", ["abc", "-5", "+5", "1.5"])
def test_malformed_content_length_is_400(server, value):
    address, _job_id = server
    status, body = raw_request(
        address, f"POST /jobs HTTP/1.1\r\nContent-Length: {value}")
    assert status == 400
    assert "Content-Length" in body["error"]
    assert repr(value) in body["error"]


@pytest.mark.parametrize("value", ["abc", "nan", "-1"])
def test_malformed_wait_is_400(server, value):
    address, job_id = server
    status, body = raw_request(
        address, f"GET /jobs/{job_id}?wait={value} HTTP/1.1")
    assert status == 400
    assert "wait" in body["error"]
    assert repr(value) in body["error"]


def test_well_formed_wait_still_answers(server):
    address, job_id = server
    status, body = raw_request(
        address, f"GET /jobs/{job_id}?wait=0 HTTP/1.1")
    assert status == 200
    assert body["id"] == job_id and body["state"] == "done"


@pytest.mark.parametrize("data", [
    b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
    b"POST /jobs HTTP/1.1\r\nContent-Len",
], ids=["short-body", "unterminated-head"])
def test_stalled_request_is_408(server, monkeypatch, data):
    # raising=False: without the deadline the server never answers, so
    # the short socket timeout fails the test instead of hanging it.
    monkeypatch.setattr(http, "READ_DEADLINE_S", 0.2, raising=False)
    address, _job_id = server
    status, body = raw_exchange(address, data, timeout=5.0)
    assert status == 408
    assert "0.2 s" in body["error"]
