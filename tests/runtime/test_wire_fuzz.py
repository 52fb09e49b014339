"""Listener fuzz: whatever a peer sends, every frame reader ends cleanly.

The hypothesis strategies of ``test_net_wire_property.py`` drive the two
live listeners (``net_worker`` and the gateway — as a tenant's peer and,
behind a store hello, as a THT store client's) and the ``file://`` store
reader with control sections inside valid frames — codec messages of any
shape, JSON in the codec's tag alphabet, arbitrary bytes — and with raw byte
strings.  A listener must answer with error frames and/or
close the connection within :data:`DEADLINE_S` (a hang fails the test) and
keep serving the next peer; the store reader must load or raise
:class:`~repro.common.exceptions.THTStoreError`.

``WIRE_FUZZ_EXAMPLES`` sets the examples per listener: a few in tier-1,
more under ``make wire-fuzz``.
"""

from __future__ import annotations

import json
import os
import socket

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from conftest import LISTENERS, exchange  # noqa: E402
from test_net_wire_property import build_frame, frame_messages, messages  # noqa: E402

from repro.atm.store import FileTHTStore  # noqa: E402
from repro.common.exceptions import THTStoreError  # noqa: E402
from repro.runtime.codec import encode_control  # noqa: E402
from repro.runtime.net_wire import (  # noqa: E402
    MAX_FRAME_SEGMENTS,
    encode_frame,
    iter_frames,
    request,
)
from repro.serving.gateway import SERVING_PROTOCOL_VERSION  # noqa: E402

EXAMPLES = int(os.environ.get("WIRE_FUZZ_EXAMPLES", "12"))

#: A connection thread that dies of an exception is a failure, not a close.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")

#: Seconds a listener may take to answer and close one fuzzed connection.
DEADLINE_S = 10.0

#: JSON values over the codec's tags and the message kinds of every protocol.
_TAGS = ["(", "[", "{", "a", "b", "e", "f", "r", "s", "", "chunk", "result",
         "submit_batch", "hello", "ping", "sync", "publish", "fetch", "tht_delta"]
tagged_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 2**40), st.floats(allow_nan=False),
              st.sampled_from(_TAGS), st.text(max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=5).flatmap(
            lambda items: st.sampled_from(_TAGS).map(lambda tag: [tag, *items])
        ),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=20,
)


def _codec_frame(message) -> bytes:
    control, segments = encode_control(message, MAX_FRAME_SEGMENTS)
    return build_frame(control, [bytes(segment) for segment in segments])


#: Control sections inside valid frames, then raw byte strings.
fuzz_inputs = st.one_of(
    st.one_of(messages, frame_messages).map(_codec_frame),
    st.tuples(st.sampled_from(["", "chunk", "result", "submit_batch"]), tagged_json).map(
        lambda pair: build_frame(json.dumps(list(pair)).encode(), [])
    ),
    st.tuples(tagged_json, st.lists(st.binary(max_size=16), max_size=3)).map(
        lambda pair: build_frame(json.dumps(pair[0]).encode(), pair[1])
    ),
    st.binary(max_size=64).map(lambda control: build_frame(control, [])),
    st.binary(max_size=256),
    st.binary(max_size=64).map(lambda tail: b"ATMS" + tail),
)


#: What a THT store client says first to a gateway: the fuzzed bytes behind
#: it reach the store verbs.
STORE_HELLO = bytes(encode_frame(("hello", {"protocol": SERVING_PROTOCOL_VERSION, "store": True})))


@pytest.mark.parametrize("kind", LISTENERS)
def test_a_listener_answers_any_input_with_errors_or_a_close(kind, live_listener):
    address = live_listener(kind)
    prefixes = (b"", STORE_HELLO) if kind == "gateway" else (b"",)

    @settings(max_examples=EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(fuzz_inputs)
    def check(raw: bytes) -> None:
        for prefix in prefixes:
            # socket.timeout (an OSError) here is a hang: the test fails.
            replies = list(iter_frames(exchange(address, prefix + raw, DEADLINE_S)))
            assert all(type(reply) is tuple and type(reply[0]) is str for reply in replies)
        # ... and the listener still serves the next peer.
        with socket.create_connection(address, timeout=DEADLINE_S) as sock:
            assert type(request(sock, ("ping",))) is tuple

    check()


@settings(max_examples=4 * EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(st.lists(fuzz_inputs, min_size=1, max_size=3).map(b"".join))
def test_the_store_reader_loads_or_raises_the_store_error(tmp_path, raw):
    path = tmp_path / "fuzzed.tht"
    path.write_bytes(raw)
    try:
        delta = FileTHTStore(path).load()
    except THTStoreError:
        return
    assert type(delta) is dict
