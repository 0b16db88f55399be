"""Golden digests of the generated event streams.

Every preset app at scale 0.1, seed 0, hashed over each event's handler
id, divergence flag and every column of its packed true and speculative
streams. Any change to what the generator emits, by a single value,
changes a digest; a change that only makes generation faster must leave
all of them alone. gmaps has a diverged event at this size, so the
speculative walk is pinned too.
"""

import hashlib
import sys
from array import array

import pytest

from repro.workloads import APP_NAMES, EventTrace, get_app

GOLDEN = {
    "amazon": (3, 0, "16c9b53708416b966be250f9d9f378d7"
                     "10e87c0d9882264f6dedda1584a8def4"),
    "bing": (3, 0, "8cf4bbd680bac4e16f366b5365ebf991"
                   "99938d2c444ea4d0f0a54f8d0ca58d86"),
    "cnn": (3, 0, "20a33166bbb5b22eb08330612765ee3a"
                  "a607ae25e22f23ae557947f8ecb81169"),
    "facebook": (3, 0, "626e5213782d6f8be40b6a147b9bccb9"
                       "d272138737810575a5359c5940629780"),
    "gmaps": (3, 1, "9d3b911ea8694e00fbee9591411d8362"
                    "491fc99388c7cd4ee48a8f0e065a94f8"),
    "gdocs": (3, 0, "04f9efd3d45c193661c439acffce43b9"
                    "1c1185d3fb896235cde7f1d698eae35b"),
    "pixlr": (3, 0, "1efa02dd0d8f1c0a4c2a338e304ae311"
                    "dd6a029d4140bc372558ddca94089f08"),
}


def _int64s(values) -> bytes:
    """``values`` as little-endian int64s."""
    column = array("q", values)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tobytes()


def stream_digest(trace) -> str:
    """SHA-256 over every event's index, handler id, divergence flag and
    packed true/spec columns."""
    digest = hashlib.sha256()
    for k in range(len(trace)):
        event = trace.event(k)
        digest.update(_int64s((k, event.handler_fid, event.diverged)))
        for packed in (event.packed_true(), event.packed_spec()):
            digest.update(_int64s((len(packed),)))
            for column in (packed.pc, packed.kind, packed.addr,
                           packed.taken, packed.target, packed.block):
                digest.update(_int64s(column))
    return digest.hexdigest()


def test_every_preset_app_is_pinned():
    assert set(GOLDEN) == set(APP_NAMES)


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_generated_streams_match_golden_digest(app):
    n_events, n_diverged, expected = GOLDEN[app]
    trace = EventTrace(get_app(app), scale=0.1, seed=0)
    assert len(trace) == n_events
    assert sum(trace.event(k).diverged for k in range(len(trace))) \
        == n_diverged
    assert stream_digest(trace) == expected
