"""Property-based crash/corruption tests for the persistence layer.

The contract pinned here is *detect-or-recover*: for any persisted
artifact — a stamped JSON envelope, a REPRO-CKPT checkpoint, a JSONL
journal — an arbitrary truncation or a single flipped bit must never
yield a clean read of wrong data.  Either the reader raises (or the
fsck probe says "corrupt"/"legacy"), or the recovered content is
exactly what was acknowledged before the damage.
"""

import hashlib
import json
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import persist
from repro.fsck import _probe_journal, scan_directory
from repro.snapshot.checkpoint import CHECKPOINT_FORMAT_VERSION, MAGIC, verify_checkpoint


@pytest.fixture(autouse=True)
def _clean_injector():
    persist.install_storage_faults(None)
    yield
    persist.install_storage_faults(None)


# Payloads: JSON objects with string keys and printable scalar values —
# the shape every persisted document in this project takes.
scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
    st.booleans(),
)
payloads = st.dictionaries(
    st.text(st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=8),
    scalars,
    min_size=1,
    max_size=8,
)


# -- stamped JSON envelopes ---------------------------------------------------


class TestJsonEnvelope:
    @given(payload=payloads, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_of_a_compact_envelope_is_detected(
        self, tmp_path_factory, payload, data
    ):
        path = tmp_path_factory.mktemp("trunc") / "doc.json"
        persist.write_json(path, payload)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        # A compact JSON object only balances its braces at full length:
        # every strict prefix must fail the parse, not read as data.
        assert persist.verify_file(path)[0] == "corrupt"
        with pytest.raises(persist.CorruptPayloadError):
            persist.read_json(path)

    @given(payload=payloads, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_bit_flip_never_verifies_wrong_data(
        self, tmp_path_factory, payload, data
    ):
        path = tmp_path_factory.mktemp("flip") / "doc.json"
        persist.write_json(path, payload)
        raw = bytearray(path.read_bytes())
        bit = data.draw(st.integers(0, len(raw) * 8 - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        status, _ = persist.verify_file(path)
        if status == "ok":
            # The flip self-cancelled semantically (e.g. inside the
            # stamp's unverified format field): the data must be intact.
            assert persist.read_json(path) == payload
        else:
            # Detected: corrupt outright, or demoted to "legacy" when
            # the flip destroyed the stamp key itself — either way the
            # file no longer passes as verified-good.
            assert status in ("corrupt", "legacy")

    @given(payload=payloads)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("rt") / "doc.json"
        persist.write_json(path, payload)
        assert persist.read_json(path) == payload
        assert persist.verify_file(path)[0] == "ok"


# -- REPRO-CKPT checkpoints ---------------------------------------------------


def _checkpoint_blob(state: bytes) -> bytes:
    compressed = zlib.compress(state)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "checksum_sha256": hashlib.sha256(compressed).hexdigest(),
        "payload_bytes": len(compressed),
        "ops_executed": [1],
    }
    return (
        MAGIC
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + compressed
    )


class TestCheckpointFiles:
    @given(state=st.binary(min_size=1, max_size=200), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_is_detected(self, tmp_path_factory, state, data):
        blob = _checkpoint_blob(state)
        path = tmp_path_factory.mktemp("ckpt") / "latest.ckpt"
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path.write_bytes(blob[:cut])
        assert verify_checkpoint(path)[0] == "corrupt"

    @given(state=st.binary(min_size=1, max_size=200), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_payload_bit_flips_are_detected(self, tmp_path_factory, state,
                                            data):
        """The compressed payload is checksummed: any flip there is caught.

        (Header *metadata* fields are deliberately outside the checksum —
        they describe the payload, whose integrity is what matters.)
        """
        blob = _checkpoint_blob(state)
        payload_start = blob.index(b"\n", len(MAGIC)) + 1
        raw = bytearray(blob)
        bit = data.draw(
            st.integers(payload_start * 8, len(raw) * 8 - 1), label="bit"
        )
        raw[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path_factory.mktemp("ckpt") / "latest.ckpt"
        path.write_bytes(bytes(raw))
        assert verify_checkpoint(path)[0] == "corrupt"

    @given(state=st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_undamaged_blob_verifies(self, tmp_path_factory, state):
        path = tmp_path_factory.mktemp("ckpt") / "latest.ckpt"
        path.write_bytes(_checkpoint_blob(state))
        assert verify_checkpoint(path)[0] == "ok"


# -- JSONL journals -----------------------------------------------------------


records_strategy = st.lists(payloads, min_size=0, max_size=6)


def _journal_bytes(records) -> bytes:
    return b"".join(json.dumps(r).encode() + b"\n" for r in records)


def _parse_records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestJournals:
    @given(records=records_strategy, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_journal_repairs_to_a_record_prefix(
        self, tmp_path_factory, records, data
    ):
        """Killing a writer mid-append loses at most the unacked tail.

        After fsck repair the journal holds an exact prefix of the
        original records — never an invented or mutated record.
        """
        raw = _journal_bytes(records)
        directory = tmp_path_factory.mktemp("journal")
        path = directory / "log.jsonl"
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        path.write_bytes(raw[:cut])
        status, _, offset = _probe_journal(path)
        if status == "ok":
            assert records[: len(_parse_records(path))] == _parse_records(path)
            return
        assert offset >= 0  # a pure truncation is always a torn tail
        scan_directory(directory, repair=True)
        recovered = _parse_records(path)
        assert recovered == records[: len(recovered)]
        # And the repair converges: a second scan sees a clean journal.
        assert _probe_journal(path)[0] == "ok"
