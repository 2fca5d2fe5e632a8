"""Tests for the shared durable-artifact primitives (sim/durable.py)."""

from __future__ import annotations

import json
import pickle
import warnings
from pathlib import Path

import pytest

from repro.sim import durable
from repro.sim.durable import (
    CHECKSUM,
    CORRUPT,
    INTACT,
    SEAL_MAGIC,
    atomic_write,
    classify_line,
    quarantine,
    record_checksum,
    scan_records,
    seal,
    seal_record,
    unseal,
)


@pytest.fixture(autouse=True)
def _fresh_warning_latch(monkeypatch):
    monkeypatch.setattr(durable, "_warned_kinds", set())


def _line(**fields) -> str:
    return seal_record({"event": "e", "key": "k", **fields})


class TestAtomicWrite:
    def test_no_tmp_left_when_the_write_raises(self, tmp_path, monkeypatch):
        target = tmp_path / "a.bin"
        target.write_bytes(b"old")

        def boom(self, other):
            raise OSError("rename failed")

        monkeypatch.setattr(Path, "replace", boom)
        with pytest.raises(OSError):
            atomic_write(target, b"new")
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"old"


class TestSeal:
    def test_round_trip_and_layout(self):
        blob = seal(b"payload")
        assert blob.startswith(SEAL_MAGIC)
        assert len(blob) == len(SEAL_MAGIC) + 32 + len(b"payload")
        assert unseal(blob) == b"payload"

    def test_rejects_every_single_bit_flip(self):
        blob = seal(pickle.dumps({"v": list(range(20))}))
        for bit in range(len(blob) * 8):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError):
                unseal(bytes(damaged))

    def test_rejects_every_proper_prefix(self):
        # A truncated sidecar or cache entry: every cut point, down to
        # the empty file, is refused rather than half-decoded.
        blob = seal(pickle.dumps({"v": list(range(20))}))
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                unseal(blob[:cut])

    def test_rejects_a_bare_pickle(self):
        with pytest.raises(ValueError, match="magic"):
            unseal(pickle.dumps({"v": 1}, protocol=pickle.HIGHEST_PROTOCOL))


class TestRecords:
    def test_seal_record_is_canonical_json_with_sum(self):
        record = {"key": "k", "event": "e", "n": 1}
        line = seal_record(record)
        assert line == json.dumps(record, sort_keys=True)
        assert json.loads(line)["sum"] == record_checksum(record)

    def test_record_without_sum_is_a_checksum_failure(self):
        line = json.dumps({"event": "e", "key": "k"})
        assert classify_line(line) == (CHECKSUM, None)

    def test_line_classes(self):
        assert classify_line(_line(n=1))[0] == INTACT
        assert classify_line('{"event": "e", "ke')[0] == CORRUPT
        assert classify_line(json.dumps([1, 2]))[0] == CORRUPT
        forged = json.loads(_line(n=1))
        forged["n"] = 2
        assert classify_line(json.dumps(forged))[0] == CHECKSUM

    def test_scan_sorts_all_four_classes(self, tmp_path):
        path = tmp_path / "r.jsonl"
        forged = json.loads(_line(n=2))
        forged["n"] = 3
        path.write_text(
            _line(n=1) + "\n"
            + "not json\n"
            + json.dumps(forged) + "\n"
            + _line(n=4) + "\n"
            + _line(n=5)[:10],  # unterminated: a torn tail
            encoding="utf-8",
        )
        scan = scan_records(path)
        assert [r["n"] for r in scan.records] == [1, 4]
        assert scan.corrupt_records == 1
        assert scan.checksum_failures == 1
        assert scan.torn_tail == 1

    def test_unterminated_intact_line_is_not_torn(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(_line(n=1) + "\n" + _line(n=2), encoding="utf-8")
        scan = scan_records(path)
        assert [r["n"] for r in scan.records] == [1, 2]
        assert scan.torn_tail == 0

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_records(tmp_path / "missing.jsonl")
        assert scan == durable.RecordScan()


class TestQuarantine:
    def test_moves_aside_counts_and_warns(self, tmp_path):
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"bad")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt thing"):
            # True: this call moved it, so a caller may count it.
            assert quarantine(path, ValueError("bad"), "thing",
                              "it is redone") is True
        assert not path.exists()
        assert (tmp_path / "entry.corrupt").read_bytes() == b"bad"

    def test_already_gone_is_quiet(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quarantine(tmp_path / "gone.pkl", ValueError("x"),
                              "thing", "it is redone") is False
        assert not list(tmp_path.iterdir())

    def test_one_warning_per_kind_per_process(self, tmp_path):
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.pkl").write_bytes(b"bad")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            quarantine(tmp_path / "a.pkl", ValueError(), "kind-1", "redo")
            quarantine(tmp_path / "b.pkl", ValueError(), "kind-1", "redo")
            quarantine(tmp_path / "c.pkl", ValueError(), "kind-2", "redo")
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "kind-1" in messages[0] and "kind-2" in messages[1]
        assert len(list(tmp_path.glob("*.corrupt"))) == 3
