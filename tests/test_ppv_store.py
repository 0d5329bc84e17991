"""Unit tests for the binary on-disk PPV index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_decode_record
from repro.core.index import build_index
from repro.storage import DiskPPVStore, load_index, ppv_store, save_index
from repro.storage.ppv_store import check_records, decode_records
from tests.conftest import ALPHA, FIG3_HUBS


@pytest.fixture()
def saved_index(fig1_graph, tmp_path):
    index = build_index(fig1_graph, FIG3_HUBS, alpha=ALPHA, epsilon=1e-10, clip=0.0)
    path = tmp_path / "index.fppv"
    save_index(index, path)
    return index, path


class TestRoundTrip:
    def test_parameters_preserved(self, saved_index):
        index, path = saved_index
        loaded = load_index(path)
        assert loaded.alpha == index.alpha
        assert loaded.epsilon == index.epsilon
        assert loaded.clip == index.clip
        np.testing.assert_array_equal(loaded.hub_mask, index.hub_mask)

    def test_entries_identical(self, saved_index):
        index, path = saved_index
        loaded = load_index(path)
        np.testing.assert_array_equal(loaded.hubs, index.hubs)
        for hub in index.hubs.tolist():
            entry, other = index.get(hub), loaded.get(hub)
            np.testing.assert_array_equal(other.nodes, entry.nodes)
            np.testing.assert_allclose(other.scores, entry.scores, atol=0)
            np.testing.assert_array_equal(other.border_hubs, entry.border_hubs)
            np.testing.assert_allclose(
                other.border_masses, entry.border_masses, atol=0
            )

    def test_save_returns_bytes_written(self, saved_index, tmp_path):
        index, _ = saved_index
        written = save_index(index, tmp_path / "again.fppv")
        assert written == (tmp_path / "again.fppv").stat().st_size

    def test_loaded_index_queries_identically(self, saved_index, fig1_graph):
        from repro import FastPPV, StopAfterIterations

        index, path = saved_index
        loaded = load_index(path)
        a = FastPPV(fig1_graph, index, delta=0.0).query(0, StopAfterIterations(5))
        b = FastPPV(fig1_graph, loaded, delta=0.0).query(0, StopAfterIterations(5))
        np.testing.assert_allclose(a.scores, b.scores, atol=0)


class TestDiskStore:
    def test_lazy_get_matches(self, saved_index):
        index, path = saved_index
        with DiskPPVStore(path) as store:
            for hub in FIG3_HUBS:
                entry = store.get(hub)
                expected = index.get(hub)
                np.testing.assert_array_equal(entry.nodes, expected.nodes)
                np.testing.assert_allclose(entry.scores, expected.scores, atol=0)

    def test_read_counter(self, saved_index):
        _, path = saved_index
        with DiskPPVStore(path) as store:
            assert store.reads == 0
            store.get(FIG3_HUBS[0])
            store.get(FIG3_HUBS[1])
            assert store.reads == 2

    def test_contains_and_hubs(self, saved_index):
        _, path = saved_index
        with DiskPPVStore(path) as store:
            assert FIG3_HUBS[0] in store
            assert 0 not in store
            assert store.hubs.tolist() == sorted(FIG3_HUBS)

    def test_missing_hub_raises(self, saved_index):
        _, path = saved_index
        with DiskPPVStore(path) as store:
            with pytest.raises(KeyError):
                store.get(0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fppv"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="not a FastPPV"):
            DiskPPVStore(path)

    def test_close_idempotent(self, saved_index):
        _, path = saved_index
        store = DiskPPVStore(path)
        store.close()
        store.close()


@pytest.fixture()
def opened(monkeypatch):
    """The file handles ``ppv_store`` opens."""
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(ppv_store, "open", recording_open, raising=False)
    return handles


class TestTruncatedFile:
    """A file cut short inside its header or its directory is a
    ``ValueError`` naming the path and the byte counts — never a
    ``struct.error`` — and the refused store leaves no handle open."""

    # (bytes kept, the part cut short, the bytes of it the file holds);
    # the header is 48 bytes and the fixture's directory 3 x 32.
    @pytest.mark.parametrize(
        "keep, what, holds",
        [(0, "header", 0), (20, "header", 20), (48, "directory", 0),
         (48 + 40, "directory", 40)],
    )
    def test_refused_with_path_and_sizes(self, saved_index, tmp_path, opened,
                                         keep, what, holds):
        _, path = saved_index
        cut = tmp_path / "cut.fppv"
        cut.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError) as excinfo:
            DiskPPVStore(cut)
        message = str(excinfo.value)
        assert str(cut) in message and what in message
        assert f"the file holds {holds}" in message
        assert len(opened) == 1 and opened[0].closed

    def test_a_cut_payload_is_refused_at_the_read(self, saved_index, tmp_path):
        _, path = saved_index
        cut = tmp_path / "cut.fppv"
        cut.write_bytes(path.read_bytes()[:-8])
        with DiskPPVStore(cut) as store:
            last = max(store.hubs.tolist(), key=lambda hub: store._directory[hub][0])
            with pytest.raises(ValueError, match=f"hub {last}: "):
                store.get_many(store.hubs)


def _damaged(path, tmp_path, entry: int, hub: int):
    """A copy of the index at ``path`` whose directory entry ``entry``
    names ``hub``; the header is 48 bytes, a directory entry 32 and its
    first word the hub id."""
    data = bytearray(path.read_bytes())
    data[48 + 32 * entry:48 + 32 * entry + 8] = hub.to_bytes(8, "little")
    damaged = tmp_path / "damaged.fppv"
    damaged.write_bytes(bytes(data))
    return damaged


class TestDamagedDirectory:
    """A directory that names a hub twice (a dict would keep one and
    serve another hub's record under it) or a hub outside the graph (a
    bare ``IndexError`` before) is refused when the store opens, with a
    ``ValueError`` naming the path and the hub, by every reader."""

    @pytest.mark.parametrize("read", [DiskPPVStore, load_index])
    def test_a_hub_named_twice(self, saved_index, tmp_path, opened, read):
        _, path = saved_index
        first = sorted(FIG3_HUBS)[0]
        damaged = _damaged(path, tmp_path, 1, first)
        with pytest.raises(ValueError) as excinfo:
            read(damaged)
        assert str(excinfo.value) == (
            f"{damaged}: damaged FastPPV index: the directory names hub "
            f"{first} twice"
        )
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.parametrize("read", [DiskPPVStore, load_index])
    def test_a_hub_outside_the_graph(self, saved_index, tmp_path, opened, read):
        index, path = saved_index
        nodes = index.hub_mask.size
        damaged = _damaged(path, tmp_path, 0, nodes)
        with pytest.raises(ValueError) as excinfo:
            read(damaged)
        assert str(excinfo.value) == (
            f"{damaged}: damaged FastPPV index: the directory names hub "
            f"{nodes} of a {nodes}-node graph"
        )
        assert len(opened) == 1 and opened[0].closed


def _record(values, entries: int, borders: int):
    """``(entries, borders, payload)`` of one stored record."""
    nodes, scores, border_hubs, border_masses = values
    payload = b"".join(
        (
            np.asarray(nodes, dtype="<i8").tobytes(),
            np.asarray(scores, dtype="<f8").tobytes(),
            np.asarray(border_hubs, dtype="<i8").tobytes(),
            np.asarray(border_masses, dtype="<f8").tobytes(),
        )
    )
    return entries, borders, payload


@st.composite
def stored_records(draw):
    """Hub ids (repeats allowed, any order) and their stored records,
    zero-entry and zero-border ones included."""
    count = draw(st.integers(0, 8))
    hubs, records = [], []
    for _ in range(count):
        entries, borders = draw(st.integers(0, 5)), draw(st.integers(0, 4))
        ids = st.integers(-(2**62), 2**62)
        reals = st.floats(allow_nan=False, width=64)
        values = (
            draw(st.lists(ids, min_size=entries, max_size=entries)),
            draw(st.lists(reals, min_size=entries, max_size=entries)),
            draw(st.lists(ids, min_size=borders, max_size=borders)),
            draw(st.lists(reals, min_size=borders, max_size=borders)),
        )
        hubs.append(draw(st.integers(0, 5)))
        records.append(_record(values, entries, borders))
    return hubs, records


FIELDS = ("nodes", "scores", "border_hubs", "border_masses")


class TestDecodeRecords:
    """``decode_records`` — the one payload decoder — against the
    per-record decoding it replaced, array for array."""

    @settings(max_examples=60, deadline=None)
    @given(stored_records())
    def test_equals_per_record_decoding(self, case):
        hubs, records = case
        rows = decode_records(hubs, records)
        assert rows.hubs.tolist() == hubs
        assert rows.entries.tolist() == [entries for entries, _, _ in records]
        assert rows.borders.tolist() == [borders for _, borders, _ in records]
        cuts = np.cumsum(rows.entries)[:-1], np.cumsum(rows.borders)[:-1]
        split = [  # per field, one array per row
            np.split(getattr(rows, name), cuts[position // 2])
            for position, name in enumerate(FIELDS)
        ]
        assert len(split[0]) == max(len(records), 1)
        for record, *got in zip(records, *split):
            for array, want in zip(got, reference_decode_record(*record)):
                assert array.dtype == want.dtype
                assert array.tobytes() == want.tobytes()
        for name, dtype in zip(FIELDS, (np.int64, np.float64) * 2):
            assert getattr(rows, name).dtype == dtype

    @settings(max_examples=40, deadline=None)
    @given(stored_records(), st.data())
    def test_a_wrong_length_is_refused_naming_the_hub(self, case, data):
        hubs, records = case
        if not records:
            return
        bad = data.draw(st.integers(0, len(records) - 1))
        entries, borders, payload = records[bad]
        change = data.draw(st.sampled_from([-1, 1, 8, -8, -16]))
        if len(payload) + change < 0:
            change = 1
        damaged = payload[:change] if change < 0 else payload + bytes(change)
        records = records[:bad] + [(entries, borders, damaged)] + records[bad + 1:]
        with pytest.raises(ValueError, match=f"^hub {hubs[bad]}: "):
            check_records(hubs, records)

    def test_negative_counts_are_refused(self):
        with pytest.raises(ValueError, match="^hub 3: "):
            check_records([3], [(-1, 1, b"")])


@pytest.fixture(scope="module")
def fig1_file(fig1_graph, tmp_path_factory):
    index = build_index(fig1_graph, FIG3_HUBS, alpha=ALPHA, epsilon=1e-10, clip=0.0)
    path = tmp_path_factory.mktemp("fig1") / "index.fppv"
    save_index(index, path)
    return path


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(FIG3_HUBS), max_size=12))
def test_get_many_is_one_read_per_unique_hub(fig1_file, wanted):
    """Any request order, repeats included: one row per unique hub, read
    once, each row the hub's own ``get``."""
    with DiskPPVStore(fig1_file) as store, DiskPPVStore(fig1_file) as single:
        block = store.get_many(wanted)
        assert block.hubs.tolist() == sorted(set(wanted))
        assert store.reads == len(set(wanted))
        for hub in set(wanted):
            alone = single.get(hub)
            for array, name in zip(block.prime_of(hub), FIELDS):
                assert array.tobytes() == getattr(alone, name).tobytes()
        assert store.bytes_read == single.bytes_read
