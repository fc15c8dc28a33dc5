import hashlib
import json
import math
import random
import struct
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logbase_ir import index as index_mod
from logbase_ir.index import InvertedIndex, build_index


@pytest.fixture
def small():
    return build_index([(1, ["a", "b", "a"]), (2, ["b"])])


class TestBuild:
    def test_postings_and_frequencies(self, small):
        assert small.n_docs == 2
        assert small.dictionary == {
            "a": (array("q", [1]), array("q", [2])),
            "b": (array("q", [1, 2]), array("q", [1, 1])),
        }

    def test_empty_document_counts_toward_n(self):
        index = build_index([(1, [])])
        assert index.n_docs == 1
        assert index.dictionary == {}

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index([])

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index([(1, ["a"]), (1, ["b"])])

    @pytest.mark.parametrize("doc_id", [2**63, -(2**63) - 1])
    def test_doc_id_outside_int64_rejected(self, doc_id):
        with pytest.raises(ValueError, match=f"doc_id {doc_id} does not fit"):
            build_index([(1, ["a"]), (doc_id, ["b"])])

    def test_one_shot_generator(self):
        docs = [(3, ["b", "a"]), (1, ["a", "a"]), (2, [])]
        stream = (doc for doc in docs)
        index = build_index(stream)
        assert next(stream, None) is None
        assert index.snapshot_parts() == build_index(docs).snapshot_parts()
        assert index.dictionary["a"] == (array("q", [1, 3]), array("q", [2, 1]))
        assert list(index.norms) == [1, 2, 3]

    def test_int64_limits_accepted(self):
        index = build_index([(2**63 - 1, ["a"]), (-(2**63), ["a"])])
        assert index.dictionary["a"][0] == array("q", [-(2**63), 2**63 - 1])


class TestLookups:
    def test_doc_freq(self, small):
        assert small.doc_freq("b") == 2
        assert small.doc_freq("z") == 0
        assert small.doc_freq("a") == 1


corpora = st.lists(
    st.lists(st.sampled_from("abcdefgh"), max_size=12),
    min_size=1,
    max_size=10,
)


class TestInvariants:
    @given(corpora)
    def test_structure(self, token_lists):
        docs = [(i + 1, tokens) for i, tokens in enumerate(token_lists)]
        index = build_index(docs)
        assert index.n_docs == len(docs)
        assert list(index.dictionary) == sorted(index.dictionary)
        total_df = 0
        for term, (ids, tfs) in index.dictionary.items():
            assert ids.typecode == tfs.typecode == "q"
            assert len(ids) == len(tfs) == index.doc_freq(term)
            assert list(ids) == sorted(set(ids))
            assert 1 <= index.doc_freq(term) <= index.n_docs
            assert all(tf >= 1 for tf in tfs)
            total_df += len(ids)
        assert total_df == sum(len(set(tokens)) for tokens in token_lists)

    @given(corpora)
    def test_doc_freq_matches_brute_force(self, token_lists):
        docs = [(i + 1, tokens) for i, tokens in enumerate(token_lists)]
        index = build_index(docs)
        for term in "abcdefgh":
            want = [(d, tokens.count(term)) for d, tokens in docs if term in tokens]
            ids, tfs = index.dictionary.get(term, ((), ()))
            assert list(zip(ids, tfs)) == want
            assert index.doc_freq(term) == len(want)

    @given(corpora)
    @settings(max_examples=25)
    def test_permutation_invariance(self, token_lists):
        docs = [(i + 1, tokens) for i, tokens in enumerate(token_lists)]
        shuffled = docs[:]
        random.Random(0).shuffle(shuffled)
        a, b = build_index(docs), build_index(shuffled)
        assert a.dictionary == b.dictionary
        assert a.snapshot_parts() == b.snapshot_parts()


# the header and the four columns of the snapshot of ``small``
def _snapshot(ids=None, tfs=None, doc_ids=(1, 2), norms=(2 * math.log(2), 0.0), **changes):
    header = {
        "format_version": 4,
        "n_docs": 2,
        "stoplist_sha256": "",
        "terms": ["a", "b"],
        "df": [1, 2],
    }
    header.update(changes)
    ids = [1, 1, 2] if ids is None else ids
    return header, ids, [2, 1, 1] if tfs is None else tfs, doc_ids, norms


def _column(values, code="q") -> bytes:
    return struct.pack(f"<{len(values)}{code}", *values)


def _write(path: Path, header, ids, tfs, doc_ids, norms) -> str:
    """The snapshot file, with the sha256 of its body unless the header has one."""
    body = _column(ids) + _column(tfs) + _column(doc_ids) + _column(norms, "d")
    if isinstance(header, dict):
        header = {"body_sha256": hashlib.sha256(body).hexdigest(), **header}
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    return str(path)


class TestSnapshot:
    def test_round_trip(self, tmp_path, small):
        small.stoplist_sha256 = "f" * 64
        path = tmp_path / "index.bin"
        small.save(str(path))
        loaded = InvertedIndex.load(str(path))
        assert loaded.n_docs == small.n_docs
        assert loaded.dictionary == small.dictionary
        assert loaded.stoplist_sha256 == small.stoplist_sha256
        assert repr(loaded.norms) == repr(small.norms)
        assert all(
            ids.typecode == tfs.typecode == "q" for ids, tfs in loaded.dictionary.values()
        )

    def test_format_4_layout(self, tmp_path, small):
        path = tmp_path / "index.bin"
        small.save(str(path))
        header, _, body = path.read_bytes().partition(b"\n")
        assert body == (_column([1, 1, 2]) + _column([2, 1, 1]) + _column([1, 2])
                        + _column([2 * math.log(2), 0.0], "d"))
        assert json.loads(header) == {
            **_snapshot()[0], "body_sha256": hashlib.sha256(body).hexdigest()
        }

    def test_save_is_deterministic(self, tmp_path, small):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        small.save(str(p1))
        small.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dictionary_round_trip(self, tmp_path):
        path = tmp_path / "index.bin"
        build_index([(1, [])]).save(str(path))
        loaded = InvertedIndex.load(str(path))
        assert (loaded.n_docs, loaded.dictionary, loaded.norms) == (1, {}, {1: 0.0})

    def test_interrupted_save_keeps_the_old_snapshot(self, tmp_path, small, monkeypatch):
        path = tmp_path / "index.bin"
        build_index([(1, ["z"])]).save(str(path))
        before = path.read_bytes()

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(index_mod.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            small.save(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["index.bin"]

    def test_failed_save_leaves_nothing(self, tmp_path, small):
        with pytest.raises(OSError):
            small.save(str(tmp_path / "missing" / "index.bin"))
        assert list(tmp_path.iterdir()) == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = _write(tmp_path / "index.bin", *_snapshot(format_version=999))
        with pytest.raises(ValueError, match="version"):
            InvertedIndex.load(path)

    def test_version_3_rejected_with_rebuild_hint(self, tmp_path):
        # the format 3 snapshot of ``small``: header, doc-id and tf columns
        v3 = dict(_snapshot()[0], format_version=3)
        path = tmp_path / "index.bin"
        path.write_bytes(json.dumps(v3).encode() + b"\n" + _column([1, 1, 2]) + _column([2, 1, 1]))
        with pytest.raises(ValueError, match="version 3.*index --save-index"):
            InvertedIndex.load(str(path))

    def test_version_1_rejected_with_rebuild_hint(self, tmp_path):
        v1 = {
            "format_version": 1,
            "n_docs": 2,
            "dictionary": {"a": [1, [[7, 2]]]},
            "doc_lengths": {"1": 1, "2": 0},
        }
        path = tmp_path / "index.json"
        path.write_text(json.dumps(v1))
        with pytest.raises(ValueError, match="version 1.*index --save-index"):
            InvertedIndex.load(str(path))

    def test_version_2_rejected_with_rebuild_hint(self, tmp_path):
        # a format 2 snapshot of ``small`` as the format 2 writer made it
        v2 = {
            "dictionary": {"a": [[1], [2]], "b": [[1, 2], [1, 1]]},
            "format_version": 2,
            "n_docs": 2,
        }
        path = tmp_path / "index.json"
        path.write_text(json.dumps(v2, sort_keys=True))
        with pytest.raises(ValueError, match="version 2.*index --save-index"):
            InvertedIndex.load(str(path))

    @pytest.mark.parametrize(
        "data, match",
        [
            (([1, 2], [], [], [], []), "not a JSON object"),
            (_snapshot(n_docs=0), "n_docs"),
            (_snapshot(n_docs="2"), "n_docs"),
            (_snapshot(n_docs=True), "n_docs"),
            (_snapshot(terms={}), "dictionary"),
            (_snapshot(df=["1", 2]), "'a'.*expected"),
            (_snapshot(df=[True, 2]), "'a'.*expected"),
            (_snapshot(df=[0, 2]), "'a'.*non-empty"),
            (_snapshot(df=[1]), "equal length"),
            (_snapshot(df=[1.0, 2]), "'a'.*non-integer"),
            (_snapshot(df=[None, 2]), "'a'.*non-integer"),
            (_snapshot(df=[2, 2], ids=[2, 1, 1, 2], tfs=[1] * 4), "'a'.*strictly increasing"),
            (_snapshot(df=[2, 2], ids=[1, 1, 1, 2], tfs=[1] * 4), "'a'.*strictly increasing"),
            (_snapshot(tfs=[0, 1, 1]), "'a'.*tf below 1"),
            (_snapshot(ids=[1, 7, 9]), "'b': doc id 7 is not in"),
            (_snapshot(ids=[1, 1]), "body is 72 bytes, expected 80"),
            (_snapshot(terms=["b", "a"]), "term 'a'.*terms not strictly increasing"),
            (_snapshot(terms=["a", "a"]), "term 'a'.*terms not strictly increasing"),
            (_snapshot(terms=["a", 2]), "not a string"),
            (_snapshot(stoplist_sha256=None), "stoplist_sha256"),
            (_snapshot(tfs=[2, 0, 1]), "'b'.*tf below 1"),
            (_snapshot(ids=[1, 2, 1]), "'b'.*strictly increasing"),
            (_snapshot(doc_ids=[2, 1]), "doc id 1: doc-id column not strictly increasing"),
            (_snapshot(doc_ids=[1, 1]), "doc id 1: doc-id column not strictly increasing"),
            (_snapshot(doc_ids=[1, 3]), "'b': doc id 2 is not in the doc-id column"),
            (_snapshot(norms=[math.nan, 0.0]), "doc id 1: norm nan, expected a finite"),
            (_snapshot(norms=[1.0, math.inf]), "doc id 2: norm inf, expected a finite"),
            (_snapshot(norms=[1.0, -0.5]), "doc id 2: norm -0.5, expected a finite value >= 0"),
            (_snapshot(body_sha256="0" * 64), "body does not match its sha256"),
            (_snapshot(body_sha256=None), "body_sha256 is not a string"),
            (_snapshot(n_docs=3), "body is 80 bytes, expected 96"),
            (_snapshot(n_docs=1), "body is 80 bytes, expected 64"),
            (_snapshot(n_docs=10**400), r"n_docs must be an integer from 1 to 2\*\*63 - 1"),
            (_snapshot(n_docs=2**63), r"n_docs must be an integer from 1 to 2\*\*63 - 1"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, data, match):
        with pytest.raises(ValueError, match=match):
            InvertedIndex.load(_write(tmp_path / "index.bin", *data))

    @pytest.mark.parametrize(
        "content, match",
        [
            (b"\xff\xfe{}\n", "not UTF-8"),
            (b"", "Expecting value"),
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        ],
        ids=["not-utf8", "empty", "deep"],
    )
    def test_malformed_header_rejected(self, tmp_path, content, match):
        path = tmp_path / "index.bin"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=match):
            InvertedIndex.load(str(path))


def _valid_snapshot() -> bytes:
    index = build_index([
        (3, ["x", "y", "y"]), (5, ["y", "z"]), (8, ["x", "w", "w", "w"]), (9, []),
    ])
    return b"".join(bytes(part) for part in index.snapshot_parts())


VALID = _valid_snapshot()


class TestDamagedSnapshot:
    @given(
        st.one_of(
            st.integers(0, len(VALID) - 1).map(lambda n: VALID[:n]),
            st.tuples(st.integers(0, len(VALID) - 1), st.integers(1, 255)).map(
                lambda flip: VALID[: flip[0]]
                + bytes([VALID[flip[0]] ^ flip[1]])
                + VALID[flip[0] + 1:]
            ),
        )
    )
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_load_raises_only_value_error(self, damaged):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.bin"
            path.write_bytes(damaged)
            try:
                loaded = InvertedIndex.load(str(path))
            except ValueError:
                return
        # a change that still passes every check describes a valid index
        for ids, tfs in loaded.dictionary.values():
            assert len(ids) == len(tfs) >= 1
            assert list(ids) == sorted(set(ids))
            assert min(tfs) >= 1
