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
from logbase_ir.textpipe import PIPELINE_VERSION


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

    def test_term_vectors(self, tmp_path):
        docs = [(3, ["x", "y", "y"]), (5, ["y", "z"]), (8, ["x", "w", "w", "w"]), (9, [])]
        index = build_index(docs)
        snapshot = b"".join(map(bytes, index.snapshot_parts()))
        want = {3: [("x", 1), ("y", 2)], 8: [("w", 3), ("x", 1)], 9: []}
        vectors = index.term_vectors([8, 3, 9, 3])
        assert vectors == want
        # kept for the life of the index, and out of its snapshot
        again = index.term_vectors([3, 5])
        assert again[3] is vectors[3] and again[5] == [("y", 1), ("z", 1)]
        assert b"".join(map(bytes, index.snapshot_parts())) == snapshot
        index.save(str(tmp_path / "index.bin"))
        loaded = InvertedIndex.load(str(tmp_path / "index.bin"))
        assert loaded.term_vectors([3, 8, 9]) == want


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


# the header and the four columns of the snapshot of ``small``, as stored:
# each term's first position in the doc-id column and then its gaps less
# one, each tf less one, the doc ids and the norms
def _snapshot(postings=None, tfs=None, doc_ids=(1, 2), norms=(2 * math.log(2), 0.0), **changes):
    header = {
        "format_version": 5,
        "n_docs": 2,
        "pipeline_version": PIPELINE_VERSION,
        "stoplist_sha256": "",
        "terms": ["a", "b"],
        "df": [1, 2],
    }
    header.update(changes)
    postings = [0, 0, 0] if postings is None else postings
    return header, postings, [1, 0, 0] if tfs is None else tfs, doc_ids, norms


def _column(values, code="Q") -> bytes:
    return struct.pack(f"<{len(values)}{code}", *values)


def _write(path: Path, header, postings, tfs, doc_ids, norms) -> str:
    """The snapshot file, with the sha256 of its body unless the header has one."""
    body = _column(postings) + _column(tfs) + _column(doc_ids, "q") + _column(norms, "d")
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

    def test_format_5_layout(self, tmp_path, small):
        path = tmp_path / "index.bin"
        small.save(str(path))
        header, _, body = path.read_bytes().partition(b"\n")
        assert body == (_column([0, 0, 0]) + _column([1, 0, 0]) + _column([1, 2], "q")
                        + _column([2 * math.log(2), 0.0], "d"))
        assert json.loads(header) == {
            **_snapshot()[0], "body_sha256": hashlib.sha256(body).hexdigest()
        }
        # sparse doc ids: a posting is stored by its position in the doc-id column
        sparse = build_index([(20, ["b"]), (10, ["a", "a"]), (7, []), (-5, ["b", "a"])])
        sparse.save(str(path))
        header, _, body = path.read_bytes().partition(b"\n")
        assert json.loads(header)["df"] == [2, 2]
        assert body[:64] == _column([0, 1, 0, 2]) + _column([0, 1, 0, 0])
        assert body[64:96] == _column([-5, 7, 10, 20], "q")

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

    def test_largest_tfs_that_fit_are_read(self, tmp_path):
        # the tfs sum to 2**63 - 1, so each fits int64
        path = _write(tmp_path / "index.bin", *_snapshot(tfs=[2**63 - 4, 0, 0]))
        loaded = InvertedIndex.load(path)
        assert loaded.dictionary["a"] == (array("q", [1]), array("q", [2**63 - 3]))

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

    def test_version_4_rejected_with_rebuild_hint(self, tmp_path):
        # the format 4 snapshot of ``small``: doc ids, tfs, doc-id column, norms
        body = (_column([1, 1, 2], "q") + _column([2, 1, 1], "q") + _column([1, 2], "q")
                + _column([2 * math.log(2), 0.0], "d"))
        v4 = dict(_snapshot()[0], format_version=4, body_sha256=hashlib.sha256(body).hexdigest())
        del v4["pipeline_version"]
        path = tmp_path / "index.bin"
        path.write_bytes(json.dumps(v4).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="format version 4, not 5; rebuild it.*--save-index"):
            InvertedIndex.load(str(path))

    def test_version_3_rejected_with_rebuild_hint(self, tmp_path):
        # the format 3 snapshot of ``small``: header, doc-id and tf columns
        v3 = dict(_snapshot()[0], format_version=3)
        del v3["pipeline_version"]
        path = tmp_path / "index.bin"
        path.write_bytes(json.dumps(v3).encode() + b"\n" + _column([1, 1, 2], "q")
                         + _column([2, 1, 1], "q"))
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
            # postings past the doc-id column: the first term, values near 2**64
            (_snapshot(postings=[2, 0, 0]), "term 'a': last posting at position 2 of the doc-id "
             "column, expected below n_docs 2"),
            (_snapshot(postings=[2**64 - 1, 0, 0]),
             "'a': last posting at position 18446744073709551615"),
            (_snapshot(tfs=[2**64 - 1, 0, 0]),
             r"tfs sum to 18446744073709551618, expected below 2\*\*63"),
            (_snapshot(postings=[0, 0, 1]), "term 'b': last posting at position 2 of"),
            (_snapshot(postings=[0, 0]), "body is 72 bytes, expected 80"),
            (_snapshot(terms=["b", "a"]), "term 'a'.*terms not strictly increasing"),
            (_snapshot(terms=["a", "a"]), "term 'a'.*terms not strictly increasing"),
            (_snapshot(terms=["a", 2]), "not a string"),
            (_snapshot(stoplist_sha256=None), "stoplist_sha256"),
            # a tf of 2**63 does not fit int64
            (_snapshot(tfs=[0, 0, 2**63 - 1]), r"tfs sum to 9223372036854775810, expected below"),
            # the middle term
            (_snapshot(terms=["a", "b", "c"], df=[1, 2, 1], postings=[0, 1, 0, 0], tfs=[0] * 4),
             "term 'b': last posting at position 2 of"),
            (_snapshot(doc_ids=[2, 1]), "doc id 1: doc-id column not strictly increasing"),
            (_snapshot(doc_ids=[1, 1]), "doc id 1: doc-id column not strictly increasing"),
            # 1 + (2**64 - 1) + 1 would wrap to 1 in 64 bits
            (_snapshot(postings=[0, 1, 2**64 - 1]),
             "'b': last posting at position 18446744073709551617"),
            (_snapshot(norms=[math.nan, 0.0]), "doc id 1: norm nan, expected a finite"),
            (_snapshot(norms=[1.0, math.inf]), "doc id 2: norm inf, expected a finite"),
            (_snapshot(norms=[1.0, -0.5]), "doc id 2: norm -0.5, expected a finite value >= 0"),
            (_snapshot(body_sha256="0" * 64), "body does not match its sha256"),
            (_snapshot(body_sha256=None), "body_sha256 is not a string"),
            (_snapshot(n_docs=3), "body is 80 bytes, expected 96"),
            (_snapshot(n_docs=1, terms=["a", "b", "c"], df=[1, 1, 1]),
             "body is 80 bytes, expected 64"),
            (_snapshot(n_docs=10**400), r"n_docs must be an integer from 1 to 2\*\*63 - 1"),
            (_snapshot(n_docs=2**63), r"n_docs must be an integer from 1 to 2\*\*63 - 1"),
            (_snapshot(pipeline_version=PIPELINE_VERSION + 1),
             f"text pipeline version {PIPELINE_VERSION + 1}, not {PIPELINE_VERSION}; rebuild it"),
            (_snapshot(pipeline_version=None), "text pipeline version None"),
            (_snapshot(pipeline_version=float(PIPELINE_VERSION)), "text pipeline version"),
            (_snapshot(pipeline_version=True), "text pipeline version True"),
            # a header value is echoed as its repr cut to 40 characters
            (_snapshot(format_version="v" * 100), f"format version '{'v' * 39}, not 5; rebuild"),
            (_snapshot(terms=["b", "a" * 100]), f"term '{'a' * 39}: terms not strictly"),
            (_snapshot(terms=["a" * 100, "b"], df=["x" * 100, 2]),
             f"term '{'a' * 39}: non-integer df '{'x' * 39}, expected"),
            (_snapshot(terms=["a" * 100, "b"], df=[0, 2]), f"term '{'a' * 39}: df 0 below 1"),
            (_snapshot(df=[-(10**100), 2]), f"term 'a': df -{'1' + '0' * 38} below 1"),
            (_snapshot(terms=["a" * 100, "b"], postings=[2, 0, 0]),
             f"term '{'a' * 39}: last posting at position 2"),
            # no term is in more documents than there are
            (_snapshot(n_docs=1), "term 'b': df 2 above n_docs 1, expected at most one"),
            # a df of 4,001 digits is cut to 40 characters, and the body size
            # is not checked against the postings it would count
            (_snapshot(terms=["a" * 100, "b"], df=[10**4000, 2]),
             f"^index snapshot: term '{'a' * 39}: df {'1' + '0' * 39} above n_docs 2, "
             "expected at most one posting per document$"),
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


# sparse doc ids, int64's ends among them, in any order
sparse_corpora = st.lists(
    st.tuples(
        st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), -1, 0, 2**63 - 1])),
        st.lists(st.sampled_from("abcdefgh"), max_size=8),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda doc: doc[0],
)


class TestRoundTrip:
    @given(sparse_corpora)
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_load_of_save_is_the_built_index(self, docs):
        built = build_index(docs)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "index.bin")
            built.save(path)
            loaded = InvertedIndex.load(path)
        assert loaded.n_docs == built.n_docs
        assert list(loaded.dictionary) == list(built.dictionary)
        assert loaded.dictionary == built.dictionary
        assert repr(loaded.norms) == repr(built.norms)
        for ids, tfs in loaded.dictionary.values():
            assert ids.typecode == tfs.typecode == "q"

    def test_loaded_dictionary_is_a_read_only_mapping(self, tmp_path, small):
        path = tmp_path / "index.bin"
        small.save(str(path))
        loaded = InvertedIndex.load(str(path)).dictionary
        assert len(loaded) == 2 and list(loaded) == ["a", "b"]
        assert "b" in loaded and "z" not in loaded and 1 not in loaded
        assert loaded.get("z") is None and loaded.get(1) is None
        assert loaded["b"] is loaded["b"]  # decoded once, then kept
        assert loaded != {"a": small.dictionary["a"]}
        with pytest.raises(TypeError):
            loaded["c"] = (array("q"), array("q"))


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
