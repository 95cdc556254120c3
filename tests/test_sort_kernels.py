"""Cross-checks of the vectorized kernel layer against the scalar paths.

The contract of :mod:`repro.sort.kernels` is byte-identical results: every
kernel (whole-row argsort, searchsorted merge, radix bucket finisher, the
operator and external-sort fast paths) must reproduce exactly what the
scalar row-at-a-time code produces, across mixed types, DESC keys, NULLS
FIRST/LAST, duplicate keys, and truncated VARCHAR prefixes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_sort
from test_external_kway import assert_byte_identical
from repro.errors import SortError
from repro.sort import kernels
from repro.sort.external import external_sort_table
from repro.sort.heuristic import choose_vector_path, vector_sort_rows
from repro.sort.kernels import (
    KWayBlockStats,
    argsort_rows,
    kway_merge_blocks,
    merge_indices,
    merge_matrices,
    merge_order,
    radix_argsort_rows,
    void_view,
)
from repro.sort.kway import KWayStats, cascade_merge_indices
from repro.sort.operator import SortConfig, SortOperator, sort_table
from repro.sort.radix import RadixStats, lsd_radix_argsort, msd_radix_argsort
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.datatypes import FLOAT, INTEGER, VARCHAR
from repro.types.sortspec import SortSpec


def random_matrix(rng, n, width, alphabet=256):
    """Random key matrix; a small alphabet forces many duplicate rows."""
    return rng.integers(0, alphabet, size=(n, width)).astype(np.uint8)


def row_bytes(matrix):
    return [matrix[i].tobytes() for i in range(len(matrix))]


class TestVoidView:
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 13, 21, 32])
    def test_scalar_order_is_memcmp_order(self, rng, width):
        # The sort/search kernels use the dtype's compare function, which
        # the field tuples expose directly (big-endian unsigned fields in
        # declaration order == memcmp).
        matrix = random_matrix(rng, 100, width, alphabet=4)
        view = void_view(matrix)
        raw = row_bytes(matrix)
        for i in range(0, 100, 7):
            for j in range(0, 100, 11):
                assert (view[i].item() < view[j].item()) == (raw[i] < raw[j])
                assert (view[i].item() == view[j].item()) == (raw[i] == raw[j])

    def test_no_copy_for_contiguous(self, rng):
        matrix = random_matrix(rng, 10, 8)
        assert void_view(matrix).base is matrix

    def test_rejects_bad_input(self):
        with pytest.raises(SortError):
            void_view(np.zeros((3, 4), dtype=np.int32))
        with pytest.raises(SortError):
            void_view(np.zeros(5, dtype=np.uint8))
        with pytest.raises(SortError):
            void_view(np.zeros((3, 0), dtype=np.uint8))


class TestArgsortRows:
    @pytest.mark.parametrize("width", [1, 3, 8, 13])
    @pytest.mark.parametrize("alphabet", [2, 256])
    def test_matches_stable_bytes_sort(self, rng, width, alphabet):
        matrix = random_matrix(rng, 500, width, alphabet)
        raw = row_bytes(matrix)
        expected = sorted(range(500), key=lambda i: (raw[i], i))
        assert argsort_rows(matrix).tolist() == expected

    def test_stability_on_duplicates(self, rng):
        matrix = np.zeros((64, 5), dtype=np.uint8)  # all rows identical
        assert argsort_rows(matrix).tolist() == list(range(64))


class TestMergeIndices:
    @pytest.mark.parametrize("width", [1, 4, 9, 13])
    @pytest.mark.parametrize("sizes", [(0, 5), (5, 0), (1, 1), (200, 317)])
    def test_matches_scalar_merge(self, rng, width, sizes):
        n, m = sizes
        a = random_matrix(rng, n, width, alphabet=3)
        b = random_matrix(rng, m, width, alphabet=3)
        a = a[argsort_rows(a)] if n else a
        b = b[argsort_rows(b)] if m else b
        perm = merge_indices(a, b)
        combined = row_bytes(a) + row_bytes(b)
        merged = [combined[i] for i in perm]
        assert merged == sorted(combined)
        # Stability: on ties, left-run rows must come first.
        seen_right_for: dict[bytes, bool] = {}
        for position, source in enumerate(perm):
            key = merged[position]
            if source >= n:
                seen_right_for[key] = True
            else:
                assert not seen_right_for.get(key, False), (
                    f"left row after right row for duplicate key {key!r}"
                )

    def test_merge_matrices_gathers(self, rng):
        a = random_matrix(rng, 50, 6)
        b = random_matrix(rng, 70, 6)
        a, b = a[argsort_rows(a)], b[argsort_rows(b)]
        merged, perm = merge_matrices(a, b)
        assert merged.tobytes() == np.concatenate([a, b])[perm].tobytes()

    def test_width_mismatch_raises(self):
        with pytest.raises(SortError):
            merge_indices(
                np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8)
            )


def sorted_runs_columns(runs, words):
    """Word columns of the concatenation of individually sorted runs."""
    parts = []
    for run in runs:
        matrix = np.asarray(run, dtype=np.uint64).reshape(-1, words)
        if len(matrix):
            matrix = matrix[np.lexsort(matrix.T[::-1])]
        parts.append(matrix)
    stacked = np.concatenate(parts or [np.empty((0, words), np.uint64)])
    return [np.ascontiguousarray(stacked[:, word]) for word in range(words)]


def lexsort_columns(columns):
    return np.lexsort(tuple(reversed(columns))).tolist()


word_runs = st.integers(1, 3).flatmap(
    lambda words: st.tuples(
        st.just(words),
        st.sampled_from([2, 5, 1 << 64]).flatmap(
            lambda alphabet: st.lists(
                st.lists(
                    st.tuples(*[st.integers(0, alphabet - 1)] * words),
                    max_size=12,
                ),
                max_size=5,
            )
        ),
    )
)


class TestMergeOrder:
    @settings(max_examples=200, deadline=None)
    @given(word_runs)
    def test_matches_lexsort_on_sorted_runs(self, case):
        words, runs = case
        columns = sorted_runs_columns(runs, words)
        assert merge_order(columns).tolist() == lexsort_columns(columns)

    @pytest.mark.parametrize(
        "lead",
        [
            pytest.param([7] * 6, id="all-tied-on-lead"),
            pytest.param([0, 1, 2, 3, 4, 5], id="no-ties"),
            pytest.param([3, 3, 1, 4, 4, 4], id="mixed-ties"),
        ],
    )
    def test_tie_shapes(self, lead):
        # Two runs of three rows each; the second word decides ties and
        # its equal values must keep run order.
        second = [2, 1, 1, 2, 1, 2]
        rows = list(zip(lead, second))
        columns = sorted_runs_columns([rows[:3], rows[3:]], 2)
        assert merge_order(columns).tolist() == lexsort_columns(columns)

    @pytest.mark.parametrize("groups", [300, 70_000])
    def test_many_tie_groups(self, rng, groups):
        # Past 255 / 65535 groups the tie-group ids need wider dtypes.
        lead = np.repeat(np.arange(groups, dtype=np.uint64), 2)
        runs = [
            list(zip(lead, rng.integers(0, 4, len(lead), dtype=np.uint64)))
            for _ in range(2)
        ]
        columns = sorted_runs_columns(runs, 2)
        assert merge_order(columns).tolist() == lexsort_columns(columns)

    def test_single_word(self):
        columns = sorted_runs_columns([[(5,), (9,)], [(1,), (5,), (9,)]], 1)
        assert merge_order(columns).tolist() == [2, 0, 3, 1, 4]

    def test_single_row_and_empty(self):
        one = [np.array([4], dtype=np.uint64), np.array([1], dtype=np.uint64)]
        assert merge_order(one).tolist() == [0]
        empty = [np.empty(0, dtype=np.uint64)] * 2
        assert merge_order(empty).tolist() == []
        assert merge_order(empty).dtype == np.int64

    def test_ties_resolve_to_earlier_run(self):
        columns = sorted_runs_columns([[(1, 1)] * 3, [(1, 1)] * 2], 2)
        assert merge_order(columns).tolist() == [0, 1, 2, 3, 4]


class TestKWayMergeBlocksMatchesArgsort:
    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 5),
        width=st.sampled_from([1, 3, 8, 9, 13, 20]),
        alphabet=st.sampled_from([2, 3, 256]),
        block_rows=st.integers(1, 7),
        use_ovc=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_argsort_of_concatenation(
        self, k, width, alphabet, block_rows, use_ovc, seed
    ):
        # Small blocks over a small alphabet split tie groups across
        # rounds, so the cutoff-owner stability rule is exercised.
        rng = np.random.default_rng(seed)
        runs = []
        for _ in range(k):
            rows = int(rng.integers(0, 25))
            matrix = random_matrix(rng, rows, width, alphabet)
            runs.append(matrix[argsort_rows(matrix)] if rows else matrix)
        offsets = np.cumsum([0] + [len(run) for run in runs])

        def blocks(matrix):
            for start in range(0, len(matrix), block_rows):
                yield matrix[start : start + block_rows]

        order, keys = [], []
        for run_ids, row_ids, words in kway_merge_blocks(
            [blocks(run) for run in runs], use_ovc=use_ovc, emit_keys=True
        ):
            order.extend((offsets[run_ids] + row_ids).tolist())
            keys.append(words)
        everything = np.concatenate(runs)
        if not len(everything):
            assert order == []
            return
        expected = argsort_rows(everything)
        assert order == expected.tolist()
        # The emitted key words are the merged rows themselves.
        words = np.stack(kernels._chunk_columns(everything[expected]), axis=1)
        assert np.array_equal(np.concatenate(keys), words)


class TestCascadeMergeIndices:
    def test_matches_global_sort(self, rng):
        runs = []
        for _ in range(7):  # odd count exercises the bye run
            matrix = random_matrix(rng, int(rng.integers(0, 80)), 5, alphabet=4)
            runs.append(matrix[argsort_rows(matrix)] if len(matrix) else matrix)
        stats = KWayStats()
        run_ids, row_ids = cascade_merge_indices(runs, stats)
        merged = [runs[r][p].tobytes() for r, p in zip(run_ids, row_ids)]
        everything = [row for run in runs for row in row_bytes(run)]
        assert merged == sorted(everything)
        assert stats.rounds >= 3
        assert len(run_ids) == len(everything)

    def test_tie_breaks_prefer_earlier_run(self):
        run_a = np.full((3, 2), 7, dtype=np.uint8)
        run_b = np.full((2, 2), 7, dtype=np.uint8)
        run_ids, row_ids = cascade_merge_indices([run_a, run_b])
        assert run_ids.tolist() == [0, 0, 0, 1, 1]
        assert row_ids.tolist() == [0, 1, 2, 0, 1]

    def test_empty(self):
        run_ids, row_ids = cascade_merge_indices([])
        assert len(run_ids) == 0 and len(row_ids) == 0


class TestRadixVectorFinish:
    @pytest.mark.parametrize("width", [5, 9, 16])
    def test_msd_vector_finish_identical(self, rng, width):
        matrix = random_matrix(rng, 800, width, alphabet=3)
        scalar = msd_radix_argsort(matrix.copy())
        stats = RadixStats()
        vectorized = msd_radix_argsort(matrix.copy(), stats, vector_threshold=128)
        assert vectorized.tolist() == scalar.tolist()
        assert stats.vector_finished_buckets > 0

    def test_lsd_skip_copy_without_gather(self, rng):
        # Middle byte constant: its pass must be skipped, result unchanged.
        matrix = random_matrix(rng, 300, 3)
        matrix[:, 1] = 42
        stats = RadixStats()
        order = lsd_radix_argsort(matrix, stats)
        raw = row_bytes(matrix)
        assert [raw[i] for i in order] == sorted(raw)
        assert stats.skipped_passes == 1
        assert stats.passes == 3


MIXED_SPECS = [
    "i ASC NULLS FIRST",
    "i DESC NULLS LAST, f ASC",
    "s DESC NULLS FIRST, i ASC NULLS LAST",
    "f DESC, s ASC, i DESC",
]


class TestOperatorCrossCheck:
    """The operator must be byte-identical to the reference end to end."""

    def _cross_check(self, table, spec, run_threshold):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
        result = sort_table(
            table, spec, SortConfig(run_threshold=run_threshold, vector_size=16)
        )
        assert_byte_identical(reference_sort(table, spec), result)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-5, 5)),
                st.one_of(st.none(), st.floats(allow_nan=False, width=32)),
                st.one_of(st.none(), st.text(alphabet="abXY", max_size=5)),
            ),
            max_size=60,
        ),
        spec_text=st.sampled_from(MIXED_SPECS),
        run_threshold=st.sampled_from([8, 64, 1 << 17]),
    )
    def test_mixed_types_nulls_desc(self, rows, spec_text, run_threshold):
        table = Table.from_pydict(
            {
                "i": [r[0] for r in rows],
                "f": [r[1] for r in rows],
                "s": [r[2] for r in rows],
            },
            dtypes={"i": INTEGER, "f": FLOAT, "s": VARCHAR},
        )
        self._cross_check(table, spec_text, run_threshold)

    def test_truncated_varchar_prefixes(self, rng):
        # Strings sharing a >12-byte prefix leave the key bytes inexact;
        # the string repair must still reproduce the reference order.
        values = [f"{'common-prefix-x'}{int(i):04d}" for i in rng.integers(0, 40, 400)]
        table = Table.from_pydict({"s": values, "seq": list(range(400))})
        self._cross_check(table, "s DESC, seq", 64)

    def test_duplicate_keys_stability(self):
        n = 400
        table = Table.from_pydict({"k": [3] * n, "seq": list(range(n))})
        result = sort_table(table, "k", SortConfig(run_threshold=32))
        assert result.column("seq").to_pylist() == list(range(n))

    def test_inexact_prefix_stays_on_kernel_path(self):
        # Strings tying beyond the 12-byte prefix are repaired by
        # re-sorting the tie groups on the full strings.
        values = [f"{'y' * 13}{i:03d}" for i in range(300)]
        table = Table.from_pydict({"s": values})
        op = SortOperator(table.schema, SortSpec.of("s"), SortConfig(run_threshold=64))
        for chunk in chunk_table(table, 32):
            op.sink(chunk)
        result = op.finalize()
        assert op.stats.full_key_compares > 0
        assert result.column("s").to_pylist() == sorted(values)


class TestExternalCrossCheck:
    def test_integers(self, rng, tmp_path):
        table = Table.from_numpy(
            {
                "a": rng.integers(0, 50, 2000).astype(np.int64),
                "b": rng.integers(0, 10, 2000).astype(np.int32),
            }
        )
        spec = SortSpec.of("a DESC", "b")
        result = external_sort_table(
            table, spec, SortConfig(run_threshold=256), str(tmp_path)
        )
        assert_byte_identical(reference_sort(table, spec), result)

    def test_strings(self, rng, tmp_path):
        words = ["pear", "fig", "apple", "kiwi", "plum", None, "date"]
        values = [words[i] for i in rng.integers(0, len(words), 900)]
        table = Table.from_pydict({"s": values, "seq": list(range(900))})
        spec = SortSpec.of("s NULLS FIRST", "seq")
        result = external_sort_table(
            table, spec, SortConfig(run_threshold=128), str(tmp_path)
        )
        assert_byte_identical(reference_sort(table, spec), result)


class TestChunkColumns:
    def test_word_columns_share_one_buffer(self, rng):
        # The rewrite pads/byteswaps/transposes the whole matrix at most
        # three times total; the per-word columns are views of one buffer,
        # never per-word temporaries.
        matrix = random_matrix(rng, 100, 13)
        columns = kernels._chunk_columns(matrix)
        assert len(columns) == 2
        base = columns[0].base
        assert base is not None
        assert all(column.base is base for column in columns)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 21])
    def test_order_matches_memcmp(self, rng, width):
        matrix = random_matrix(rng, 200, width, alphabet=4)
        columns = kernels._chunk_columns(matrix)
        raw = row_bytes(matrix)
        key = lambda i: tuple(int(col[i]) for col in columns)
        for i in range(0, 200, 13):
            for j in range(0, 200, 17):
                assert (key(i) < key(j)) == (raw[i] < raw[j])

    def test_kway_merge_chunks_once_per_refill(self, rng, monkeypatch):
        # Regression: the k-way merge must re-chunk a run's keys exactly
        # once per block refill, never once per emitted round (the old
        # zero-pad-per-call pattern made every chunking a full-matrix
        # copy, so per-round re-chunking was quadratic).
        runs = []
        for _ in range(4):
            matrix = random_matrix(rng, 600, 13, alphabet=5)
            runs.append(matrix[argsort_rows(matrix)])
        block_rows = 50
        blocks_fed = sum(-(-len(run) // block_rows) for run in runs)

        calls = []
        original = kernels._chunk_columns
        monkeypatch.setattr(
            kernels,
            "_chunk_columns",
            lambda matrix: calls.append(len(matrix)) or original(matrix),
        )

        def block_iter(matrix):
            for start in range(0, len(matrix), block_rows):
                yield matrix[start : start + block_rows]

        stats = KWayBlockStats()
        emitted = [
            (run_ids, row_ids)
            for run_ids, row_ids in kway_merge_blocks(
                [block_iter(run) for run in runs], stats
            )
        ]
        merged = [
            runs[r][p].tobytes() for ids, rows in emitted for r, p in zip(ids, rows)
        ]
        assert merged == sorted(b for run in runs for b in row_bytes(run))
        # One chunking per refilled block -- and every call covered at most
        # one block, never a whole run's matrix.
        assert len(calls) == stats.refills == blocks_fed
        assert stats.rounds > len(runs)  # merge genuinely ran many rounds
        assert max(calls) <= block_rows


class TestRadixArgsortRows:
    @pytest.mark.parametrize("width", [9, 13, 16])
    @pytest.mark.parametrize("alphabet", [2, 5, 256])
    def test_matches_argsort_rows(self, rng, width, alphabet):
        matrix = random_matrix(rng, 3000, width, alphabet)
        assert (
            radix_argsort_rows(matrix).tolist()
            == argsort_rows(matrix).tolist()
        )

    def test_stability_and_constant_prefix(self, rng):
        matrix = random_matrix(rng, 2500, 12, alphabet=3)
        matrix[:, :6] = 77  # constant prefix: single-bucket skip path
        assert (
            radix_argsort_rows(matrix).tolist()
            == argsort_rows(matrix).tolist()
        )

    def test_records_stats(self, rng):
        matrix = random_matrix(rng, 5000, 10)
        stats = RadixStats()
        radix_argsort_rows(matrix, stats)
        assert stats.vector_finished_buckets > 0
        assert stats.rows_moved > 0

    def test_small_input_and_empty(self, rng):
        small = random_matrix(rng, 7, 10)
        assert radix_argsort_rows(small).tolist() == argsort_rows(small).tolist()
        empty = np.zeros((0, 10), dtype=np.uint8)
        assert radix_argsort_rows(empty).tolist() == []


class TestVectorPathHeuristic:
    def test_narrow_keys_use_single_word_argsort(self, rng):
        matrix = random_matrix(rng, 10000, 6)
        assert choose_vector_path(matrix, 6) == ("argsort-1word", "single-word")

    def test_few_rows_use_lexsort(self, rng):
        matrix = random_matrix(rng, 100, 16)
        assert choose_vector_path(matrix, 16) == ("lexsort", "few-rows")

    def test_skewed_leading_byte_uses_lexsort(self, rng):
        matrix = random_matrix(rng, 10000, 16)
        matrix[:, 0] = 9  # every sampled leading byte identical
        assert choose_vector_path(matrix, 16) == (
            "lexsort",
            "skewed-leading-byte",
        )

    def test_wide_uniform_keys_use_radix(self, rng):
        matrix = random_matrix(rng, 10000, 16)
        assert choose_vector_path(matrix, 16) == ("radix", "wide-keys")

    @pytest.mark.parametrize("shape", [(100, 16), (6000, 6), (6000, 16)])
    def test_dispatch_is_permutation_identical(self, rng, shape):
        n, width = shape
        matrix = random_matrix(rng, n, width, alphabet=7)
        assert (
            vector_sort_rows(matrix, width).tolist()
            == argsort_rows(matrix).tolist()
        )
