import csv
import decimal
import itertools
import math
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annotate_reference as reference
from annotate_reference import kappa_tallies, matrix_from_rows, rows_of

from stresskit.annotate import (
    AnnotationMatrix,
    aggregate,
    annotator_correlation,
    binarize_scores,
    detect_outliers,
    exclude_annotators,
    fleiss_kappa,
    load_annotations,
    load_weights,
    outlier_rates,
    weighted_consensus,
)
from stresskit.errors import StressKitError


def item_flags(matrix):
    """detect_outliers' flags, turned from one list per annotator to one per item."""
    return [list(flags) for flags in zip(*detect_outliers(matrix))]


# ---------------------------------------------------------------- outliers

def test_unanimous_item_has_no_flags():
    assert item_flags(matrix_from_rows([[5, 5, 5]])) == [[False, False, False]]


def test_hand_example_five_five_minus_five():
    # population std of {5,5,-5} is ~4.714; every judgment deviates further
    # from the leave-one-out mean than that, so all three are flagged
    assert item_flags(matrix_from_rows([[5, 5, -5]])) == [[True, True, True]]


def test_moderate_disagreement_flags_only_the_deviant():
    flags = item_flags(matrix_from_rows([[2, 2, 2, 2, -4]]))
    assert flags == [[False, False, False, False, True]]


def test_exact_rule_flags_as_the_float_rule_on_every_multiset_of_up_to_seven_scores():
    # 31,812 items, NaN-padded to 7 columns: many sit exactly on the boundary
    # |x - leave-one-out mean| = std, where the reference's float rule decides
    rows = [list(scores) + [None] * (7 - k) for k in range(2, 8)
            for scores in itertools.combinations_with_replacement(range(-5, 6), k)]
    assert len(rows) == 31_812
    matrix = matrix_from_rows(rows)
    sheet = reference.Sheet(matrix.item_ids, matrix.annotator_ids, matrix.weights,
                            tuple(map(tuple, rows)))
    assert item_flags(matrix) == reference.detect_outliers(sheet)


def test_single_score_item_rejected():
    with pytest.raises(StressKitError, match=re.escape("'item0' has 1 score(s); need at least 2")):
        detect_outliers(matrix_from_rows([[3, None, None]]))


def test_missing_scores_ignored_in_rule():
    flags = item_flags(matrix_from_rows([[5, 5, -5, None]]))
    assert flags[0][:3] == [True, True, True] and flags[0][3] is False


@given(st.integers(-1, 1), st.lists(st.integers(-4, 4), min_size=2, max_size=6))
def test_flags_invariant_under_constant_shift(shift, scores):
    base = matrix_from_rows([scores])
    shifted_scores = [max(-5, min(5, s + shift)) for s in scores]
    if any(s + shift != t for s, t in zip(scores, shifted_scores)):
        return  # clamped at the scale edge; shift no longer constant
    shifted = matrix_from_rows([shifted_scores])
    assert item_flags(base) == item_flags(shifted)


# --------------------------------------------------------------- exclusion

def synthetic_flags(n_items, flagged):
    """Two annotators on n_items items, and outlier flags, one list per
    annotator, that mark the first on `flagged` of them."""
    matrix = matrix_from_rows([[1, 1]] * n_items)
    return matrix, [[j < flagged for j in range(n_items)], [False] * n_items]


def test_annotator_at_41_percent_excluded():
    matrix, flags = synthetic_flags(100, 41)
    rates = outlier_rates(matrix, flags)
    assert rates["a0"] == pytest.approx(0.41)
    kept = exclude_annotators(matrix, rates, 0.40)
    assert kept.annotator_ids == ("a1",)


def test_annotator_at_39_percent_retained():
    matrix, flags = synthetic_flags(100, 39)
    kept = exclude_annotators(matrix, outlier_rates(matrix, flags), 0.40)
    assert kept.annotator_ids == ("a0", "a1")


def test_exclusion_boundary_is_inclusive():
    matrix, flags = synthetic_flags(10, 4)
    kept = exclude_annotators(matrix, outlier_rates(matrix, flags), 0.40)
    assert kept.annotator_ids == ("a1",)  # rate 0.40 >= threshold


def test_all_excluded_raises():
    matrix = matrix_from_rows([[1, 1] for _ in range(4)])
    flags = [[True] * 4, [True] * 4]
    with pytest.raises(StressKitError, match="every annotator is at or above the outlier threshold"):
        exclude_annotators(matrix, outlier_rates(matrix, flags), 0.40)


def test_threshold_one_keeps_partially_flagged():
    matrix, flags = synthetic_flags(10, 9)
    kept = exclude_annotators(matrix, outlier_rates(matrix, flags), 1.0)
    assert kept.annotator_ids == ("a0", "a1")


def test_exclusion_via_real_outlier_pipeline():
    # 41 items where the last annotator flips far away, 59 in agreement:
    # their genuine outlier rate lands at exactly 41%
    rows = [[2, 2, 2, 2, -4] for _ in range(41)] + [[2, 2, 2, 2, 2] for _ in range(59)]
    matrix = matrix_from_rows(rows)
    flags = detect_outliers(matrix)
    rates = outlier_rates(matrix, flags)
    assert rates["a4"] == pytest.approx(0.41)
    assert all(rates[f"a{i}"] == 0.0 for i in range(4))
    result = aggregate(matrix, threshold=0.40)
    assert result.excluded == (("a4", 0.41),)


# --------------------------------------------------------------- consensus

def test_weighted_consensus_hand_example():
    matrix = matrix_from_rows([[-4, 1]], weights=(2.0, 1.0))
    result = weighted_consensus(matrix)
    assert result.means[0] == pytest.approx(-7 / 3, abs=1e-12)
    assert result.labels[0] == 1


def test_consensus_zero_is_not_stressed():
    result = weighted_consensus(matrix_from_rows([[0, 0, 0]]))
    assert result.means[0] == 0.0 and result.labels[0] == 0


def test_consensus_single_positive_score():
    result = weighted_consensus(matrix_from_rows([[3, None]]))
    assert result.means[0] == 3.0 and result.labels[0] == 0


def test_consensus_empty_item_rejected():
    with pytest.raises(StressKitError, match="'item0' has no scores"):
        weighted_consensus(matrix_from_rows([[None, None]]))


def test_consensus_mean_within_score_range():
    matrix = matrix_from_rows([[-3, 1, 4]], weights=(1.0, 2.5, 0.5))
    result = weighted_consensus(matrix)
    assert -3 <= result.means[0] <= 4


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_equal_weights_reduce_to_arithmetic_mean(scores):
    matrix = matrix_from_rows([scores])
    result = weighted_consensus(matrix)
    assert result.means[0] == pytest.approx(sum(scores) / len(scores), abs=1e-12)


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=5),
    st.floats(min_value=0.5, max_value=4.0),
)
def test_scaling_weights_leaves_consensus_unchanged(scores, factor):
    weights = tuple(1.0 + i for i in range(len(scores)))
    a = weighted_consensus(matrix_from_rows([scores], weights=weights))
    b = weighted_consensus(
        matrix_from_rows([scores], weights=tuple(w * factor for w in weights))
    )
    assert a.means[0] == pytest.approx(b.means[0], abs=1e-12)


# ------------------------------------------------------------------- kappa

def test_kappa_perfect_agreement():
    rows = [[0, 0, 0], [1, 1, 1], [0, 0, 0], [1, 1, 1]]
    assert fleiss_kappa(kappa_tallies(rows)) == pytest.approx(1.0)


def test_kappa_hand_table():
    # items x 3 raters, 2 categories; per-item counts (3,0),(2,1),(1,2),(0,3)
    # P_bar = 2/3, Pe = 1/2, kappa = 1/3
    rows = [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]]
    assert fleiss_kappa(kappa_tallies(rows)) == pytest.approx(1 / 3, abs=1e-9)


def test_kappa_degenerate_single_category():
    rows = [[0, 0], [0, 0]]
    assert fleiss_kappa(kappa_tallies(rows)) == 1.0


def test_kappa_drops_unbalanced_items():
    rows = [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1], [1, None, None]]
    assert fleiss_kappa(kappa_tallies(rows)) == pytest.approx(1 / 3, abs=1e-9)


def test_kappa_no_valid_items():
    with pytest.raises(StressKitError, match="no item carries at least 2 ratings"):
        fleiss_kappa(kappa_tallies([[0, None], [None, 1]]))


@given(st.lists(st.lists(st.sampled_from([0, 1, None]), min_size=3, max_size=3),
                min_size=2, max_size=8))
def test_kappa_invariant_under_category_relabeling(rows):
    swapped = [[None if r is None else 1 - r for r in row] for row in rows]
    assert outcome(lambda: fleiss_kappa(kappa_tallies(rows))) == outcome(
        lambda: fleiss_kappa(kappa_tallies(swapped)))


# ------------------------------------------------------------- correlation

def test_correlation_identical_and_negated():
    rows = [[1, 1, -1], [3, 3, -3], [-2, -2, 2], [5, 5, -5]]
    matrix = matrix_from_rows(rows)
    corr = annotator_correlation(matrix)
    assert corr[0][1] == pytest.approx(1.0)
    assert corr[0][2] == pytest.approx(-1.0)
    assert all(corr[i][i] == 1.0 for i in range(3))


def test_correlation_hand_pair():
    xs = [1, 2, 3, 4, 5]
    ys = [2, 2, 4, 4, 5]
    matrix = matrix_from_rows([[x, y] for x, y in zip(xs, ys)])
    expected = float(np.corrcoef(xs, ys)[0, 1])
    assert annotator_correlation(matrix)[0][1] == pytest.approx(expected, abs=1e-12)


def test_correlation_is_exact_where_corrcoef_rounds():
    # n = 3, sums -14 and -14, squares 66 and 66, products 65: r = -1 / sqrt(2 * 2),
    # where np.corrcoef gives -0.4999999999999999
    matrix = matrix_from_rows([[-5, -5], [-5, -4], [-4, -5]])
    assert annotator_correlation(matrix)[0][1] == -0.5


def test_correlation_insufficient_overlap_is_nan():
    rows = [[1, None], [2, None], [3, 3], [4, 4]]
    corr = annotator_correlation(matrix_from_rows(rows))
    assert corr[0][1] is None and corr[1][0] is None


# ------------------------------------------------------- reference oracle

def outcome(compute):
    """What a step gives: ("ok", value), or ("error", the error's message)."""
    try:
        return "ok", compute()
    except StressKitError as exc:
        return "error", str(exc)


def assert_same_consensus_and_kappa(matrix, sheet):
    """weighted_consensus (means to the bit) and kappa equal the reference's,
    or both fail naming the same item; True iff the consensus succeeded."""
    consensus = outcome(lambda: weighted_consensus(matrix))
    expected = outcome(lambda: reference.weighted_consensus(sheet))
    if consensus[0] == "ok":
        result = consensus[1]
        consensus = "ok", ([m.hex() for m in result.means], list(result.labels),
                           list(result.n_scores))
        expected = "ok", ([m.hex() for m in expected[1][0]], *expected[1][1:])
    assert consensus == expected
    assert binarize_scores(matrix) == kappa_tallies(reference.binarize_scores(sheet))
    kappa = outcome(lambda: fleiss_kappa(binarize_scores(matrix)))
    assert kappa == outcome(lambda: reference.fleiss_kappa(reference.binarize_scores(sheet)))
    return consensus[0] == "ok"


def assert_matches_reference(rows, weights, threshold):
    """Every aggregation step equals the per-item loop version in annotate_reference:
    flags, rates, kept annotators, consensus and kappa with and without the
    exclusion, and correlations; or both fail with the same error, naming
    the same item. Returns how many annotators the consensus kept (0 after
    an error)."""
    matrix = matrix_from_rows(rows, weights=weights)
    sheet = reference.Sheet(matrix.item_ids, matrix.annotator_ids, matrix.weights,
                            tuple(tuple(row) for row in rows))
    assert annotator_correlation(matrix) == reference.annotator_correlation(sheet)
    assert_same_consensus_and_kappa(matrix, sheet)
    flags = outcome(lambda: item_flags(matrix))
    assert flags == outcome(lambda: reference.detect_outliers(sheet))
    if flags[0] != "ok":
        return 0
    rates = outlier_rates(matrix, detect_outliers(matrix))
    assert rates == reference.outlier_rates(sheet, flags[1])
    kept = outcome(lambda: exclude_annotators(matrix, rates, threshold))
    kept_sheet = outcome(lambda: reference.exclude_annotators(sheet, rates, threshold))
    assert kept[0] == kept_sheet[0]
    if kept[0] != "ok":
        return 0
    kept, kept_sheet = kept[1], kept_sheet[1]
    assert kept.annotator_ids == kept_sheet.annotator_ids
    return kept.n_annotators if assert_same_consensus_and_kappa(kept, kept_sheet) else 0


@st.composite
def sheets(draw):
    k = draw(st.integers(2, 12))
    cell = st.sampled_from([None, *range(-5, 6)])
    rows = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=25))
    weights = draw(st.lists(st.floats(0.05, 20.0), min_size=k, max_size=k))
    return rows, tuple(weights), draw(st.floats(0.05, 1.0))


@settings(deadline=None, max_examples=300)
@given(sheets())
def test_aggregation_matches_the_loop_reference(sheet):
    assert_matches_reference(*sheet)


# Score cells as a sheet may spell them, with the score each one reads as.
SPELLINGS = {**{str(v): v for v in range(-5, 6)},
             "": None, " ": None, "+3": 3, " 3": 3, "03": 3, "-0": 0, "+0": 0, " -5 ": -5}


@st.composite
def repetitive_sheets(draw):
    """Up to 60 items whose cells repeat a pool of at most 5 rows of spellings:
    many items share a row, and spellings such as "3" and "+3" share a score."""
    k = draw(st.integers(2, 7))
    spelling = st.sampled_from(sorted(SPELLINGS))
    pool = draw(st.lists(st.lists(spelling, min_size=k, max_size=k), min_size=1, max_size=5))
    cells = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    weights = draw(st.lists(st.floats(0.05, 20.0), min_size=k, max_size=k))
    return cells, tuple(weights), draw(st.floats(0.05, 1.0))


@settings(deadline=None, max_examples=200)
@given(repetitive_sheets())
def test_sheets_of_repeated_rows_match_the_loop_reference(sheet):
    cells, weights, threshold = sheet
    annotators = [f"a{i}" for i in range(len(weights))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sheet.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(
                [["item_id", "text", *annotators],
                 *([f"x{j}", "t", *row] for j, row in enumerate(cells))])
        matrix = load_annotations(path, dict(zip(annotators, weights)))
    rows = [[SPELLINGS[c] for c in row] for row in cells]
    assert rows_of(matrix) == tuple(map(tuple, rows)) and matrix.weights == weights
    assert_matches_reference(rows, weights, threshold)


def exact_pearson(xs, ys):
    """Pearson's r of two integer lists, from their tallies in 50-digit decimals."""
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    spread_x = n * sum(x * x for x in xs) - sx * sx
    spread_y = n * sum(y * y for y in ys) - sy * sy
    if spread_x == 0 or spread_y == 0:
        return math.nan
    with decimal.localcontext(decimal.Context(prec=50)):
        covariance = decimal.Decimal(n * sum(x * y for x, y in zip(xs, ys)) - sx * sy)
        return float(covariance / (decimal.Decimal(spread_x) * spread_y).sqrt())


@settings(deadline=None, max_examples=300)
@given(sheets())
def test_correlation_is_within_two_ulps_of_the_exact_value(sheet):
    rows = sheet[0]
    corr = annotator_correlation(matrix_from_rows(rows))
    for a, b in itertools.combinations(range(len(rows[0])), 2):
        pairs = [(row[a], row[b]) for row in rows if None not in (row[a], row[b])]
        exact = exact_pearson(*zip(*pairs)) if len(pairs) >= 3 else math.nan
        if math.isnan(exact):
            assert corr[a][b] is None
        else:
            assert abs(corr[a][b] - exact) <= 2 * math.ulp(exact)


def test_aggregation_matches_the_loop_reference_with_nine_annotators():
    # From 8 columns up numpy's row sums pair their terms; the consensus must
    # still add in annotator order. In each permutation of the tie row,
    # |score - leave-one-out mean| equals the std exactly for every -5.
    rng = random.Random(11)
    tie = [-5, -5, -5, -5, -2, 1, 4, 5]
    rows = []
    for j in range(3000):
        if j % 10 == 0:
            rows.append(rng.sample(tie, len(tie)) + [None])
            continue
        base = rng.randint(-5, 5)
        row = [max(-5, min(5, base + rng.choice((-1, 0, 0, 1)))) for _ in range(8)]
        rows.append([None if rng.random() < 0.05 else s for s in row] + [rng.randint(-5, 5)])
    weights = (0.7, 1.3, 2.9, 0.45, 1.0, 3.3, 0.15, 2.2, 1.75)
    assert assert_matches_reference(rows, weights, 1.0) == 9
    assert assert_matches_reference(rows, weights, 0.40) == 8  # the random annotator goes


def test_too_few_scores_and_empty_item_name_the_first_item_at_fault():
    rows = [[1, 2, 3], [None, 4, None], [None, None, None]]
    with pytest.raises(StressKitError, match="'item1' has 1 score"):
        detect_outliers(matrix_from_rows(rows))
    rows = [[1, 2, 3], [None, 4, None], [1, 2, 3], [None, 4, None]]
    with pytest.raises(StressKitError, match="'item1' has 1 score"):
        detect_outliers(matrix_from_rows(rows))
    rows = [[1, 2, 3], [None, None, None], [None, None, None]]
    with pytest.raises(StressKitError, match="'item1' has no scores"):
        weighted_consensus(matrix_from_rows(rows))


# ----------------------------------------------------------------- loaders

def test_load_annotations_and_weights(write_csv):
    sheet = write_csv(
        [
            ["item_id", "text", "a1", "a2", "psy"],
            ["x1", "some text", "3", "", "-5"],
            ["x2", "other", "0", "1", "2"],
        ],
        name="sheet.csv",
    )
    weights_file = write_csv(
        [["annotator_id", "weight"], ["psy", "2.0"]], name="weights.csv"
    )
    weights = load_weights(weights_file)
    matrix = load_annotations(sheet, weights)
    assert matrix.annotator_ids == ("a1", "a2", "psy")
    assert matrix.weights == (1.0, 1.0, 2.0)
    assert rows_of(matrix)[0] == (3, None, -5)
    assert rows_of(matrix) == ((3, None, -5), (0, 1, 2))
    assert matrix.codes == (b"\x09\x06", b"\x00\x07", b"\x01\x08")  # a column per annotator


@pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
def test_matrix_rejects_weight_that_is_not_finite_and_positive(weight):
    with pytest.raises(ValueError, match="finite and positive"):
        matrix_from_rows([[1, 2]], weights=(1.0, weight))


@pytest.mark.parametrize("cell", ["2.5", "-0.5", "6.0", "-inf"])
def test_load_annotations_rejects_a_score_that_is_not_an_integer_in_range(write_csv, cell):
    sheet = write_csv([["item_id", "text", "a1", "a2"], ["x1", "t", "1", cell]], name="cell.csv")
    reason = f"line 2: score {cell!r} for 'a2' is not an integer"
    with pytest.raises(StressKitError, match=re.escape(reason)) as err:
        load_annotations(sheet)
    assert str(sheet) in str(err.value)


def test_matrix_rejects_more_annotators_than_its_item_counts_hold():
    ids = tuple(f"a{i}" for i in range(1 << 16))
    with pytest.raises(ValueError, match="65536 annotators; at most 65535"):
        AnnotationMatrix(("x1",), ids, (1.0,) * len(ids), [b"\x06"] * len(ids))


@pytest.mark.parametrize("codes", [[b"\x01\x02"], [b"\x01\x02"] * 3, [b"\x01\x02", b"\x03"],
                                   [b"\x01\x02", b"\x03\x04\x05"], [b"\x01\x02", b"\x03\x0c"],
                                   [b"\xff\x02", b"\x03\x04"]],
                         ids=["one-column", "three-columns", "short-column", "long-column",
                              "byte-12", "byte-255"])
def test_matrix_rejects_columns_that_do_not_fit_its_items_and_annotators(codes):
    with pytest.raises(ValueError, match=re.escape("need 2 of 2 bytes, each in 0-11")):
        AnnotationMatrix(("x1", "x2"), ("a1", "a2"), (1.0, 1.0), codes)


def test_matrix_takes_every_byte_from_0_to_11():
    matrix = AnnotationMatrix(tuple(f"x{j}" for j in range(12)), ("a1",), (1.0,),
                              [bytes(range(12))])
    assert rows_of(matrix) == ((None,), *((s,) for s in range(-5, 6)))


def test_matrix_copies_the_score_array_it_is_given():
    codes = [bytearray([6, 7]), bytearray([2, 0])]
    matrix = AnnotationMatrix(("x1", "x2"), ("a1", "a2"), (1.0, 1.0), codes)
    codes[0][0] = 10
    assert codes[0] == bytearray([10, 7])
    assert rows_of(matrix) == ((0, -4), (1, None))
    assert all(type(column) is bytes for column in matrix.codes)  # columns that cannot change


@pytest.mark.parametrize("cell", ["0", "-1", "nan", "inf", "-inf", "x", ""])
def test_load_weights_rejects_weight_that_is_not_finite_and_positive(write_csv, cell):
    path = write_csv([["annotator_id", "weight"], ["a1", "2.0"], ["a2", cell]],
                     name="weights.csv")
    with pytest.raises(StressKitError, match="line 3: bad weight") as err:
        load_weights(path)
    assert str(path) in str(err.value)


def test_load_weights_names_the_file_and_the_missing_column(write_csv):
    path = write_csv([["annotator_id", "wieght"], ["a1", "2.0"]], name="weights.csv")
    with pytest.raises(StressKitError, match="column 'weight' not in header") as err:
        load_weights(path)
    assert str(path) in str(err.value)


def test_load_weights_rejects_an_annotator_listed_twice(write_csv):
    path = write_csv([["annotator_id", "weight"], ["a1", "2.0"], ["a2", "1.0"], ["a1", "3.0"]],
                     name="weights.csv")
    with pytest.raises(StressKitError, match="line 4: annotator 'a1' is listed twice") as err:
        load_weights(path)
    assert str(path) in str(err.value)


def test_load_weights_matches_ids_as_the_sheet_header_spells_them(write_csv):
    sheet = write_csv([["item_id", "text", " a1", "a2"], ["x1", "t", "1", "2"]], name="sheet.csv")
    weights = write_csv([["annotator_id", "weight"], [" a1", " 2.0 "], ["a2", "3"]],
                        name="weights.csv")
    assert load_annotations(sheet, load_weights(weights)).weights == (2.0, 3.0)


def test_load_annotations_rejects_a_weights_id_that_names_no_column(write_csv):
    sheet = write_csv([["item_id", "text", "a1", "psy"], ["x1", "t", "1", "2"]], name="sheet.csv")
    with pytest.raises(StressKitError, match="annotator 'psy ', which has no column") as err:
        load_annotations(sheet, {"a1": 1.0, "psy ": 2.0})
    assert str(sheet) in str(err.value)


@pytest.mark.parametrize("cell", [" +3 ", "03", "-0", "\u0663", " ", "-5", "5"])
def test_load_annotations_reads_a_cell_as_int_does(write_csv, cell):
    sheet = write_csv([["item_id", "text", "a1", "a2"], ["x1", "t", cell, "1"]], name="cell.csv")
    score = rows_of(load_annotations(sheet))[0][0]
    if cell.strip():
        assert repr(score) == repr(int(cell))  # an int: "-0" is 0
    else:
        assert score is None


def test_load_annotations_rejects_bad_cells(write_csv):
    sheet = write_csv(
        [["item_id", "text", "a1", "a2"], ["x1", "t", "9", "0"]], name="bad.csv"
    )
    with pytest.raises(StressKitError, match=re.escape("line 2: score 9 for 'a1' outside [-5, 5]")):
        load_annotations(sheet)
    sheet2 = write_csv(
        [["item_id", "text", "a1", "a2"], ["x1", "t", "a", "0"]], name="bad2.csv"
    )
    with pytest.raises(StressKitError, match="line 2: score 'a' for 'a1' is not an integer"):
        load_annotations(sheet2)
    sheet3 = write_csv(
        [["item_id", "text", "a1", "a2", "a1"], ["x1", "t", "1", "0", "2"]], name="bad3.csv"
    )
    with pytest.raises(StressKitError, match="'a1' appears more than once"):
        load_annotations(sheet3)


def test_binarize_scores():
    matrix = matrix_from_rows([[-3, 0, 2, None], [-1, 5, 0, None], [4, -5, -5, 1]])
    assert binarize_scores(matrix) == kappa_tallies(
        [(1, 0, 0, None), (1, 0, 0, None), (0, 1, 1, 0)])
    assert binarize_scores(matrix) == Counter({(3, 1): 2, (4, 2): 1})
