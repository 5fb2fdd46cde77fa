import csv
import json
import math
import weakref
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresskit import classify, corpus, emotion, report, textprep
from stresskit.corpus import PostRecord
from stresskit.errors import StressKitError
from stresskit.textprep import TokenTable
from stresskit.report import (
    MONTHS,
    ClassifiedPost,
    GroupTally,
    build_report,
    classify_corpus,
    emit_report,
    mean_stress_pct,
    month_index,
    monthly_distribution,
    stress_summary,
    tally_groups,
    top_words,
    upvote_stats,
)

from conftest import REPO_ROOT


def post(community="r/PhD", score=0, month=9, text="text body", year=2022):
    return PostRecord(
        date=datetime(year, month, 15, tzinfo=timezone.utc),
        text=text,
        score=score,
        community=community,
    )


STOPWORDS = textprep.default_stopwords()
LEXICON = emotion.default_lexicon()


def cp(label, lexicon=LEXICON, **kwargs):
    """A classified post carrying what classify_corpus would give it."""
    p = post(**kwargs)
    profile = emotion.score_emotions(textprep.surface_tokens(p.text), lexicon) if label else None
    return ClassifiedPost(post=p, label=label,
                          tokens=tuple(textprep.preprocess(p.text, STOPWORDS).split()),
                          emotions=profile)


def without_date(item):
    """The classified post, its post undated."""
    p = item.post
    return ClassifiedPost(PostRecord(None, p.text, p.score, p.community, p.tag),
                          item.label, item.tokens, item.emotions)


GROUP_MAP = {"r/PhD": "PhD students", "r/GradSchool": "Graduate students"}


def tally(classified):
    """One group's GroupTally over the items, folded as build_report folds them."""
    folded = GroupTally()
    for item in classified:
        folded.add(item)
    return folded


# -------------------------------------------------------- classify_corpus

def toy_model(table):
    return classify.train([["stress", "deadline"], ["calm", "garden"]], [1, 0],
                          classify.LogisticHyper(epochs=200), fingerprint=table.fingerprint())


def test_classify_corpus_empty(stopwords):
    table = TokenTable(stopwords)
    assert classify_corpus(toy_model(table), [], table, lexicon=LEXICON) == []


def test_classify_corpus_oov_post_gets_bias_probability(stopwords):
    table = TokenTable(stopwords)
    model = toy_model(table)
    out = classify_corpus(model, [post(text="zebra xylophone")], table, lexicon=LEXICON)
    pred = classify.predict_stems(model, out[0].tokens)
    assert pred.score == pytest.approx(classify.sigmoid(model.bias), abs=1e-12)
    assert out[0].label == pred.label


def test_classify_corpus_partition_and_order(stopwords):
    table = TokenTable(stopwords)
    model = toy_model(table)
    posts = [post(text="stress deadline" if i % 3 else "calm garden") for i in range(9)]
    out = classify_corpus(model, posts, table, lexicon=LEXICON)
    assert [c.post for c in out] == posts
    ones = sum(c.label for c in out)
    zeros = sum(1 - c.label for c in out)
    assert ones + zeros == len(posts)


def test_classify_corpus_title_joined_with_body(stopwords, write_csv):
    table = TokenTable(stopwords)
    model = toy_model(table)
    path = write_csv([["date", "title", "text", "community"],
                      ["2023-01-01", "stress", "deadline", "r/PhD"],
                      ["2023-01-01", "", "stress deadline", "r/PhD"]])
    posts = corpus.load_posts_with_summary(path)[0]
    split_across, joined = classify_corpus(model, posts, table, lexicon=LEXICON)
    assert split_across.tokens == joined.tokens == ("stress", "deadlin")
    assert split_across.label == joined.label


def test_fingerprint_mismatch_warns(stopwords):
    model = toy_model(TokenTable(stopwords))
    other = TokenTable(stopwords - {"the"})
    with pytest.warns(UserWarning, match="fingerprint does not match current configuration"):
        classify_corpus(model, [post()], other, lexicon=LEXICON)


# ----------------------------------------------------------- aggregations

def test_stress_summary_reference_percentages():
    classified = [cp(1)] * 5389 + [cp(0)] * 12992
    row = stress_summary(tally_groups(classified, GROUP_MAP)["PhD students"])
    assert row["total"] == 18381
    assert row["stressed_pct"] == 29.3
    assert row["not_stressed_pct"] == 70.7


def test_group_percentage_mean_rounds_to_29():
    assert mean_stress_pct([29.3, 31.1, 24.8, 30.5]) == 29


def test_stress_summary_zero_stressed():
    row = stress_summary(tally_groups([cp(0), cp(0)], GROUP_MAP)["PhD students"])
    assert row["stressed_pct"] == 0.0 and row["not_stressed_pct"] == 100.0


def test_stress_summary_unmapped_goes_to_other():
    rows = tally_groups([cp(1, community="r/teachers")], GROUP_MAP)
    assert stress_summary(rows["other"])["total"] == 1


def test_month_ordering():
    assert month_index(datetime(2023, 9, 1, tzinfo=timezone.utc)) == 0
    assert month_index(datetime(2023, 5, 1, tzinfo=timezone.utc)) == 8  # May: 9th bucket
    assert month_index(datetime(2023, 8, 31, tzinfo=timezone.utc)) == 11
    assert MONTHS[0] == "Sep" and MONTHS[8] == "May" and MONTHS[11] == "Aug"


def test_monthly_distribution_buckets():
    classified = [cp(1, month=9), cp(1, month=5, year=2023), cp(0, month=1)]
    series = monthly_distribution(tally(classified))
    assert series["monthly"][0] == 1
    assert series["monthly"][8] == 1
    assert sum(series["monthly"]) == 2  # only stressed items counted


def test_monthly_all_unstressed_is_zero():
    series = monthly_distribution(tally([cp(0, month=m) for m in range(1, 13)]))
    assert series == {"monthly": [0] * 12, "monthly_unknown": 0}


def test_monthly_sums_to_stressed_count(fixtures_dir):
    classified = [cp(i % 2, month=(i % 12) + 1) for i in range(50)]
    series = monthly_distribution(tally(classified))
    assert sum(series["monthly"]) + series["monthly_unknown"] == sum(c.label for c in classified)


def test_upvote_stats_hand_values():
    classified = [cp(1, score=1), cp(1, score=2), cp(1, score=3)]
    stats = upvote_stats(tally(classified))["stressed"]
    assert stats["mean"] == pytest.approx(2.0)
    assert stats["median"] == pytest.approx(2.0)
    assert stats["std"] == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
    assert stats["n"] == 3


def test_upvote_median_mean_of_two_convention():
    classified = [cp(0, score=2), cp(0, score=3)]
    assert upvote_stats(tally(classified))["not_stressed"]["median"] == 2.5
    assert upvote_stats(tally(classified))["stressed"] is None


def test_top_words_counting():
    classified = tally([
        cp(1, text="work work time"),
        cp(1, text="work"),
        cp(0, text="ignored words here"),
    ])
    assert top_words(classified, 10) == [("work", 3), ("time", 1)]
    assert top_words(classified, 1) == [("work", 3)]
    with pytest.raises(ValueError):
        top_words(classified, 0)


def test_top_words_tie_alphabetical():
    classified = tally([cp(1, text="zebra apple")])
    assert top_words(classified, 5) == [("appl", 1), ("zebra", 1)]


def test_top_words_shuffle_invariant():
    items = [cp(1, text=f"word{i % 3} filler") for i in range(9)]
    a = top_words(tally(items), 5)
    b = top_words(tally(reversed(items)), 5)
    assert a == b


def test_classify_corpus_carries_the_one_pass_tokens_and_profiles(fixtures_dir, stopwords):
    model = classify.load_model(REPO_ROOT / "tests" / "golden" / "model_logistic.json")
    posts = corpus.load_posts_with_summary(fixtures_dir / "posts_100.csv")[0]
    classified = classify_corpus(model, posts, TokenTable(stopwords), lexicon=LEXICON)
    assert 0 < sum(item.label for item in classified) < len(classified)
    recount = Counter()
    for item in classified:
        assert list(item.tokens) == textprep.preprocess(item.post.text, stopwords).split()
        if item.label == 1:
            recount.update(textprep.preprocess(item.post.text, stopwords).split())
            expected_profile = emotion.score_emotions(
                textprep.surface_tokens(item.post.text), LEXICON)
            assert item.emotions == expected_profile
        else:
            assert item.emotions is None
    expected = sorted(recount.items(), key=lambda kv: (-kv[1], kv[0]))
    assert top_words(tally(classified), len(expected)) == expected


def test_classify_corpus_strips_each_post_once(fixtures_dir, stopwords, monkeypatch):
    model = classify.load_model(REPO_ROOT / "tests" / "golden" / "model_logistic.json")
    posts = corpus.load_posts_with_summary(fixtures_dir / "posts_100.csv")[0]
    real, calls = textprep.surface_tokens, []
    monkeypatch.setattr(textprep, "surface_tokens",
                        lambda text: calls.append(text) or real(text))
    classified = classify_corpus(model, posts, TokenTable(stopwords), lexicon=LEXICON)
    assert any(item.emotions is not None for item in classified)
    assert len(calls) == len(posts)


def test_build_report_reads_its_input_once_and_holds_no_post(fixtures_dir, stopwords, caplog):
    """A one-shot stream of classified posts gives the report a list gives,
    and each post and classified post is gone once a later one is read."""
    model = classify.load_model(REPO_ROOT / "tests" / "golden" / "model_logistic.json")
    path = fixtures_dir / "posts_100.csv"
    posts = corpus.load_posts_with_summary(path)[0]
    table = TokenTable(stopwords)
    from_list = build_report(classify_corpus(model, posts, table, lexicon=LEXICON), GROUP_MAP,
                             table=table, lexicon=LEXICON)
    refs = []

    def one_shot():
        with corpus.open_rows(path, corpus.POST_COLUMNS) as reader:
            rows = corpus.iter_post_rows(reader, path, corpus.LoadSummary())
            streamed = (record for _, _, record in rows if record is not None)
            table = TokenTable(stopwords)  # a fresh one, as a second run builds
            for item in report.classified_posts(model, streamed, table, lexicon=LEXICON):
                # the reader's loop variable may still hold the item yielded before
                assert all(ref() is None for ref in refs[:-2])
                refs.extend((weakref.ref(item), weakref.ref(item.post)))
                yield item

    from_stream = build_report(one_shot(), GROUP_MAP, table=TokenTable(stopwords),
                               lexicon=LEXICON)
    assert len(refs) == 2 * len(posts)
    assert all(ref() is None for ref in refs)
    unmapped = "unmapped communities routed to 'other': " \
        "['r/EngineeringStudents', 'r/Professors', 'r/csMajors']"
    assert caplog.messages == [unmapped, unmapped]  # once per report
    for document in (from_list, from_stream):
        document["metadata"].pop("generated_at")
    assert from_stream == from_list


# ----------------------------------------------------------------- emotion

def test_emotion_summary_single_item():
    lex = emotion.parse_lexicon(["died\tsadness\t1", "died\tfear\t1"])
    classified = [cp(1, lexicon=lex, month=10, text="he died")]
    summary = report.emotion_summary(tally(classified))
    assert summary["monthly"]["sadness"][1] == pytest.approx(0.5)  # October bucket
    assert summary["monthly"]["sadness"][0] is None  # no September items


def test_emotion_summary_counts_an_undated_item_in_the_whisker_only():
    lex = emotion.parse_lexicon(["died\tsadness\t1"])
    dated = cp(1, lexicon=lex, month=10, text="he died")
    undated = cp(1, lexicon=lex, text="calm words")
    summary = report.emotion_summary(
        tally([dated, without_date(undated)]))
    assert summary["monthly"]["sadness"][1] == 1.0  # the dated item alone
    assert summary["monthly"]["sadness"].count(None) == 11
    assert (summary["whisker"]["sadness"]["min"], summary["whisker"]["sadness"]["max"]) == (0.0, 1.0)


def test_emotion_whisker_outlier_flagging():
    lex = emotion.parse_lexicon(["panic\tfear\t1"])
    bodies = ["calm words"] * 4 + ["panic"]
    classified = [cp(1, lexicon=lex, text=b) for b in bodies]
    summary = report.emotion_summary(tally(classified))
    w = summary["whisker"]["fear"]
    assert w["q1"] == w["median"] == w["q3"] == 0.0
    assert w["outliers"] == [1.0]


# -------------------------------------------------------------- emit/report

def full_report(stopwords):
    classified = [
        cp(i % 2, community="r/PhD" if i % 3 else "r/GradSchool",
           score=i - 5, month=(i % 12) + 1,
           text="deadline panic work" if i % 2 else "calm garden work")
        for i in range(40)
    ]
    return build_report(
        classified, GROUP_MAP, table=TokenTable(stopwords), lexicon=LEXICON,
        model_kind="logistic", model_fingerprint="fp",
    )


def test_report_partition_invariant(stopwords):
    rep = full_report(stopwords)
    for group in rep["groups"]:
        assert group["stressed"] <= group["total"]
        assert group["stressed_pct"] + group["not_stressed_pct"] == pytest.approx(100.0, abs=0.1)
        assert sum(group["monthly"]) + group["monthly_unknown"] == group["stressed"]


def test_emit_json_round_trip(stopwords, tmp_path):
    rep = full_report(stopwords)
    assert emit_report(rep, "json", tmp_path) == [tmp_path / "report.json"]
    assert json.loads((tmp_path / "report.json").read_text()) == rep
    assert list(rep) == ["schema_version", "model", "groups", "overall", "metadata"]
    assert rep["schema_version"] == 1
    assert rep["overall"]["mean_stress_pct"] == mean_stress_pct(
        [g["stressed_pct"] for g in rep["groups"]])
    assert rep["metadata"]["upvote_median"] == "mean_of_two"


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _num(cell):
    return None if cell == "" else float(cell)


VARIED_BODIES = ("deadline panic work", "afraid angry alone exam", "awful argument anxiety",
                 "calm garden work", "alone again", "astonished afraid abuse")


def varied_report(stopwords):
    """Uneven stressed shares, spread affect values and a group with no
    stressed post (no stressed upvote stats, no whiskers) and one undated
    stressed post."""
    classified = []
    for i in range(60):
        community = ("r/PhD", "r/GradSchool", "r/Professors")[i % 3]
        label = 0 if community == "r/Professors" else int(i % 4 != 0)
        classified.append(cp(label, community=community,
                             score=(i * 7) % 23 - 5, month=(i % 12) + 1,
                             text=VARIED_BODIES[i % len(VARIED_BODIES)]))
    undated = cp(1, community="r/PhD", score=1, text=VARIED_BODIES[0])
    classified.append(without_date(undated))
    return build_report(classified, {**GROUP_MAP, "r/Professors": "Professors"},
                        table=TokenTable(stopwords), lexicon=LEXICON, top_n=5)


def test_emit_csv_consistent_with_json(stopwords, tmp_path):
    rep = varied_report(stopwords)
    groups = rep["groups"]
    assert any(g["stressed_pct"] != g["not_stressed_pct"] for g in groups)
    assert any(stats is None for g in groups for stats in g["upvotes"].values())
    assert any(w["q1"] != w["q3"] for g in groups for w in g["emotions"]["whisker"].values())
    assert any(g["monthly_unknown"] for g in groups)
    emit_report(rep, "csv", tmp_path)
    _check_csv_tables(rep, tmp_path)


def _check_csv_tables(rep, directory):
    groups = rep["groups"]
    summary = _read_csv(directory / "summary.csv")
    assert [(r["group"], int(r["total"]), int(r["stressed"]), float(r["stressed_pct"]),
             float(r["not_stressed_pct"])) for r in summary] == [
        (g["name"], g["total"], g["stressed"], g["stressed_pct"], g["not_stressed_pct"])
        for g in groups]

    monthly = _read_csv(directory / "monthly.csv")
    assert [(r["group"], [int(r[m]) for m in MONTHS], int(r["unknown"])) for r in monthly] == [
        (g["name"], g["monthly"], g["monthly_unknown"]) for g in groups]

    expected = []
    for g in groups:
        for cls in ("stressed", "not_stressed"):
            stats = g["upvotes"][cls] or {"mean": None, "median": None, "std": None, "n": 0}
            expected.append(
                (g["name"], cls, stats["mean"], stats["median"], stats["std"], stats["n"]))
    assert [(r["group"], r["class"], _num(r["mean"]), _num(r["median"]), _num(r["std"]),
             int(r["n"])) for r in _read_csv(directory / "upvotes.csv")] == expected

    assert [(r["group"], int(r["rank"]), r["token"], int(r["count"]))
            for r in _read_csv(directory / "top_words.csv")] == [
        (g["name"], rank, token, count)
        for g in groups for rank, (token, count) in enumerate(g["top_words"], start=1)]

    expected = []
    for g in groups:
        emotions = g["emotions"]
        for affect in sorted(emotions["monthly"]):
            expected += [(g["name"], affect, month, mean, *[None] * 6)
                         for month, mean in zip(MONTHS, emotions["monthly"][affect])]
        for affect in sorted(emotions["whisker"]):
            w = emotions["whisker"][affect]
            expected.append((g["name"], affect, "all", None, w["min"], w["q1"], w["median"],
                             w["q3"], w["max"], len(w["outliers"])))
    columns = ("mean", "min", "q1", "median", "q3", "max", "n_outliers")
    assert [(r["group"], r["affect"], r["month"], *(_num(r[c]) for c in columns))
            for r in _read_csv(directory / "emotions.csv")] == expected


def test_unknown_format_rejected_before_write(stopwords, tmp_path):
    rep = full_report(stopwords)
    with pytest.raises(StressKitError, match="unknown report format 'xml'"):
        emit_report(rep, "xml", tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_report_numbers_round_trip_at_full_precision(stopwords, tmp_path):
    rep = full_report(stopwords)
    emit_report(rep, "json", tmp_path)
    parsed = json.loads((tmp_path / "report.json").read_text())
    group = parsed["groups"][0]
    original = rep["groups"][0]
    assert group["upvotes"]["stressed"]["std"] == original["upvotes"]["stressed"]["std"]


def test_load_group_map(write_csv):
    path = write_csv([["community", "group"], ["r/PhD", "PhD students"]])
    assert report.load_group_map(path) == {"r/PhD": "PhD students"}


def test_load_group_map_strips_cells_so_padded_communities_match(write_csv):
    path = write_csv([["community", "group"], [" r/PhD ", " PhD students\t"]])
    group_map = report.load_group_map(path)
    assert group_map == {"r/PhD": "PhD students"}
    rows = tally_groups([cp(1, community="r/PhD")], group_map)
    assert list(rows) == ["PhD students"] and stress_summary(rows["PhD students"])["stressed"] == 1


@pytest.mark.parametrize("row,column", [(["r/PhD"], "group"), (["r/PhD", " "], "group"),
                                        (["", "PhD students"], "community")])
def test_load_group_map_rejects_a_row_without_both_cells(write_csv, row, column):
    path = write_csv([["community", "group"], row])
    with pytest.raises(StressKitError, match=f"line 2: {column} is empty") as err:
        report.load_group_map(path)
    assert str(path) in str(err.value)


def test_load_group_map_rejects_a_community_listed_twice(write_csv):
    path = write_csv([["community", "group"], ["r/PhD", "PhD students"],
                      ["r/PhD ", "Professors"]])
    with pytest.raises(StressKitError, match="line 3: community 'r/PhD' is listed twice") as err:
        report.load_group_map(path)
    assert str(path) in str(err.value)


@st.composite
def _samples(draw):
    """1 to 200 finite floats drawn from a small pool, so values repeat."""
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
    pool = draw(st.lists(finite, min_size=1, max_size=30))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=200))


@settings(max_examples=400, deadline=None)
@given(_samples())
def test_five_number_quartiles_match_numpy_percentile(values):
    import numpy as np

    # Equal values may sit in either order, and 0.0 == -0.0: with both signs
    # in the input, which one a zero quartile carries depends on numpy's
    # partition order, not on the values, so only there the sign may differ.
    both_zeros = {math.copysign(1.0, v) for v in values if v == 0} == {1.0, -1.0}
    w = report._five_number(values)
    for got, q in ((w["q1"], 25), (w["median"], 50), (w["q3"], 75)):
        expected = float(np.percentile(values, q))
        # float.hex shows every bit of the mantissa and the sign of a zero
        assert got.hex() == expected.hex() or both_zeros and got == expected == 0, (q, values)
