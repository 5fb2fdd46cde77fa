#!/usr/bin/env python3
"""Batch benchmark for the stresskit command-line tool.

Run from the root of a stresskit checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Each workload generates its inputs from --seed, then, for --seconds, runs
its real `stresskit` commands one at a time (a closed loop with one
client), each in a fresh Python process: a user pays interpreter start-up,
imports and cold caches on every CLI call, and no module-level memo may
carry over from one repeat to the next. Every round runs the full-size
commands; every other round then runs one of them on a one-row input,
which gives the set-up time. Outputs are checked after every round.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics: docs_per_s, setup_s and peak_rss_mb. Failed commands
are counted in `failed` out of `attempted` (fail_ratio). With --trace 1,
each round instead runs the commands untraced and then again under
tracer.py, and the JSON object carries the per-layer metrics of layers.py.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gen
import layers

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

# The entry point that the installed `stresskit` script runs.
ENTRY = "import sys; from stresskit.cli import main; sys.exit(main())"

# Over seeds 1-40 the eval accuracies on the generated corpus ranged over
# 0.71-0.84 (logistic), 0.69-0.80 (naive Bayes) and 0.67-0.83 (SVM on
# TF-IDF with --lam 0.01). The floor sits well below those ranges, so a run
# fails on a broken model, not on an unlucky seed. A classifier must also beat
# the eval set's majority-class share, which one that always predicts the
# same class reaches.
ACCURACY_FLOOR = 0.62

END_TO_END_UNITS = {"docs_per_s": "docs/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Cmd:
    args: list[str]
    docs: int
    classifier: str = ""


@dataclass
class Proc:
    """One finished process."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def launch(argv: list[str], log: Path) -> Proc:
    """Run `python3 argv...` in a fresh process from the checkout root.
    Output goes to files, so no pipe can fill; wait4 gives the child's own
    resource usage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                 cwd=ROOT, env=env)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=child.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def digest(path: Path) -> str:
    """Hash of an output file; the report's generated_at stamp is ignored."""
    data = path.read_bytes()
    if path.name == "report.json":
        try:
            document = json.loads(data)
            document["metadata"].pop("generated_at", None)
        except (ValueError, KeyError, TypeError, AttributeError):
            pass  # hashed as it is; the workload check reports the damage
        else:
            data = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def tree_digest(directory: Path) -> dict[str, str]:
    return {p.relative_to(directory).as_posix(): digest(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, scale: float):
        self.work = work
        self.seed = seed
        self.scale = scale
        self.vocab = gen.Vocabulary()

    def size(self, n: int) -> int:
        return max(4, int(n * self.scale))

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.name}-{tag}-{self.seed}")

    def prepare(self) -> dict:
        """Write the inputs; returns the generator's facts about them."""
        raise NotImplementedError

    def commands(self, out: Path, minimal: bool) -> list[Cmd]:
        raise NotImplementedError

    def check(self, cmd: Cmd, proc: Proc, out: Path) -> list[str]:
        """Output checks for one full-size command."""
        return []

    def primary(self, cmd: Cmd, out: Path) -> Path:
        """The output that check() reads most closely."""
        raise NotImplementedError

    def final_check(self, out: Path) -> list[str] | None:
        """Checks run once after the timed rounds; None when there are none."""
        return None

    def train_model(self) -> Path:
        """Untimed set-up for the workloads that apply a model: a logistic
        bag-of-words model trained with the CLI on a generated corpus of
        Dreaddit's training-split size. Its vocabulary then covers about 99%
        of the analyze posts' tokens."""
        labeled = self.work / "model_train.csv"
        gen.write_labeled(labeled, self.vocab, self.size(2838), self.rng("model"),
                          gen.TextStats())
        model = self.work / "model.json"
        proc = launch(["-c", ENTRY, "train", str(labeled), "--model-out", str(model)],
                      self.work / "model_train")
        if proc.code != 0:
            raise SystemExit(f"set-up failed: stresskit train exited {proc.code}\n{proc.stderr}")
        return model


class Train(Workload):
    name = "train"
    # At the default --lam 1e-4 the first Pegasos steps give the unregularized
    # bias a magnitude near 1e4 that the projected weights cannot outweigh, so
    # the SVM predicts one class for most inputs and no accuracy floor can
    # tell a working SVM from a broken one. At 0.01 it learns; the work per
    # step is the same.
    KINDS = (("logistic", "bow", ()), ("nb", "bow", ()), ("svm", "tfidf", ("--lam", "0.01")))

    def __init__(self, *args):
        super().__init__(*args)
        self.minimal_rounds = 0

    def prepare(self) -> dict:
        stats = gen.TextStats()
        self.n_train, self.n_eval = self.size(500), self.size(125)
        gen.write_labeled(self.work / "train.csv", self.vocab, self.n_train,
                          self.rng("train"), stats)
        self.n_eval_stressed = gen.write_labeled(self.work / "eval.csv", self.vocab,
                                                 self.n_eval, self.rng("eval"), stats)
        for part in ("train", "eval"):
            gen.write_labeled(self.work / f"{part}_min.csv", self.vocab, 2,
                              self.rng(part), gen.TextStats())
        return {**stats.facts(), "train_rows": self.n_train, "eval_rows": self.n_eval,
                "skipped_rows": 0}

    def commands(self, out: Path, minimal: bool) -> list[Cmd]:
        """The three training commands; a one-row round runs just one of
        them, in turn, which keeps set-up sampling as cheap as elsewhere."""
        suffix = "_min" if minimal else ""
        docs = 4 if minimal else self.n_train + self.n_eval
        kinds = self.KINDS
        if minimal:
            kinds = [kinds[self.minimal_rounds % len(kinds)]]
            self.minimal_rounds += 1
        return [
            Cmd(["train", str(self.work / f"train{suffix}.csv"),
                 "--eval", str(self.work / f"eval{suffix}.csv"),
                 "--classifier", kind, "--features", features,
                 "--model-out", str(out / f"model_{kind}.json"), *extra], docs, kind)
            for kind, features, extra in kinds
        ]

    def check(self, cmd: Cmd, proc: Proc, out: Path) -> list[str]:
        found = re.search(r"confusion: TP=(\d+) FP=(\d+) TN=(\d+) FN=(\d+)", proc.stdout)
        if not found:
            return [f"{cmd.classifier}: no confusion line in the output"]
        tp, fp, tn, fn = map(int, found.groups())
        if tp + fp + tn + fn != self.n_eval:
            return [f"{cmd.classifier}: confusion covers {tp + fp + tn + fn} of "
                    f"{self.n_eval} eval rows"]
        if tp + fn != self.n_eval_stressed:
            return [f"{cmd.classifier}: confusion counts {tp + fn} stressed eval rows, "
                    f"the input has {self.n_eval_stressed}"]
        accuracy = (tp + tn) / self.n_eval
        majority = max(tp + fn, fp + tn) / self.n_eval
        if accuracy < ACCURACY_FLOOR or accuracy <= majority:
            return [f"{cmd.classifier}: eval accuracy {accuracy:.3f} below the floor "
                    f"{ACCURACY_FLOOR} or the majority-class share "
                    f"{majority:.3f}"]
        try:
            model = json.loads(self.primary(cmd, out).read_text(encoding="utf-8"))
            n_tokens = len(model["vocabulary"]["tokens"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{cmd.classifier}: model file unreadable: {exc!r}"]
        if not n_tokens:
            return [f"{cmd.classifier}: empty model vocabulary"]
        return []

    def primary(self, cmd: Cmd, out: Path) -> Path:
        return out / f"model_{cmd.classifier}.json"

    def final_check(self, out: Path) -> list[str]:
        """Loading each model and saving it again gives the same bytes."""
        script = ("import sys; from stresskit import classify\n"
                  "for src, dst in zip(sys.argv[1::2], sys.argv[2::2]):\n"
                  "    classify.save_model(classify.load_model(src), dst)\n")
        pairs = [(out / f"model_{k}.json", self.work / f"resaved_{k}.json")
                 for k, _, _ in self.KINDS]
        proc = launch(["-c", script, *(str(p) for pair in pairs for p in pair)],
                      self.work / "roundtrip")
        if proc.code != 0:
            return [f"model round trip exited {proc.code}"]
        return [f"{src.name}: load then save changed the bytes"
                for src, dst in pairs if src.read_bytes() != dst.read_bytes()]


class Analyze(Workload):
    name = "analyze"

    def prepare(self) -> dict:
        self.model = self.train_model()
        stats = gen.TextStats()
        self.n_posts = self.size(800)
        self.communities = gen.write_posts(self.work / "posts.csv", self.vocab, self.n_posts,
                                           self.rng("posts"), stats)
        gen.write_posts(self.work / "posts_min.csv", self.vocab, 1, self.rng("min"),
                        gen.TextStats())
        self.mapping = gen.write_mapping(self.work / "mapping.csv")
        return {**stats.facts(), "posts": self.n_posts, "skipped_rows": 0}

    def commands(self, out: Path, minimal: bool) -> list[Cmd]:
        posts = self.work / ("posts_min.csv" if minimal else "posts.csv")
        return [Cmd(["analyze", str(self.model), str(posts),
                     "--mapping", str(self.work / "mapping.csv"),
                     "--out-dir", str(out / "report")], 1 if minimal else self.n_posts)]

    def check(self, cmd: Cmd, proc: Proc, out: Path) -> list[str]:
        """Per-group totals in report.json equal a recount of the input by
        mapped community and the totals in summary.csv; all six report
        files exist."""
        expected: dict[str, int] = {}
        for community in self.communities:
            group = self.mapping.get(community, "other")
            expected[group] = expected.get(group, 0) + 1
        report = out / "report"
        missing = [name for name in ("report.json", "summary.csv", "monthly.csv",
                                     "upvotes.csv", "top_words.csv", "emotions.csv")
                   if not (report / name).is_file()]
        if missing:
            return [f"missing report files: {missing}"]
        try:
            groups = json.loads((report / "report.json").read_text(encoding="utf-8"))["groups"]
            totals = {g["name"]: g["total"] for g in groups}
            bad = [g["name"] for g in groups if not 0 <= g["stressed"] <= g["total"]]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"report.json unreadable: {exc!r}"]
        errors = []
        if totals != expected:
            errors.append(f"group totals {totals} differ from the input recount {expected}")
        if bad:
            errors.append(f"stressed count outside [0, total] for {bad}")
        try:
            with open(report / "summary.csv", newline="", encoding="utf-8") as handle:
                table = {row["group"]: int(row["total"]) for row in csv.DictReader(handle)}
        except (ValueError, KeyError, TypeError, csv.Error) as exc:
            return errors + [f"summary.csv unreadable: {exc!r}"]
        if table != totals:
            errors.append("summary.csv totals differ from report.json")
        return errors

    def primary(self, cmd: Cmd, out: Path) -> Path:
        return out / "report" / "report.json"


class PredictCold(Workload):
    name = "predict-cold"

    def prepare(self) -> dict:
        self.model = self.train_model()
        stats = gen.TextStats()
        self.n_posts = self.size(1200)
        self.communities = gen.write_posts(self.work / "posts.csv", self.vocab, self.n_posts,
                                           self.rng("posts"), stats,
                                           one_off_rate=0.4, empty_rate=0.02)
        gen.write_posts(self.work / "posts_min.csv", self.vocab, 1, self.rng("min"),
                        gen.TextStats())
        skipped = sum(1 for c in self.communities if c is None)
        return {**stats.facts(), "posts": self.n_posts, "skipped_rows": skipped}

    def commands(self, out: Path, minimal: bool) -> list[Cmd]:
        posts = self.work / ("posts_min.csv" if minimal else "posts.csv")
        return [Cmd(["predict", str(self.model), str(posts),
                     "--out", str(out / "predictions.csv")], 1 if minimal else self.n_posts)]

    def check(self, cmd: Cmd, proc: Proc, out: Path) -> list[str]:
        """One output row per input row; blank labels exactly on skipped rows."""
        try:
            with open(out / "predictions.csv", newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            return [f"predictions.csv unreadable: {exc!r}"]
        if len(rows) != self.n_posts:
            return [f"predictions.csv has {len(rows)} rows for {self.n_posts} input rows"]
        errors = []
        for i, (row, community) in enumerate(zip(rows, self.communities)):
            label, prob = row.get("label"), row.get("probability")
            if community is None:
                ok = label == "" and prob == ""
            else:
                try:
                    ok = label in ("0", "1") and 0.0 <= float(prob) <= 1.0
                except (TypeError, ValueError):
                    ok = False
            if not ok:
                errors.append(f"predictions.csv row {i + 1}: label {label!r}, "
                              f"probability {prob!r}")
                break
        return errors

    def primary(self, cmd: Cmd, out: Path) -> Path:
        return out / "predictions.csv"


class Annotate(Workload):
    name = "annotate"

    def prepare(self) -> dict:
        self.n_items = self.size(30000)
        gen.write_annotations(self.work / "annotations.csv", self.work / "weights.csv",
                              self.vocab, self.n_items, self.rng("sheet"))
        gen.write_annotations(self.work / "annotations_min.csv", self.work / "weights_min.csv",
                              self.vocab, 1, self.rng("min"), unanimous=True)
        return {"items": self.n_items, "annotators": len(gen.ANNOTATORS), "skipped_rows": 0}

    def commands(self, out: Path, minimal: bool) -> list[Cmd]:
        suffix = "_min" if minimal else ""
        return [Cmd(["annotate", str(self.work / f"annotations{suffix}.csv"),
                     "--weights", str(self.work / f"weights{suffix}.csv"),
                     "--out-dir", str(out / "annotation")], 1 if minimal else self.n_items)]

    def check(self, cmd: Cmd, proc: Proc, out: Path) -> list[str]:
        """One consensus row per item, labels agree with the weighted mean,
        and exactly the adversarial annotator is excluded."""
        folder = out / "annotation"
        try:
            with open(folder / "consensus.csv", newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            summary = json.loads((folder / "annotation_summary.json").read_text("utf-8"))
            excluded = [entry["annotator"] for entry in summary["excluded"]]
            wrong = sum(1 for r in rows if r["label"] != ("1" if float(r["weighted_mean"]) < 0
                                                          else "0"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"annotation outputs unreadable: {exc!r}"]
        errors = []
        if len(rows) != self.n_items:
            errors.append(f"consensus.csv has {len(rows)} rows for {self.n_items} items")
        if wrong:
            errors.append(f"{wrong} consensus labels disagree with their weighted mean")
        if excluded != [gen.ADVERSARIAL]:
            errors.append(f"excluded annotators {excluded}, expected [{gen.ADVERSARIAL!r}]")
        return errors

    def primary(self, cmd: Cmd, out: Path) -> Path:
        return out / "annotation" / "consensus.csv"


WORKLOADS = {w.name: w for w in (Train, Analyze, PredictCold, Annotate)}


@dataclass
class Tally:
    """Commands attempted and failed, with the reasons for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, proc: Proc | None, errors: list[str]) -> bool:
        """Count one command; it fails on a non-zero exit, a traceback on
        stderr or any failed output check."""
        self.attempted += 1
        if proc is not None and proc.code != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            errors = [f"exit code {proc.code} ({last})", *errors]
        if proc is not None and "Traceback" in proc.stderr:
            errors = ["traceback on stderr", *errors]
        if errors:
            self.failures.append(f"{label}: " + "; ".join(errors))
        return not errors


class Bench:
    def __init__(self, workload: Workload, fault: str | None = None):
        self.wl = workload
        self.fault = fault  # "exit" or "corrupt": used by selfcheck.py only
        self.tally = Tally()
        self.injected = False
        self.reference: dict[int, dict[str, str]] = {}  # command index -> output digests
        self.n_runs = 0

    def run_cmd(self, cmd: Cmd, tag: str) -> Proc:
        self.n_runs += 1
        return launch(["-c", ENTRY, *cmd.args], self.wl.work / f"{tag}-{self.n_runs}")

    def run_round(self, out: Path, minimal: bool, tag: str) -> list[Proc]:
        """Run each command once; check exit, stderr and, for full-size
        commands, the outputs and their stability across rounds."""
        procs = []
        for i, cmd in enumerate(self.wl.commands(out, minimal)):
            inject = self.fault is not None and not minimal and not self.injected
            if inject and self.fault == "exit":
                cmd = Cmd([cmd.args[0], str(self.wl.work / "missing.csv"), *cmd.args[2:]],
                          cmd.docs, cmd.classifier)
            proc = self.run_cmd(cmd, tag)
            procs.append(proc)
            errors = []
            if not minimal and proc.code == 0:
                if inject and self.fault == "corrupt":
                    with open(self.wl.primary(cmd, out), "ab") as handle:
                        handle.write(b"corrupted\n")
                errors = self.wl.check(cmd, proc, out)
                errors += self.stability(i, cmd, out, keep=not errors)
            self.injected |= inject
            self.tally.record(f"{tag} {cmd.args[0]} {cmd.classifier}".strip(), proc, errors)
        return procs

    def stability(self, i: int, cmd: Cmd, out: Path, keep: bool) -> list[str]:
        """Outputs are byte-identical across repeats (report timestamp aside).
        The first checked outputs become the reference."""
        current = {name: d for name, d in tree_digest(out).items()
                   if self.owns(cmd, name)}
        if i not in self.reference:
            if keep:
                self.reference[i] = current
            return []
        if current != self.reference[i]:
            changed = sorted(n for n in current.keys() | self.reference[i].keys()
                             if current.get(n) != self.reference[i].get(n))
            return [f"outputs differ from the first round: {changed}"]
        return []

    @staticmethod
    def owns(cmd: Cmd, relative: str) -> bool:
        """Whether an output file under the out dir belongs to the command."""
        return not cmd.classifier or relative == f"model_{cmd.classifier}.json"

    def measure(self, seconds: float) -> dict:
        wl = self.wl
        out, mini = wl.work / "out", wl.work / "out_min"
        out.mkdir()
        mini.mkdir()
        self.run_round(mini, True, "warmup")  # fills the OS file cache and bytecode caches
        walls, setups, rss = [], [], []
        deadline = time.monotonic() + seconds
        docs = sum(c.docs for c in wl.commands(out, False))
        last = 0.0  # duration of the previous round, set-up included
        # A round starts only if it is expected to end before the deadline.
        while not walls or time.monotonic() + last < deadline:
            started = time.monotonic()
            procs = self.run_round(out, False, "full")
            walls.append(sum(p.wall for p in procs))
            rss.append(max(p.rss_mb for p in procs))
            line = f"round {len(walls)}: {docs} docs in {walls[-1]:.3f} s, peak {rss[-1]:.1f} MB"
            if len(walls) % 2:  # set-up is sampled every other round
                setups += [p.wall for p in self.run_round(mini, True, "setup")]
                line += f"; one-row set-up {setups[-1]:.3f} s"
            print(line, flush=True)
            last = time.monotonic() - started
        self.final_check(out)
        summarize("round wall (s)", walls)
        summarize("set-up (s)", setups)
        return {
            "docs_per_s": docs / statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }

    def measure_traced(self, seconds: float) -> dict:
        """Pairs of rounds: untraced, then each command again under
        tracer.py. Returns the medians of the per-layer metrics."""
        wl = self.wl
        out, out_traced = wl.work / "out", wl.work / "out_traced"
        out.mkdir()
        out_traced.mkdir()
        samples: list[dict[str, float]] = []
        deadline = time.monotonic() + seconds
        last = 0.0
        while not samples or time.monotonic() + last < deadline:
            started = time.monotonic()
            untraced = self.run_round(out, False, "untraced")
            traced = []
            for i, (cmd, plain) in enumerate(zip(wl.commands(out_traced, False), untraced)):
                spans_path = wl.work / f"spans-{len(samples)}-{i}.json"
                self.n_runs += 1
                proc = launch([str(HERE / "tracer.py"), str(spans_path), "--", *cmd.args],
                              wl.work / f"traced-{self.n_runs}")
                spans, errors = None, []
                if proc.code == 0:
                    errors = self.same_outputs(cmd, out, out_traced)
                    # train prints its own timing, so only the others compare stdout
                    if not cmd.classifier and (plain.stdout.replace(str(out), "OUT")
                                               != proc.stdout.replace(str(out_traced), "OUT")):
                        errors.append("traced stdout differs from the untraced run")
                    spans = layers.Spans(str(spans_path))
                    spans_path.unlink()
                    Path(f"{spans_path}.bin").unlink()
                    if spans.nesting_errors():
                        errors.append(f"{spans.nesting_errors()} spans outside their "
                                      "parent or overlapping a sibling")
                if self.tally.record(f"traced {cmd.args[0]} {cmd.classifier}".strip(),
                                     proc, errors):
                    traced.append(layers.Traced(spans, cmd.docs, cmd.classifier, proc.wall,
                                                plain.wall, plain.cpu))
            if len(traced) != len(untraced):
                break  # a failed command gives no sample; its failure is counted
            samples.append(layers.compute(traced))
            report_spans(traced)
            last = time.monotonic() - started
        self.final_check(out)
        if not samples:
            return {}
        return {name: statistics.median(s[name] for s in samples) for name in samples[0]}

    def final_check(self, out: Path) -> None:
        errors = self.wl.final_check(out)
        if errors is not None:
            self.tally.record("final check", None, errors)

    @staticmethod
    def same_outputs(cmd: Cmd, out: Path, out_traced: Path) -> list[str]:
        """The traced command wrote the same files with the same content
        as the untraced one, and nothing else."""
        plain = {n: d for n, d in tree_digest(out).items() if Bench.owns(cmd, n)}
        traced = {n: d for n, d in tree_digest(out_traced).items() if Bench.owns(cmd, n)}
        if plain != traced:
            changed = sorted(n for n in plain.keys() | traced.keys()
                             if plain.get(n) != traced.get(n))
            return [f"traced outputs differ from the untraced run: {changed}"]
        return []


def summarize(label: str, values: list[float]) -> None:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    print(f"{label}: median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}")


def report_spans(traced: list[layers.Traced]) -> None:
    """Where the traced time went: the largest self times, and how much of
    each command's traced wall time the spans account for."""
    totals: dict[str, float] = {}
    for t in traced:
        for name, value in t.spans.self_by_name().items():
            totals[name] = totals.get(name, 0.0) + value
        root = float(t.spans.duration[0])
        print(f"traced {t.classifier or 'command'}: wall {t.wall:.3f} s, root span "
              f"{root:.3f} s, self times sum {float(t.spans.self_time.sum()):.3f} s, "
              f"{len(t.spans)} spans")
    top = sorted(totals.items(), key=lambda kv: -kv[1])[:10]
    print("self time by span: " + ", ".join(f"{n} {v:.3f}s" for n, v in top))


def why(name: str) -> str:
    """The workload's reason, as recorded in BENCHMARK.json."""
    try:
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
            workloads = json.load(handle)["workloads"]
    except (OSError, ValueError, KeyError):
        return ""
    return next((w["why"] for w in workloads if w["name"] == name), "")


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], **versions}


def bench(name: str, seed: int, seconds: float, trace: bool, *, scale: float = 1.0,
          fault: str | None = None) -> dict:
    """Run one workload and return the result object printed last."""
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](work, seed, scale)
        print(f"workload {name}: {why(name)}")
        print("machine: " + json.dumps(machine_facts()))
        print("inputs: " + json.dumps(wl.prepare()), flush=True)
        runner = Bench(wl, fault)
        if trace:
            values = runner.measure_traced(seconds)
            metrics = {m.name: {"value": values.get(m.name, 0.0), "unit": m.unit}
                       for m in layers.METRICS}
            props = ("porter.repeat_share", "features.oov_share", "report.stressed_share",
                     "textprep.tokens_per_doc", "corpus.rows_skipped")
            print("measured input properties: "
                  + json.dumps({p: values.get(p, 0.0) for p in props}))
        else:
            values = runner.measure(seconds)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    tally = runner.tally
    for failure in tally.failures:
        print("FAILED " + failure)
    failed = len(tally.failures)
    moves = {m.name: m.moves for m in layers.METRICS} if trace else {}
    for key, metric in metrics.items():
        note = f"  (should move: {moves[key]})" if key in moves else ""
        print(f"{key} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"fail_ratio {failed}/{tally.attempted} = {failed / max(tally.attempted, 1):.4g} ratio")
    return {"correct": not tally.failures, "attempted": tally.attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: the running child is killed and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "stresskit" / "cli.py").is_file():
        print(f"error: no stresskit sources under {SRC}; run from the root of a "
              "stresskit checkout", file=sys.stderr)
        return 2
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
