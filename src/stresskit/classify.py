"""From-scratch classifiers over sparse feature vectors: logistic regression
(full-batch gradient descent), multinomial Naive Bayes with Laplace
smoothing, and a linear SVM trained by Pegasos stochastic subgradient
descent. `train` is the one way to build a model: it fits the vocabulary on
stem lists, vectorizes them and calls the trainer that the type of its
hyperparameters names. The trainers are deterministic given their seeds
and return one LinearModel that decides on bias + weights . x. Only
logistic regression assembles a design matrix, a sparse row store in numpy
arrays, for its full-batch epochs; naive Bayes and the SVM read the feature
vectors in plain Python. So numpy is imported only by logistic training:
loading a model, predicting and training naive Bayes or an SVM never
import it.

Models persist as single self-describing JSON documents (format 2; format 1
files still load); load(save(m)) reproduces predictions bit-identically.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import StressKitError, open_text
from .features import FeatureVector, Vocabulary, fit_vocabulary, vector

if TYPE_CHECKING:  # numpy loads only where logistic training computes with it
    import numpy as np

    from .textprep import TokenTable

MODEL_FORMAT_VERSION = 2


class LogisticHyper(NamedTuple):
    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 1e-4
    seed: int = 42


class NaiveBayesHyper(NamedTuple):
    alpha: float = 1.0


class SvmHyper(NamedTuple):
    lam: float = 1e-4
    epochs: int = 10
    seed: int = 42


class LinearModel:
    """Every classifier decides on bias + weights . x; `kind` ("logistic",
    "naive_bayes" or "svm") says which trainer made it and whether the score
    is a probability or a margin. The weights, one per vocabulary entry, and
    the bias must be finite; only logistic has an effective_learning_rate."""

    def __init__(self, kind: str, weights: tuple[float, ...], bias: float,
                 vocabulary: Vocabulary, pipeline_fingerprint: str,
                 hyper: LogisticHyper | NaiveBayesHyper | SvmHyper, feature_kind: str = "bow",
                 effective_learning_rate: float | None = None):
        if len(weights) != vocabulary.size:
            raise StressKitError(f"{len(weights)} weights for vocabulary of {vocabulary.size}")
        if not all(map(math.isfinite, weights)) or not math.isfinite(bias):
            raise StressKitError("non-finite model parameters")
        self.kind, self.weights, self.bias, self.vocabulary = kind, weights, bias, vocabulary
        self.pipeline_fingerprint, self.hyper = pipeline_fingerprint, hyper
        self.feature_kind, self.effective_learning_rate = feature_kind, effective_learning_rate

    def __eq__(self, other):
        return type(other) is LinearModel and vars(self) == vars(other)


HYPERS = {"logistic": LogisticHyper, "naive_bayes": NaiveBayesHyper, "svm": SvmHyper}


class Prediction(NamedTuple):
    score: float  # probability for logistic/naive bayes, margin for svm
    label: int


class _SparseRows(NamedTuple):
    """Sparse rows: entry e is data[e] at row rows[e] and column indices[e],
    in row order; slot_* hold the entries stably ordered by their position
    within the row. Both products add in a row's entry order from 0.0, as a
    loop over the rows would, with their terms in one reused buffer."""

    data: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    slot_data: np.ndarray
    slot_indices: np.ndarray
    slot_rows: np.ndarray
    shape: tuple[int, int]
    buffer: np.ndarray

    def _sums(self, data, values, at, into, size: int) -> np.ndarray:
        """sums[into[e]] += data[e] * values[at[e]], e in order"""
        import numpy as np
        np.take(values, at, out=self.buffer, mode="clip")  # "raise" would copy via a temporary
        np.multiply(data, self.buffer, out=self.buffer)
        return np.bincount(into, weights=self.buffer, minlength=size)

    def dot(self, w: np.ndarray) -> np.ndarray:
        """X . w, slot by slot, so successive adds go to different rows."""
        return self._sums(self.slot_data, w, self.slot_indices, self.slot_rows, self.shape[0])

    def tdot(self, r: np.ndarray) -> np.ndarray:
        """X^T . r"""
        return self._sums(self.data, r, self.rows, self.indices, self.shape[1])


def _labels(examples: Sequence[tuple[FeatureVector, int]], n_features: int) -> list[int]:
    """The labels of `examples`, once they are known to be trainable."""
    bad = next((i for vec, _ in examples for i in vec if not 0 <= i < n_features), None)
    if bad is not None:
        raise StressKitError(f"feature index {bad} outside vocabulary of {n_features}")
    labels = [label for _, label in examples]
    if len(set(labels)) < 2:
        raise StressKitError("training data must contain both classes")
    if n_features == 0:
        raise StressKitError("empty vocabulary: no stem is in at least min_df training documents")
    return labels


def _assemble(examples: Sequence[tuple[FeatureVector, int]],
              n_features: int) -> tuple[_SparseRows, np.ndarray]:
    import numpy as np
    y = np.asarray(_labels(examples, n_features), dtype=float)
    data, indices, lengths = [], [], []
    for vec, _ in examples:
        indices.extend(vec)
        data.extend(vec.values())
        lengths.append(len(vec))
    data, indices = np.asarray(data, dtype=float), np.asarray(indices, dtype=np.intp)
    rows = np.repeat(np.arange(len(examples)), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    slot = np.argsort(np.arange(len(data)) - starts, kind="stable")
    X = _SparseRows(data=data, indices=indices, rows=rows, slot_data=data[slot],
                    slot_indices=indices[slot], slot_rows=rows[slot],
                    shape=(len(examples), n_features), buffer=np.empty(len(data)))
    return X, y


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def logistic_objective(z: np.ndarray, coef: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Average binary cross-entropy at z = X . coef + bias, plus (l2/2)*||coef||^2."""
    import numpy as np
    bce = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return bce + 0.5 * l2 * float(coef @ coef)


def logistic_gradient(
    z: np.ndarray, coef: np.ndarray, X: _SparseRows, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    import numpy as np
    # pow, not np.exp: numpy's exp kernel, and so its last bits, depend on the CPU
    p = 1.0 / (1.0 + np.float_power(math.e, -np.clip(z, -500, 500)))
    residual = p - y
    grad_coef = X.tdot(residual) / len(y) + l2 * coef
    grad_bias = float(np.mean(residual))
    return grad_bias, grad_coef


def train_logistic(
    examples: Sequence[tuple[FeatureVector, int]],
    hyper: LogisticHyper = LogisticHyper(),
    *,
    vocabulary: Vocabulary,
    fingerprint: str = "",
    feature_kind: str = "bow",
) -> LinearModel:
    """Full-batch gradient descent from zero initialization.

    The training-loss trajectory must be non-increasing; if an epoch raises
    the loss the learning rate is halved and training restarts, up to 8
    halvings, after which StressKitError is raised. Each epoch computes
    X . coef once: the decision values behind one epoch's loss are the next
    epoch's gradient input.
    """
    import numpy as np
    X, y = _assemble(examples, vocabulary.size)
    lr = hyper.learning_rate
    for _ in range(9):  # initial rate plus up to 8 halvings
        bias = 0.0
        coef = np.zeros(vocabulary.size)
        z = X.dot(coef) + bias
        previous = logistic_objective(z, coef, y, hyper.l2)
        diverged = False
        for _epoch in range(hyper.epochs):
            grad_bias, grad_coef = logistic_gradient(z, coef, X, y, hyper.l2)
            bias -= lr * grad_bias
            coef -= lr * grad_coef
            z = X.dot(coef) + bias
            loss = logistic_objective(z, coef, y, hyper.l2)
            if loss > previous + 1e-12:
                diverged = True
                break
            previous = loss
        if not diverged:
            return LinearModel(
                kind="logistic", weights=tuple(coef.tolist()), bias=bias, vocabulary=vocabulary,
                pipeline_fingerprint=fingerprint, hyper=hyper, feature_kind=feature_kind,
                effective_learning_rate=lr)
        lr /= 2.0
    raise StressKitError("loss still increasing after 8 learning-rate halvings")


def naive_bayes_estimate(examples: Sequence[tuple[FeatureVector, int]], alpha: float,
                         vocabulary: Vocabulary) -> tuple[list[float], list[list[float]]]:
    """Multinomial estimate over token counts with Laplace smoothing alpha:
    log_prior[c] and log_likelihood[c][i] for the classes c = 0, 1. Each
    column adds its class's values in row order."""
    if alpha <= 0:
        raise ValueError("smoothing alpha must be positive")
    V, labels = vocabulary.size, _labels(examples, vocabulary.size)
    counts = [[0.0] * V, [0.0] * V]
    for vec, label in examples:
        column = counts[label]
        for i, v in vec.items():
            column[i] += v
    log_prior = [math.log(labels.count(c) / len(labels)) for c in (0, 1)]
    log_totals = [math.log(math.fsum(column) + alpha * V) for column in counts]
    log_likelihood = [[math.log(n + alpha) - log_total for n in column]
                      for column, log_total in zip(counts, log_totals)]
    return log_prior, log_likelihood


def train_naive_bayes(
    examples: Sequence[tuple[FeatureVector, int]],
    hyper: NaiveBayesHyper = NaiveBayesHyper(),
    *,
    vocabulary: Vocabulary,
    fingerprint: str = "",
    feature_kind: str = "bow",
) -> LinearModel:
    """Naive Bayes as its log-odds log P(1|x) - log P(0|x): log-likelihood
    differences as weights, the log-prior difference as bias."""
    (prior0, prior1), (like0, like1) = naive_bayes_estimate(examples, hyper.alpha, vocabulary)
    return LinearModel(
        kind="naive_bayes", weights=tuple(b - a for a, b in zip(like0, like1)),
        bias=prior1 - prior0, vocabulary=vocabulary, pipeline_fingerprint=fingerprint,
        hyper=hyper, feature_kind=feature_kind)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(const: int, mult: int):
    """SeedSequence's hash, whose constant moves on by `mult` at each call."""
    def hashmix(value: int) -> int:
        nonlocal const
        const, value = const * mult & _M32, value ^ const
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return result ^ result >> 16


class _Shuffle:
    """numpy's `default_rng(seed).permutation(n)` on successive calls, without
    numpy. SeedSequence hashes the seed's 32-bit words into a pool of 4 and
    the pool into PCG64's 128-bit state and increment; PCG64 outputs the
    XSL-RR of each next state; Generator.shuffle swaps each i from n-1 down
    to 1 with a masked-rejection draw from [0, i], on 32-bit draws that take
    a 64-bit output's low half, then its high half."""

    MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        entropy = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
        w = [hashmix(pool[k % 4]) for k in range(8)]
        # four little-endian 64-bit words: the state's high and low, the increment's
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self.inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _M128 | 1
        self.state = ((self.inc + state) * self.MULTIPLIER + self.inc) & _M128
        self.half = None  # the high half of the last 64-bit output, not yet drawn

    def next64(self) -> int:
        self.state = s = (self.state * self.MULTIPLIER + self.inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def next32(self) -> int:
        half, self.half = self.half, None
        if half is None:
            out = self.next64()
            half, self.half = out & _M32, out >> 32
        return half

    def permutation(self, n: int) -> list[int]:
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1  # numpy draws 64 bits from i = 2**32 on
            while (j := self.next32() & mask) > i:
                pass
            order[i], order[j] = order[j], order[i]
        return order


def _rescaled(v: list[float], s: float) -> float:
    """Multiply v by s in place; returns the new ||v||^2."""
    v[:] = [s * x for x in v]
    return sum(x * x for x in v)


def train_svm(
    examples: Sequence[tuple[FeatureVector, int]],
    hyper: SvmHyper = SvmHyper(),
    *,
    vocabulary: Vocabulary,
    fingerprint: str = "",
    feature_kind: str = "bow",
) -> LinearModel:
    """Pegasos (Shalev-Shwartz et al., ICML 2007): stochastic subgradient
    descent on the hinge loss, labels remapped to {-1,+1}, the learning rate
    1/(lam*t) at update t and w projected onto the 1/sqrt(lam) ball. w is
    kept as s*v with ||v||^2 at hand, so the decay and the projection only
    rescale s and a step costs O(its row's entries); s is folded into v when
    tiny (0 after step 1). Epochs visit the rows in numpy's default_rng(seed)
    permutation order. An overflowing norm of w raises StressKitError."""
    labels = _labels(examples, vocabulary.size)
    rows = [list(vec.items()) for vec, _ in examples]
    lam, radius = hyper.lam, 1.0 / math.sqrt(hyper.lam)
    v = [0.0] * vocabulary.size
    s, sq, b, t = 1.0, 0.0, 0.0, 0  # w = s*v and sq = ||v||^2
    shuffle = _Shuffle(hyper.seed)
    for _epoch in range(hyper.epochs):
        for idx in shuffle.permutation(len(rows)):
            t += 1
            eta = 1.0 / (lam * t)
            y = 2.0 * labels[idx] - 1.0
            row_dot = 0.0
            for i, x in rows[idx]:
                row_dot += v[i] * x
            margin = y * (s * row_dot + b)
            s *= 1.0 - eta * lam
            if abs(s) < 1e-100:  # far above underflow, and rare: a fold costs O(V)
                sq, s = _rescaled(v, s), 1.0
            if margin < 1.0:
                step = eta * y / s
                for i, x in rows[idx]:
                    old = v[i]
                    v[i] = new = old + step * x
                    sq += (new - old) * (new + old)
                b += eta * y
            if not math.isfinite(sq):  # ||v|| overflowed; ||w|| may not have
                sq, s = _rescaled(v, s), 1.0
                if not math.isfinite(sq):
                    raise StressKitError("non-finite model parameters")
            norm = abs(s) * math.sqrt(sq)
            if norm > radius:
                s *= radius / norm
    return LinearModel(
        kind="svm", weights=tuple(s * x for x in v), bias=b, vocabulary=vocabulary,
        pipeline_fingerprint=fingerprint, hyper=hyper, feature_kind=feature_kind)


def train(docs: Sequence[Sequence[str]], labels: Sequence[int],
          hyper: LogisticHyper | NaiveBayesHyper | SvmHyper, *, feature_kind: str = "bow",
          min_df: int = 1, max_size: int | None = None, fingerprint: str = "") -> LinearModel:
    """Fit the vocabulary on `docs` (stem lists, textprep.TokenTable.stems),
    vectorize them and fit the classifier that the type of `hyper` names."""
    vocabulary = fit_vocabulary(docs, min_df=min_df, max_size=max_size)
    examples = [(vector(doc, vocabulary, feature_kind), label)
                for doc, label in zip(docs, labels, strict=True)]
    # looked up per call, so a trainer replaced by module attribute is the one called
    trainer = {LogisticHyper: train_logistic, NaiveBayesHyper: train_naive_bayes,
               SvmHyper: train_svm}[type(hyper)]
    return trainer(examples, hyper, vocabulary=vocabulary, fingerprint=fingerprint,
                   feature_kind=feature_kind)


def decision_value(model: LinearModel, x: FeatureVector) -> float:
    """bias + weights . x, summed bias first and then in the vector's item
    order, so mirrored naive Bayes inputs cancel exactly."""
    z = model.bias
    weights = model.weights
    size = model.vocabulary.size
    for i, v in x.items():
        if not 0 <= i < size:
            raise StressKitError(f"feature index {i} outside vocabulary of {size}")
        z += weights[i] * v
    return float(z)


def predict(model: LinearModel, x: FeatureVector) -> Prediction:
    """Label 1 iff the decision value is >= 0 (ties go to the stressed class);
    the score is its sigmoid for logistic and naive Bayes, the margin for svm."""
    z = decision_value(model, x)
    return Prediction(score=z if model.kind == "svm" else sigmoid(z), label=1 if z >= 0 else 0)


def predict_stems(model: LinearModel, stems: Iterable[str]) -> Prediction:
    """Predict a document from its stems (textprep.TokenTable.stems)."""
    return predict(model, vector(stems, model.vocabulary, model.feature_kind))


def check_fingerprint(model: LinearModel, table: TokenTable) -> None:
    """Warn when the model was trained under another preprocessing configuration."""
    if model.pipeline_fingerprint and model.pipeline_fingerprint != table.fingerprint():
        warnings.warn("model preprocessing fingerprint does not match current configuration",
                      stacklevel=3)


def save_model(model: LinearModel, path: str | Path) -> None:
    hyper = model.hyper._asdict()
    if model.effective_learning_rate is not None:
        hyper["effective_learning_rate"] = model.effective_learning_rate
    hyper["features"] = model.feature_kind
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "hyperparameters": hyper,
        "pipeline_fingerprint": model.pipeline_fingerprint,
        "vocabulary": {
            "tokens": list(model.vocabulary.tokens),
            "df": list(model.vocabulary.doc_freq),
            "n_docs": model.vocabulary.n_docs,
        },
        "parameters": {"weights": list(model.weights), "bias": model.bias},
    }
    Path(path).write_text(json.dumps(document), encoding="utf-8")


def _format_1_parameters(kind: str, params: dict) -> dict:
    """Format 1 kept logistic weights as `coef` and naive Bayes as its
    log_prior/log_likelihood estimate; svm already used weights/bias."""
    if kind == "logistic":
        return {"weights": params["coef"], "bias": params["bias"]}
    if kind == "naive_bayes":
        prior, likelihood = params["log_prior"], params["log_likelihood"]
        return {"weights": [b - a for a, b in zip(likelihood[0], likelihood[1], strict=True)],
                "bias": prior[1] - prior[0]}
    return params


def _all_of(values, *types: type) -> bool:
    """`values` is a list of items whose type is exactly one of `types` (a bool is no int)."""
    return isinstance(values, list) and {type(v) for v in values} <= set(types)


def _number(value, what: str) -> float:
    """A JSON number as a float."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is an integer too large for a float") from None


def _hyper(kind: str, hyper: dict):
    """The kind's hyperparameters from a model file: int fields (`epochs`,
    `seed`) must be ints, the rest finite numbers, and a bool is neither.
    Values keep their JSON type, so saving writes the same bytes back."""
    values = {}
    for name, default in HYPERS[kind]._field_defaults.items():  # a default's type is its field's
        value = values[name] = hyper[name]
        if type(default) is int and type(value) is not int:
            raise TypeError(f"hyperparameter {name} {value!r} is not an integer")
        if type(default) is float and not math.isfinite(_number(value, f"hyperparameter {name}")):
            raise ValueError(f"hyperparameter {name} {value!r} is not finite")
    return HYPERS[kind](**values)


def load_model(path: str | Path) -> LinearModel:
    """Read a model file of the current format, or of format 1. Every field
    prediction reads is type-checked; a malformed one raises StressKitError
    naming the file."""
    try:
        with open_text(path) as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise StressKitError(f"{path}: not a valid model file: {exc}") from None
    if not isinstance(document, dict) or "format_version" not in document:
        raise StressKitError(f"{path}: not a model document")
    version = document["format_version"]
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise StressKitError(f"{path}: format version {version} "
                             f"(this reader supports 1 and {MODEL_FORMAT_VERSION})")
    kind = document.get("kind")
    if kind not in tuple(HYPERS):  # not a dict test, so an unhashable kind is just unknown
        raise StressKitError(f"{path}: unknown classifier kind {kind!r}")
    try:
        hyper = dict(document["hyperparameters"])
        params = document["parameters"]
        tokens, df, n_docs = (document["vocabulary"][k] for k in ("tokens", "df", "n_docs"))
        if version == 1:
            params = _format_1_parameters(kind, params)
        if not _all_of(tokens, str):
            raise TypeError("vocabulary tokens are not a list of strings")
        if not _all_of(df, int) or len(df) != len(tokens) or min(df, default=0) < 0:
            raise ValueError("vocabulary df is not one non-negative integer per token")
        if type(n_docs) is not int or n_docs < 1:
            raise ValueError(f"vocabulary n_docs {n_docs!r} is not a positive integer")
        if not isinstance(document["pipeline_fingerprint"], str):
            raise TypeError("pipeline_fingerprint is not a string")
        weights, rate = params["weights"], hyper.get("effective_learning_rate")
        if not _all_of(weights, int, float):
            raise TypeError("weights are not a flat list of numbers")
        if rate is not None:
            rate = _number(rate, "effective_learning_rate")
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError(f"effective_learning_rate {rate!r} is not finite and positive")
        model = LinearModel(
            kind=kind,
            weights=tuple(map(float, weights)),
            bias=_number(params["bias"], "bias"),
            vocabulary=Vocabulary(tokens=tuple(tokens), doc_freq=tuple(df), n_docs=n_docs),
            pipeline_fingerprint=document["pipeline_fingerprint"],
            hyper=_hyper(kind, hyper),
            feature_kind=hyper.get("features", "bow"),
            effective_learning_rate=rate,
        )
    except (LookupError, TypeError, ValueError, OverflowError, StressKitError) as exc:
        raise StressKitError(f"{path}: malformed model document: {exc}") from None
    if model.feature_kind not in ("bow", "tfidf"):
        raise StressKitError(f"{path}: unknown feature kind {model.feature_kind!r}")
    return model
