"""From-scratch classifiers over sparse feature vectors: logistic regression
(full-batch gradient descent), multinomial Naive Bayes with Laplace
smoothing, and a linear SVM trained by pegasos-style stochastic subgradient
descent. `train` is the one way to build a model: it fits the vocabulary on
stem lists, vectorizes them and calls the trainer that the type of its
hyperparameters names. The trainers are deterministic given their seeds,
return one LinearModel that decides on bias + weights . x, and share one
design matrix, a sparse row store in plain numpy arrays. Numpy is imported
only by the code that trains, so loading a model and predicting never
import it.

Models persist as single self-describing JSON documents (format 2; format 1
files still load); load(save(m)) reproduces predictions bit-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import StressKitError, open_text
from .features import FeatureVector, Vocabulary, fit_vocabulary, vector

if TYPE_CHECKING:  # numpy loads only where a trainer computes with it
    import numpy as np

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class LogisticHyper:
    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 1e-4
    seed: int = 42


@dataclass(frozen=True)
class NaiveBayesHyper:
    alpha: float = 1.0


@dataclass(frozen=True)
class SvmHyper:
    lam: float = 1e-4
    epochs: int = 10
    seed: int = 42


@dataclass(frozen=True)
class LinearModel:
    """Every classifier decides on bias + weights . x; `kind` says which
    trainer made it and whether the score is a probability or a margin."""

    kind: str  # "logistic", "naive_bayes" or "svm"
    weights: tuple[float, ...]  # one per vocabulary entry
    bias: float
    vocabulary: Vocabulary
    pipeline_fingerprint: str
    hyper: LogisticHyper | NaiveBayesHyper | SvmHyper
    feature_kind: str = "bow"
    effective_learning_rate: float | None = None  # logistic only

    def __post_init__(self):
        if len(self.weights) != self.vocabulary.size:
            raise StressKitError(
                f"{len(self.weights)} weights for vocabulary of {self.vocabulary.size}")
        if not all(map(math.isfinite, self.weights)) or not math.isfinite(self.bias):
            raise StressKitError("non-finite model parameters")


HYPERS = {"logistic": LogisticHyper, "naive_bayes": NaiveBayesHyper, "svm": SvmHyper}


@dataclass(frozen=True)
class Prediction:
    score: float  # probability for logistic/naive bayes, margin for svm
    label: int


@dataclass(frozen=True)
class _SparseRows:
    """Compressed sparse rows: row k's entries are data[indptr[k]:indptr[k+1]]
    at columns indices[...]; rows[e] is the row of entry e. Both products add
    in entry order starting from 0.0, as a loop over the rows would."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    shape: tuple[int, int]

    def dot(self, w: np.ndarray) -> np.ndarray:
        """X . w"""
        import numpy as np
        return np.bincount(self.rows, weights=self.data * np.take(w, self.indices),
                           minlength=self.shape[0])

    def tdot(self, r: np.ndarray) -> np.ndarray:
        """X^T . r"""
        import numpy as np
        per_entry = np.repeat(r, np.diff(self.indptr))  # r[rows], without the gather
        return np.bincount(self.indices, weights=self.data * per_entry, minlength=self.shape[1])


def _assemble(
    examples: Sequence[tuple[FeatureVector, int]],
    n_features: int,
) -> tuple[_SparseRows, np.ndarray]:
    import numpy as np
    data, indices, indptr = [], [], [0]
    labels = []
    for vec, label in examples:
        for i, v in vec.items():
            if not 0 <= i < n_features:
                raise StressKitError(f"feature index {i} outside vocabulary of {n_features}")
            indices.append(i)
            data.append(v)
        indptr.append(len(indices))
        labels.append(label)
    indptr = np.asarray(indptr, dtype=np.intp)
    X = _SparseRows(
        data=np.asarray(data, dtype=float),
        indices=np.asarray(indices, dtype=np.intp),
        indptr=indptr,
        rows=np.repeat(np.arange(len(examples)), np.diff(indptr)),
        shape=(len(examples), n_features),
    )
    y = np.asarray(labels, dtype=float)
    return X, y


def _check_trainable(X: _SparseRows, y: np.ndarray) -> None:
    if len(y) == 0 or y.min() == y.max():
        raise StressKitError("training data must contain both classes")
    if X.shape[1] == 0:
        raise StressKitError("empty vocabulary: no stem is in at least min_df training documents")


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _objective_at(z: np.ndarray, coef: np.ndarray, y: np.ndarray, l2: float) -> float:
    import numpy as np
    bce = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return bce + 0.5 * l2 * float(coef @ coef)


def _gradient_at(
    z: np.ndarray, coef: np.ndarray, X: _SparseRows, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    import numpy as np
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    residual = p - y
    grad_coef = X.tdot(residual) / len(y) + l2 * coef
    grad_bias = float(np.mean(residual))
    return grad_bias, grad_coef


def logistic_objective(bias: float, coef: np.ndarray, X: _SparseRows, y: np.ndarray, l2: float) -> float:
    """Average binary cross-entropy plus (l2/2)*||coef||^2 (bias excluded)."""
    return _objective_at(X.dot(coef) + bias, coef, y, l2)


def logistic_gradient(
    bias: float, coef: np.ndarray, X: _SparseRows, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    return _gradient_at(X.dot(coef) + bias, coef, X, y, l2)


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
    _check_trainable(X, y)
    lr = hyper.learning_rate
    for _ in range(9):  # initial rate plus up to 8 halvings
        bias = 0.0
        coef = np.zeros(vocabulary.size)
        z = X.dot(coef) + bias
        previous = _objective_at(z, coef, y, hyper.l2)
        diverged = False
        for _epoch in range(hyper.epochs):
            grad_bias, grad_coef = _gradient_at(z, coef, X, y, hyper.l2)
            bias -= lr * grad_bias
            coef -= lr * grad_coef
            z = X.dot(coef) + bias
            loss = _objective_at(z, coef, y, hyper.l2)
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


def naive_bayes_estimate(
    examples: Sequence[tuple[FeatureVector, int]],
    alpha: float,
    vocabulary: Vocabulary,
) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial estimate over token counts with Laplace smoothing alpha:
    log_prior of shape (2,) and log_likelihood of shape (2, V)."""
    import numpy as np
    if alpha <= 0:
        raise ValueError("smoothing alpha must be positive")
    X, y = _assemble(examples, vocabulary.size)
    _check_trainable(X, y)
    V = vocabulary.size
    log_prior = np.empty(2)
    log_likelihood = np.empty((2, V))
    for c in (0, 1):
        mask = y == c
        log_prior[c] = math.log(mask.sum() / len(y))
        counts = X.tdot(mask.astype(float))  # column sums over the rows of class c
        log_likelihood[c] = np.log(counts + alpha) - math.log(counts.sum() + alpha * V)
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
    log_prior, log_likelihood = naive_bayes_estimate(examples, hyper.alpha, vocabulary)
    return LinearModel(
        kind="naive_bayes", weights=tuple((log_likelihood[1] - log_likelihood[0]).tolist()),
        bias=float(log_prior[1] - log_prior[0]), vocabulary=vocabulary,
        pipeline_fingerprint=fingerprint, hyper=hyper,
        feature_kind=feature_kind)


def train_svm(
    examples: Sequence[tuple[FeatureVector, int]],
    hyper: SvmHyper = SvmHyper(),
    *,
    vocabulary: Vocabulary,
    fingerprint: str = "",
    feature_kind: str = "bow",
) -> LinearModel:
    """Pegasos-style stochastic subgradient descent on the hinge loss.

    Labels are remapped to {-1,+1}; the learning rate at update t is
    1/(lam*t) and the weight vector is projected onto the 1/sqrt(lam) ball.
    Shuffling is seeded, so training is deterministic.
    """
    import numpy as np
    X, y01 = _assemble(examples, vocabulary.size)
    _check_trainable(X, y01)
    y = 2.0 * y01 - 1.0
    n = X.shape[0]
    rng = np.random.default_rng(hyper.seed)
    w = np.zeros(vocabulary.size)
    b = 0.0
    radius = 1.0 / math.sqrt(hyper.lam)
    t = 0
    for _epoch in range(hyper.epochs):
        for idx in rng.permutation(n):
            t += 1
            eta = 1.0 / (hyper.lam * t)
            lo, hi = X.indptr[idx], X.indptr[idx + 1]
            cols, vals = X.indices[lo:hi], X.data[lo:hi]
            # accumulate adds in entry order, as the row loop of a CSR product does
            row_dot = np.add.accumulate(vals * w[cols])[-1] if hi > lo else 0.0
            margin = y[idx] * (row_dot + b)
            w *= 1.0 - eta * hyper.lam
            if margin < 1.0:
                w[cols] += eta * y[idx] * vals
                b += eta * y[idx]
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm
    return LinearModel(
        kind="svm", weights=tuple(w.tolist()), bias=float(b), vocabulary=vocabulary,
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


def save_model(model: LinearModel, path: str | Path) -> None:
    hyper = asdict(model.hyper)
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
    for f in fields(HYPERS[kind]):
        value = values[f.name] = hyper[f.name]
        if f.type == "int" and type(value) is not int:
            raise TypeError(f"hyperparameter {f.name} {value!r} is not an integer")
        if f.type == "float" and not math.isfinite(_number(value, f"hyperparameter {f.name}")):
            raise ValueError(f"hyperparameter {f.name} {value!r} is not finite")
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
    if version not in (1, MODEL_FORMAT_VERSION):
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
