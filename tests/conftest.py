import numpy as np
import pytest

from mbss import cem
from mbss.dataset import ApiVocabulary, Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(4155)


def make_dataset(X_labeled, labels, X_unlabeled, K=None):
    """Dataset with generic feature names inferred from the matrix width."""
    X_labeled = np.atleast_2d(np.asarray(X_labeled, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
    if X_unlabeled.size == 0:
        X_unlabeled = np.empty((0, X_labeled.shape[1]))
    X_unlabeled = np.atleast_2d(X_unlabeled)
    if K is None:
        K = int(labels.max()) if labels.size else 1
    vocab = ApiVocabulary(tuple(f"f{i:03d}" for i in range(X_labeled.shape[1])))
    return Dataset(X_labeled, labels, X_unlabeled, vocab, K)


def start_for(ds, config):
    """``cem.initialize`` of a dataset's labeled block."""
    return cem.initialize(ds.labeled_features, ds.labels, ds.K, config)


def fit_dataset(ds, config):
    """``cem.fit`` of a dataset: its labeled block's start and its unlabeled rows."""
    return cem.fit(start_for(ds, config), ds.unlabeled_features)
