import itertools

import numpy as np
import pytest

import chowdefect.sampling as sampling
from chowdefect.gfpoly import DimensionMismatch, PrimeField
from chowdefect.sampling import (
    FormSampler,
    RecordedForms,
    derive_retry_seed,
    field_stream,
)

F = PrimeField(8191)


def test_substreams_keyed_not_ordered():
    a = FormSampler(123, F)
    b = FormSampler(123, F)
    # drawing in a different order gives identical forms for identical keys
    f1 = a.linear_form("l", 3, i=0, gamma=1)
    f2 = a.linear_form("l", 3, i=0, gamma=0)
    g2 = b.linear_form("l", 3, i=0, gamma=0)
    g1 = b.linear_form("l", 3, i=0, gamma=1)
    assert np.array_equal(f1, g1) and np.array_equal(f2, g2)
    assert not np.array_equal(f1, f2)


def test_distinct_keys_distinct_streams():
    s = FormSampler(5, F)
    forms = [
        s.linear_form("l", 3, i=0, gamma=0),
        s.linear_form("l", 3, i=1, gamma=0),
        s.linear_form("l", 3, i=0, j=1, gamma=0),
        s.linear_form("g", 3, i=0, gamma=0),
    ]
    as_tuples = {tuple(f) for f in forms}
    assert len(as_tuples) == len(forms)


def test_seed_changes_everything():
    a = FormSampler(1, F).linear_form("l", 3)
    b = FormSampler(2, F).linear_form("l", 3)
    assert not np.array_equal(a, b)


def test_values_in_field_range():
    for p in (2, 3, 8191, 32749):
        stream = field_stream(9, p, "o")
        vals = [next(stream) for _ in range(500)]
        assert min(vals) >= 0 and max(vals) < p
        if p > 2:
            assert len(set(vals)) > 1


def test_a_key_is_drawn_once(monkeypatch):
    """Asked again for a key, a sampler returns the form it drew: equal
    coefficients, no new draw and no resample counted again."""
    s = FormSampler(3, PrimeField(2))  # over F_2 a one-coefficient form is zero half the time
    for gamma in itertools.count():
        first = s.linear_form("l", 0, gamma=gamma)
        if s.resamples:
            break
    counted = s.resamples
    streams = []

    def counted_stream(*args, **kwargs):
        streams.append(args)
        return field_stream(*args, **kwargs)

    monkeypatch.setattr(sampling, "field_stream", counted_stream)
    again = s.linear_form("l", 0, gamma=gamma)
    assert np.array_equal(again, first) and s.resamples == counted and streams == []
    assert np.array_equal(first, FormSampler(3, PrimeField(2)).linear_form("l", 0, gamma=gamma))


def test_support_mask():
    s = FormSampler(8, F)
    support = [0, 2, 5]
    form = s.linear_form("kj", 6, i=0, j=1, support=support)
    outside = np.ones(7, dtype=bool)
    outside[support] = False
    assert not form[outside].any()
    assert form[support].any()


def test_recorded_forms_replay_and_validation():
    coeffs = np.array([1, 2, 3, 4], dtype=np.int64)
    rec = RecordedForms({("l", 0, 0, 0): coeffs})
    assert np.array_equal(rec.linear_form("l", 3, i=0), coeffs)
    with pytest.raises(DimensionMismatch):
        rec.linear_form("l", 3, i=1)
    with pytest.raises(DimensionMismatch):
        rec.linear_form("l", 4, i=0)
    with pytest.raises(DimensionMismatch):
        rec.linear_form("l", 3, i=0, support=[0, 1])  # coeffs 2..3 are nonzero


def test_retry_seeds_differ():
    seeds = {derive_retry_seed(42, a) for a in range(1, 6)}
    assert len(seeds) == 5
    assert derive_retry_seed(42, 1) == derive_retry_seed(42, 1)
