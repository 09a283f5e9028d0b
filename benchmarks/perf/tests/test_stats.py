import pytest

from stats import digest, percentile, spearman


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 90) == 50
    assert percentile(values, 100) == 50


def test_percentile_returns_a_sample_and_ignores_order():
    assert percentile([3, 1, 2, 4], 50) == 2
    assert percentile([7], 90) == 7
    # 120 samples leave 12 beyond p90.
    assert percentile(range(1, 121), 90) == 108


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spearman():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [9, 7, 5, 1]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3, 4], [1, 4, 9, 16]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [5, 5, 5]) == 0.0
    # Ties share a mean rank.
    assert spearman([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)


def test_digest_depends_on_keys_and_their_order():
    assert digest([(1, 2), (3,)]) == digest([(1, 2), (3,)])
    assert digest([(1, 2), (3,)]) != digest([(3,), (1, 2)])
    assert digest([(1, 2), (3,)]) != digest([(1, 2), (4,)])
