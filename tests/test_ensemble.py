import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabfusion.ensemble import (
    BlendConfig,
    EnsembleModel,
    alpha_grid,
    blend,
    ensemble_from_dict,
    ensemble_to_dict,
    grid_search_alpha,
)
from tabfusion.metrics import auc


def test_blend_endpoints_are_exact():
    p1 = np.array([0.2, 0.7, 0.9])
    p2 = np.array([0.5, 0.1, 0.4])
    assert np.array_equal(blend(p1, p2, 1.0), p1)
    assert np.array_equal(blend(p1, p2, 0.0), p2)


def test_blend_midpoint():
    assert blend([0.2], [0.6], 0.5).tolist() == [0.4]


def test_blend_validates_inputs():
    with pytest.raises(ValueError):
        blend([0.2, 0.3], [0.5], 0.5)
    with pytest.raises(ValueError):
        blend([0.2], [0.5], 1.5)


def test_blend_stays_in_unit_interval_and_is_monotone():
    rng = np.random.default_rng(0)
    p1 = rng.random(50)
    p2 = rng.random(50)
    out = blend(p1, p2, 0.3)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    bumped = blend(np.minimum(p1 + 0.05, 1.0), np.minimum(p2 + 0.05, 1.0), 0.3)
    assert np.all(bumped >= out)


def test_alpha_grid_contains_endpoints():
    for step in (0.01, 0.05, 0.3, 0.5):
        grid = alpha_grid(step)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert all(a < b for a, b in zip(grid, grid[1:]))


def test_grid_search_prefers_pure_gbdt_when_needed():
    # p1 ranks perfectly with razor-thin margins; p2 is violently reversed, so
    # any alpha below 1 lets p2 break at least one pair
    y = np.array([1, 1, 1, 0, 0, 0])
    p1 = np.array([0.52, 0.51, 0.50, 0.49, 0.48, 0.47])
    p2 = np.array([0.0, 0.0, 0.0, 0.99, 0.99, 0.99])
    alpha_star, record = grid_search_alpha(y, p1, p2, BlendConfig(grid_step=0.01))
    # exhaustive-grid oracle: recompute every AUC and take the first argmax
    best = None
    for alpha in alpha_grid(0.01):
        score = auc(y, alpha * p1 + (1 - alpha) * p2)
        if best is None or score > best[1]:
            best = (alpha, score)
    assert alpha_star == best[0] == 1.0
    assert dict(record)[1.0] == 1.0


def test_grid_search_tie_rule_picks_smallest_alpha():
    y = np.array([0, 1, 0, 1])
    p = np.array([0.2, 0.8, 0.3, 0.7])
    alpha_star, record = grid_search_alpha(y, p, p.copy())
    assert alpha_star == 0.0
    scores = [score for _, score in record]
    assert len(set(scores)) == 1


def test_grid_search_record_covers_full_grid():
    y = np.array([0, 1, 0, 1])
    rng = np.random.default_rng(1)
    _, record = grid_search_alpha(y, rng.random(4), rng.random(4), BlendConfig(grid_step=0.25))
    assert [alpha for alpha, _ in record] == alpha_grid(0.25)


def test_grid_search_rejects_single_class():
    with pytest.raises(ValueError):
        grid_search_alpha([1, 1], [0.1, 0.2], [0.3, 0.4])


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_grid_search_endpoint_dominance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    y = rng.integers(0, 2, n)
    if y.sum() in (0, n):
        y[: 2] = [0, 1]
    p1 = rng.random(n)
    p2 = rng.random(n)
    alpha_star, record = grid_search_alpha(y, p1, p2, BlendConfig(grid_step=0.05))
    best = max(score for _, score in record)
    assert best >= auc(y, p1) - 1e-15
    assert best >= auc(y, p2) - 1e-15
    assert dict(record)[alpha_star] == best


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_grid_search_invariant_to_row_permutation(seed):
    rng = np.random.default_rng(seed)
    n = 20
    y = rng.integers(0, 2, n)
    if y.sum() in (0, n):
        y[:2] = [0, 1]
    p1 = rng.random(n)
    p2 = rng.random(n)
    perm = rng.permutation(n)
    a1, r1 = grid_search_alpha(y, p1, p2, BlendConfig(grid_step=0.1))
    a2, r2 = grid_search_alpha(y[perm], p1[perm], p2[perm], BlendConfig(grid_step=0.1))
    assert a1 == a2
    assert r1 == r2


def test_grid_search_is_reproducible():
    rng = np.random.default_rng(9)
    y = rng.integers(0, 2, 30)
    y[:2] = [0, 1]
    p1 = rng.random(30)
    p2 = rng.random(30)
    assert grid_search_alpha(y, p1, p2) == grid_search_alpha(y, p1, p2)


def test_blend_config_validation():
    with pytest.raises(ValueError):
        BlendConfig(grid_step=0.0)
    with pytest.raises(ValueError):
        BlendConfig(grid_step=0.7)


def test_ensemble_dict_round_trip():
    model = EnsembleModel(
        alpha=0.37,
        gbdt_ref="gbdt.json",
        xdeepfm_ref="xdeepfm.json",
        search_record=((0.0, 0.5), (0.37, 0.9), (1.0, 0.8)),
    )
    restored = ensemble_from_dict(json.loads(json.dumps(ensemble_to_dict(model))))
    assert restored == model


def test_ensemble_from_dict_rejects_malformed_entries():
    d = ensemble_to_dict(EnsembleModel(0.4, "gbdt.json", "xdeepfm.json", ((0.4, 0.9),)))
    for key, value, detail in [
        ("alpha", math.nan, "malformed ensemble model file: expected a finite number, got nan"),
        ("alpha", 1.5, "alpha must lie in"),
        ("alpha", "0.4", "malformed ensemble model file"),
        ("alpha", True, "malformed ensemble model file: expected a finite number, got True"),
        ("alpha", 10**400, "malformed ensemble model file"),
        ("gbdt_ref", 7, "file names"),
        ("search_record", 5, "malformed ensemble model file"),
        ("search_record", [[0.4]], "not enough values"),
        ("search_record", [[True, "x"]], "malformed ensemble model file: expected a finite number, got True"),
        ("search_record", [[0.4, "x"]], "malformed ensemble model file: expected a finite number, got 'x'"),
        ("search_record", [[math.nan, 1e400]], "malformed ensemble model file: expected a finite number, got nan"),
        ("search_record", [[0.4, 1e400]], "malformed ensemble model file: expected a finite number, got inf"),
    ]:
        with pytest.raises(ValueError, match=detail):
            ensemble_from_dict({**d, key: value})


def _leaf_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _leaf_paths(child, (*path, key))


_ENSEMBLE_DOC = ensemble_to_dict(EnsembleModel(0.4, "gbdt.json", "xdeepfm.json", ((0.0, 0.6), (0.4, 0.9), (1.0, 0.7))))


@given(
    st.sampled_from(list(_leaf_paths(_ENSEMBLE_DOC))[1:]),
    st.one_of(
        st.integers(-3, 3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([2**70, 10**400, True, False, None, "", "x", "0.5", "ensemble", [], [1], [0.5, 0.5], {}]),
    ),
)
@settings(max_examples=300, deadline=None)
def test_ensemble_from_dict_fails_closed_on_any_corrupted_entry(path, replacement):
    d = json.loads(json.dumps(_ENSEMBLE_DOC))
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = replacement
    try:
        model = ensemble_from_dict(d)
    except (ValueError, KeyError):
        return
    # the entry still describes a valid ensemble (a new file name or number): every number is a finite float
    assert type(model.alpha) is float and 0.0 <= model.alpha <= 1.0
    assert all(isinstance(ref, str) for ref in (model.gbdt_ref, model.xdeepfm_ref))
    assert all(type(x) is float and math.isfinite(x) for pair in model.search_record for x in pair)
    assert all(len(pair) == 2 for pair in model.search_record)
