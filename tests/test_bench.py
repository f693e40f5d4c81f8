"""scripts/bench.py declares configs that parse, without building any orbital
or tensor: a bad key or value fails here, not minutes into a bench run."""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest

from landau_hf.config import load_config, parse_config

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_set(config, changes):
    for key, value in (changes or {}).items():
        assert getattr(config, key) == value, key


def test_every_ladder_rung_config_parses(bench):
    for path in bench.LADDER_CONFIGS.values():
        for M, n_max, N in bench.LADDER:
            changes = {"M": M, "n_max": n_max, "N": N}
            assert_set(bench.problem(path, changes).config, changes)


def test_every_orbital_and_tensor_row_config_parses(bench, tmp_path):
    table = tmp_path / "table.npy"
    np.save(table, np.zeros((1, 1)))            # a stand-in: no pair value is read
    for changes in (None, bench.WIDE_CHANGES, bench.HUGE_CHANGES):
        assert_set(bench.problem(bench.TENSOR_CONFIG, changes).config, changes)
    variants = bench.tensor_variants(str(table))
    kinds = []
    for changes, variant_changes, contractions in variants:
        config = bench.problem(bench.TENSOR_CONFIG, variant_changes).config
        assert_set(config, changes)
        assert_set(config, variant_changes)
        assert set(contractions) <= {"mean_field", "pair_amplitudes"}
        kinds.append(config.potential.kind)
    assert kinds == ["periodic-gaussian"] * (1 + len(bench.TENSOR_SIGMAS)) + [
        "zero", "separable-cosine", "tabulated", "periodic-gaussian", "periodic-gaussian"]


def test_compare_configs_parse(bench):
    for path in bench.COMPARE_CONFIGS:
        assert bench.problem(path).config == load_config(ROOT / path)


def test_exact_text_parses_to_the_exact_changes(bench):
    expect = dataclasses.replace(load_config(ROOT / bench.EXACT_CONFIG), **bench.EXACT_CHANGES)
    assert parse_config(bench.exact_text()) == expect
    assert expect == bench.problem(bench.EXACT_CONFIG, bench.EXACT_CHANGES).config
