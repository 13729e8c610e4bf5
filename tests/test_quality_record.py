"""The quality record's ``compare`` flags and its McNemar counts against the
defaults, on a small corpus."""

import dataclasses

import numpy as np
import pytest

import quality_record
import synth
from nbtree_ids.cli import RunConfig, _load_config, build_parser
from nbtree_ids.dataset import load_dataset, stratified_sample, stratified_split
from nbtree_ids.evaluation import ComparisonConfig, project_for_model, train_models
from nbtree_ids.exceptions import ConfigError
from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy

PROPOSED = quality_record.PROPOSED


def test_flags_give_the_cli_config():
    flags = ["--no-relabel", "--iterations", "2"]
    config = quality_record.run_config(flags)
    assert config == _load_config(build_parser().parse_args(["compare", *flags]))
    assert config == dataclasses.replace(RunConfig(), relabel=False, iterations=2)
    assert quality_record.run_config([]) == RunConfig()


@pytest.mark.parametrize("flags, key", [
    (["--folds", "1"], "folds"),
    (["--seed", "3"], "seed"),
    (["--no-baselines"], "baselines"),
    (["--no-such-flag"], "--no-such-flag"),
    (["--train-on-relabeled"], "--train-on-relabeled"),
])
def test_bad_or_fixed_flags_raise_naming_the_setting(flags, key):
    with pytest.raises(ConfigError, match=key):
        quality_record.run_config(flags)


def test_main_reads_compare_flags_after_the_separator(tmp_path, capsys):
    out = tmp_path / "q.json"
    with pytest.raises(SystemExit) as exit_info:
        quality_record.main(["--corpus", str(tmp_path / "c.csv"), "--label", "x",
                             "--out", str(out), "--", "--folds", "1"])
    assert exit_info.value.code == 2
    assert "folds" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "c.csv").exists()


def test_mcnemar_counts_b_where_the_reference_is_right():
    reference = np.array([True, True, True, False, False])
    model = np.array([False, False, True, True, False])
    assert quality_record.mcnemar(reference, model) == {"b": 2, "c": 1, "p": 1.0}


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("quality") / "corpus.csv"
    synth.write_kdd_corpus(path, seed=quality_record.CORPUS_SEED, scale=0.05)
    return load_dataset(path, kdd99_schema(), kdd99_taxonomy())


def test_variant_mcnemar_puts_b_on_defaults_right_variant_wrong(small_corpus):
    seed = 3
    config = quality_record.run_config(["--no-relabel"])
    got = quality_record.record_seed(small_corpus, seed, config)[PROPOSED]["complement_mcnemar"]

    sample = stratified_sample(small_corpus, quality_record.SAMPLE_FRACTION, seed)
    train = stratified_split(sample, quality_record.TEST_FRACTION, seed).train
    complement = stratified_split(small_corpus, quality_record.SAMPLE_FRACTION, seed).train
    right = {}
    for name, comparison in (("defaults", ComparisonConfig(baselines=False)),
                             ("variant", config.comparison_config())):
        model = train_models(train, comparison)[1][PROPOSED]
        seen = project_for_model(model, complement)
        right[name] = model.predict_dataset(seen) == seen.labels
    b = int((right["defaults"] & ~right["variant"]).sum())
    c = int((~right["defaults"] & right["variant"]).sum())
    assert b != c  # so that swapped counts would fail
    assert (got["b"], got["c"]) == (b, c)


def test_defaults_record_no_mcnemar_of_the_proposed_model(small_corpus):
    record = quality_record.record_seed(small_corpus, 3)
    assert "complement_mcnemar" not in record[PROPOSED]
    assert all("complement_mcnemar" in record[mid] for mid in quality_record.BASELINES)
