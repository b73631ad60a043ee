"""Flat key=value training configuration.

Unknown keys are hard errors with the offending line number; the
environment seed override beats both the file and CLI flags.
"""

import pytest

from patchloom.config import (
    SEED_ENV_VAR,
    ConfigError,
    load_config,
    parse_config_text,
)
from patchloom.training import TrainingConfig


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def test_defaults():
    config = load_config()
    assert isinstance(config, TrainingConfig)
    assert config.seed == 1
    assert config.hidden_size == 512
    assert config.embed_size == 256
    assert config.dropout == 0.5


def test_parse_basic_file():
    text = "\n".join([
        "# pipeline settings",
        "seed = 7",
        "",
        "dropout = 0.3   # less than default",
        "hidden_size = 32",
    ])
    values = parse_config_text(text)
    assert values == {"seed": 7, "dropout": 0.3, "hidden_size": 32}


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("seed = 1\n\nhiden_size = 32\n")


def test_missing_equals_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 1\njust some words\n")


def test_bad_int_value_names_the_key():
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text("seed = lots\n")


def test_file_values_route_to_training(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("hidden_size = 48\nlearning_rate = 0.01\nmax_epochs = 30\n")
    config = load_config(str(path))
    assert config.hidden_size == 48
    assert config.learning_rate == pytest.approx(0.01)
    assert config.max_epochs == 30


def test_override_beats_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("seed = 5\ndropout = 0.4\n")
    config = load_config(str(path), overrides={"seed": 9, "dropout": None})
    assert config.seed == 9
    # a None override means "flag not given" and keeps the file value
    assert config.dropout == pytest.approx(0.4)


def test_env_seed_beats_everything(tmp_path, monkeypatch):
    path = tmp_path / "run.conf"
    path.write_text("seed = 5\n")
    monkeypatch.setenv(SEED_ENV_VAR, "13")
    config = load_config(str(path), overrides={"seed": 9})
    assert config.seed == 13


def test_env_seed_must_be_integer(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "soon")
    with pytest.raises(ConfigError):
        load_config()


def test_seed_lands_in_both_configs():
    # the seed flag reaches training's seed, the only one there is
    config = load_config(overrides={"seed": 21})
    assert config.seed == 21


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="momentum"):
        load_config(overrides={"momentum": 0.9})


def test_invalid_training_value_becomes_config_error(tmp_path):
    path = tmp_path / "run.conf"
    for line in ("dropout = 1.5", "dropout = nan", "learning_rate = 0",
                 "minibatch_words = 0", "hidden_size = 0", "embed_size = 0",
                 "max_epochs = -1", "lex_weight = 2", "lex_weight = -0.1",
                 "decay_factor = 0", "decay_factor = 1.5", "dev_fraction = 1"):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_config(str(path))
    path.write_text("max_epochs = 0\n")
    assert load_config(str(path)).max_epochs == 0
