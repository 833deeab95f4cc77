"""Config parser tests: the canonical rendering round-trips, and every bad
line is rejected with its line number."""

import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hebblab.config import (ConfigError, DataConfig, FullConfig, TrainConfig,
                            parse_config, parse_config_text, render_effective)

BASE = render_effective(FullConfig()).splitlines()


def key_lines() -> list[int]:
    """Indices into BASE of the ``key = value`` lines."""
    return [i for i, line in enumerate(BASE) if "=" in line]


def section_end(i: int) -> int:
    """Index just past the last line of the section holding BASE[i]."""
    j = i + 1
    while j < len(BASE) and not BASE[j].startswith("["):
        j += 1
    return j


def default_of(line: str):
    """The default value of the key that a BASE line sets."""
    key = line.partition("=")[0].strip()
    for obj in (FullConfig(), FullConfig().data, FullConfig().train):
        if hasattr(obj, key):
            return getattr(obj, key)
    raise KeyError(key)


def rejected_at(text: str, lineno: int, match: str) -> None:
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, origin="cfg")
    assert re.match(rf"cfg:{lineno}: .*{match}", str(err.value)), str(err.value)


class TestRoundTrip:
    def test_defaults(self):
        cfg = FullConfig()
        assert parse_config_text(render_effective(cfg)) == cfg

    def test_non_default_values(self):
        cfg = FullConfig(
            arch="mini_resnet",
            data=DataConfig(source="cifar10", num_classes=10, image_size=32,
                            train_images="a.bin,b.bin", test_images="t.bin"),
            train=TrainConfig(epochs_phase1=3, swa_start_epoch=2, lr_phase1=0.1 / 3,
                              augment=False, precision="float64", margin=0.7))
        assert parse_config_text(render_effective(cfg)) == cfg

    def test_every_field_renders_once_and_round_trips_off_default(self):
        # every field at a valid value other than its default, so a field
        # that is not rendered, or not parsed back, changes the result
        cfg = FullConfig(
            arch="mini_resnet",
            data=DataConfig(source="cifar100", num_classes=100, image_size=32,
                            train_per_class=9, val_per_class=8, test_per_class=6,
                            noise=0.5, train_images="ti", test_images="vi"),
            train=TrainConfig(epochs_phase1=5, epochs_phase2=4, batch_size=16,
                              lr_phase1=0.02, lr_phase2=0.003, momentum=0.5,
                              weight_decay=0.0, swa_start_epoch=3, early_stop_patience=2,
                              augment=False, seed=11, precision="float64",
                              lambda_hebb1=0.2, lambda_hebb2=0.3, lambda_metric=0.4,
                              lambda_cons=0.05, margin=0.25))
        text = render_effective(cfg)
        keys = [line.partition("=")[0].strip() for line in text.splitlines() if "=" in line]
        for part, default in ((cfg.data, DataConfig()), (cfg.train, TrainConfig())):
            for f in fields(part):
                assert getattr(part, f.name) != getattr(default, f.name), f.name
                assert keys.count(f.name) == 1, f.name
        assert len(keys) == 1 + len(fields(DataConfig)) + len(fields(TrainConfig))
        assert parse_config_text(text) == cfg


class TestParseConfigFile:
    def test_file_parses_as_its_text(self, tmp_path):
        text = render_effective(FullConfig(arch="mini_resnet", train=TrainConfig(seed=3)))
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        assert parse_config(str(path)) == parse_config_text(text)

    def test_bad_line_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# run\n[train]\nseed = 1\nbatch_size = big\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert str(err.value).startswith(f"{path}:4: bad value for batch_size")

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_path_is_named(self, tmp_path, name):
        path = str(tmp_path / name)
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(path)


class TestBadLines:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), line=st.one_of(
        st.from_regex(r"\Azz[a-z_]{0,8}\Z").map(lambda key: f"{key} = 1"),
        # options and a section the format no longer has
        st.sampled_from(["hebb_activation_stat = mean", "[analysis]",
                         "swa_phase2 = false", "channels = 1",
                         "train_labels = a", "test_labels = b"])))
    def test_unknown_key(self, data, line):
        key = line.partition("=")[0].strip()
        # a removed line goes under the section that held it or a later one
        home = {"swa_phase2": "[train]", "channels": "[data]", "train_labels": "[data]",
                "test_labels": "[data]"}.get(key, "[loss]")
        first = 1 if line.startswith("zz") else BASE.index(home) + 1
        at = data.draw(st.integers(first, len(BASE)))
        lines = BASE[:at] + [line] + BASE[at:]
        match = {"[analysis]": r"unknown section \[analysis\]",
                 "hebb_activation_stat": r"unknown key 'hebb_activation_stat' in \[loss\]",
                 }.get(key, f"unknown key '{key}'")
        rejected_at("\n".join(lines), at + 1, match)

    def test_removed_source(self):
        rejected_at("[data]\nsource = idx\n", 2, "source must be one of")

    def test_negative_seed(self):
        rejected_at("[train]\nseed = -1\n", 2, "seed must be >= 0")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_duplicate_key(self, data):
        i = data.draw(st.sampled_from(key_lines()))
        at = data.draw(st.integers(i + 1, section_end(i)))
        lines = BASE[:at] + [BASE[i]] + BASE[at:]
        key = BASE[i].partition("=")[0].strip()
        rejected_at("\n".join(lines), at + 1, f"duplicate key '{key}'")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           bad=st.sampled_from(["x", "1.5.2", "ten", "--", "nan", "-inf", "1e999"]))
    def test_badly_typed_value(self, data, bad):
        typed = [i for i in key_lines()
                 if type(default_of(BASE[i])) in (int, float, bool)]
        i = data.draw(st.sampled_from(typed))
        key = BASE[i].partition("=")[0].strip()
        lines = BASE[:i] + [f"{key} = {bad}"] + BASE[i + 1:]
        rejected_at("\n".join(lines), i + 1, f"bad value for {key}")

    @pytest.mark.parametrize("line", ["lambda_hebb1 = nan", "weight_decay = nan",
                                      "noise = inf", "lambda_cons = inf",
                                      "lr_phase1 = inf"])
    def test_non_finite_float(self, line):
        key = line.partition("=")[0].strip()
        i = next(i for i in key_lines() if BASE[i].startswith(f"{key} ="))
        lines = BASE[:i] + [line] + BASE[i + 1:]
        rejected_at("\n".join(lines), i + 1, f"bad value for {key}: expected a finite")


class TestCrossField:
    @pytest.mark.parametrize("source,body,lineno,key", [
        ("cifar10", "num_classes = 4", 3, "num_classes"),
        ("cifar100", "num_classes = 10", 3, "num_classes"),
        ("cifar10", "num_classes = 10\nimage_size = 16", 4, "image_size"),
    ])
    def test_source_fixes_field(self, source, body, lineno, key):
        text = f"[data]\nsource = {source}\n{body}\ntrain_images = a\ntest_images = c\n"
        rejected_at(text, lineno, f"{key} must be .* for {source} data")

    def test_defaulted_field_names_the_source_line(self):
        # num_classes keeps its default (4); the conflict is the source line
        text = "# cifar\n[data]\nsource = cifar10\ntrain_images = a\ntest_images = b\n"
        rejected_at(text, 3, "num_classes must be 10 for cifar10 data, got 4")

    def test_consistent_file_sources_parse(self):
        cifar = parse_config_text("[data]\nsource = cifar100\nnum_classes = 100\n"
                                  "image_size = 32\ntrain_images = a\ntest_images = b\n")
        assert cifar.data.num_classes == 100

    @pytest.mark.parametrize("size,limit", [(16, 40), (32, 104)])
    def test_synthetic_class_count_stays_below_nyquist(self, size, limit):
        text = f"[data]\nimage_size = {size}\nnum_classes = {{}}\n"
        assert parse_config_text(text.format(limit)).data.num_classes == limit
        rejected_at(text.format(limit + 1), 3,
                    f"num_classes must be <= {limit} for synthetic data at image_size {size}, "
                    f"got {limit + 1}")

    def test_swa_start_beyond_a_written_epoch_count_names_its_line(self):
        # swa_start_epoch keeps its default (24)
        rejected_at("[train]\nepochs_phase1 = 10\n", 2,
                    r"swa_start_epoch must be in \[1, epochs_phase1\], got 24 "
                    "with epochs_phase1 = 10")

    def test_missing_cifar_files_name_the_source_line(self):
        rejected_at("[data]\nsource = cifar10\nnum_classes = 10\nimage_size = 32\n", 2,
                    "train_images is required for cifar data")
