import pytest

from sfvda.config import VARIANTS, RunConfig, Variant, apply_overrides, emit_config, parse_config


def test_emit_parse_roundtrip_defaults():
    cfg = RunConfig()
    assert parse_config(emit_config(cfg)) == cfg


def test_emit_parse_roundtrip_modified():
    cfg = RunConfig(
        classes=5,
        shift_severity=0.35,
        lam=1e-2,
        variant="tc",
        freeze_scope="last_layer_only",
        lr_adapt=5e-4,
    )
    assert parse_config(emit_config(cfg)) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="betaa_fc"):
        parse_config("betaa_fc = 1.0")
    # no command wrote to an output directory, so the key is gone
    with pytest.raises(ValueError, match="line 1: unknown config key 'out_dir'"):
        parse_config("out_dir = runs")


def test_values_override_base():
    base = parse_config("epochs_source = 3\nbatch_size = 8")
    assert base.epochs_source == 3
    assert base.batch_size == 8
    assert base.epochs_adapt == RunConfig().epochs_adapt
    layered = parse_config("epochs_source = 5", base=base)
    assert layered.epochs_source == 5
    assert layered.batch_size == 8


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nseed = 7\n")
    assert cfg.seed == 7


def test_malformed_line():
    with pytest.raises(ValueError, match="key = value"):
        parse_config("seed 7")


def test_variant_validation():
    with pytest.raises(ValueError, match="variant"):
        parse_config("variant = bogus")
    with pytest.raises(ValueError, match="freeze_scope"):
        parse_config("freeze_scope = nothing")


def test_variant_sites_are_checked_when_the_variant_is_made():
    # a variant's sites are fixed at import, so no batch re-checks them
    with pytest.raises(ValueError, match=r"variant sites \['bogus'\] are not among \['feature', 'prediction'\]"):
        Variant((("beta_im", "im"),), frozenset({"feature", "bogus"}))
    assert Variant((), frozenset({"feature", "prediction"})).sites == {"feature", "prediction"}


def test_variant_coefficients_are_the_weight_products_on_each_path():
    # a distinct prime per weight, so every product names the weights on its path
    cfg = RunConfig(alpha_local=2.0, alpha_overall=3.0, beta_fc=5.0, beta_pc=7.0, beta_tc=11.0, beta_im=13.0, beta_ce=17.0)
    full = {"fc": 11.0 * 5.0, "pc_local": 11.0 * 7.0 * 2.0, "pc_overall": 11.0 * 7.0 * 3.0, "im": 13.0, "pl_ce": 17.0}
    expected = {
        "full": full,
        "fc": {"fc": 5.0},
        "pc": {"pc_local": 2.0, "pc_overall": 3.0},
        "pc_no_overall": {"pc_local": 2.0},
        "tc": {"fc": 5.0, "pc_local": 7.0 * 2.0, "pc_overall": 7.0 * 3.0},
        "na": full,
        "a_at_f": full,
        "a_at_p": full,
        "shot_baseline": {"im": 13.0, "pl_ce": 17.0},
        "source_only": {},
    }
    assert list(VARIANTS) == list(expected)
    for name, variant in VARIANTS.items():
        # components in the tree's left-to-right order
        assert list(variant.coefficients(cfg).items()) == list(expected[name].items()), name


def test_apply_overrides_precedence():
    cfg = parse_config("seed = 7")
    cfg = apply_overrides(cfg, {"seed": "9", "batch_size": "16"})
    assert cfg.seed == 9
    assert cfg.batch_size == 16
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(cfg, {"sed": "1"})


def test_negative_seed_names_the_key():
    for build in (lambda: parse_config("seed = -1"), lambda: apply_overrides(RunConfig(), {"seed": "-1"})):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "config key 'seed': must be >= 0, got -1"
    assert RunConfig(seed=0).seed == 0


def test_int_value_names_key_and_line():
    with pytest.raises(ValueError, match=r"config line 2: config key 'frames': expected an integer, got '4.5'"):
        parse_config("seed = 7\nframes = 4.5")
    with pytest.raises(ValueError, match=r"config key 'frames': expected an integer, got 'abc'"):
        apply_overrides(RunConfig(), {"frames": "abc"})


def test_float_value_names_key_and_line():
    with pytest.raises(ValueError, match=r"config line 1: config key 'lr_adapt': expected a number, got 'fast'"):
        parse_config("lr_adapt = fast")
    with pytest.raises(ValueError, match=r"config key 'lam': expected a number"):
        apply_overrides(RunConfig(), {"lam": "1e-3x"})
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=r"config line 1: config key 'lr_source': expected a finite number"):
            parse_config(f"lr_source = {raw}")
    with pytest.raises(ValueError, match=r"config key 'lam': expected a finite number, got 'NaN'"):
        apply_overrides(RunConfig(), {"lam": "NaN"})


def test_m_max_below_one_rejected():
    with pytest.raises(ValueError, match="m_max"):
        parse_config("m_max = 0")
    with pytest.raises(ValueError, match="m_max"):
        RunConfig(m_max=-1)


@pytest.mark.parametrize(
    "key, raw",
    [
        ("epochs_source", "0"),
        ("epochs_adapt", "-1"),
        ("pl_rounds", "0"),
        ("variant", "bogus"),
        ("freeze_scope", "nothing"),
        ("frame_dim", "0"),
        ("d_enc", "0"),
        ("d", "0"),
        ("d_b", "0"),
        ("lam", "-1"),
        ("beta_fc", "-1"),
        ("eps_norm", "0"),
        ("eps_smooth", "1.0"),
        ("batch_size", "0"),
        ("batch_size", "1"),
        ("batch_size", "-3"),
        ("lr_source", "-1"),
        ("lr_adapt", "-1"),
        ("momentum", "-5"),
        ("weight_decay", "-1"),
        ("classes", "1"),
        ("videos_per_class", "0"),
        ("frames", "2"),
        ("shift_severity", "1.5"),
        ("noise_std", "-1"),
    ],
)
def test_invalid_value_names_the_key(key, raw):
    with pytest.raises(ValueError, match=rf"config key '{key}': .*{raw}"):
        apply_overrides(RunConfig(), {key: raw})
    with pytest.raises(ValueError, match=rf"config key '{key}'"):
        parse_config(f"{key} = {raw}")


def test_zero_optimizer_values_are_valid():
    cfg = RunConfig(lr_source=0.0, lr_adapt=0.0, momentum=0.0, weight_decay=0.0)
    assert parse_config(emit_config(cfg)) == cfg
