import hashlib
import json
import os
import subprocess
import sys

import pytest

from hrem import cli
from hrem.cli import main


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture
def sim_dir(tmp_path):
    cfg = write_json(
        tmp_path / "sim.json",
        {"seed": 7, "preset": "syn52", "k": 2, "n_events": 80,
         "baserate": -2.0, "sigma": 0.5, "out_dir": str(tmp_path / "sim")},
    )
    assert main(["simulate", "--config", cfg]) == 0
    return tmp_path


def fit_config(tmp_path, out="fit", **over):
    cfg = {
        "seed": 1,
        "from_manifest": str(tmp_path / "sim" / "manifest.json"),
        "preset": "syn52",
        "sampler": "collapsed",
        "n_train": 60,
        "out_dir": str(tmp_path / out),
    }
    cfg.update(over)
    if cfg["sampler"] != "map":  # MAP reads no sweep settings
        cfg = {"n_burnin": 30, "n_keep": 30, **cfg}
    return write_json(tmp_path / (out + ".json"), cfg)


def test_hrem_runs_without_importing_scipy(tmp_path):
    # A fresh interpreter imports every hrem module and simulates, then
    # lists the scipy modules that got loaded: the runtime needs numpy alone.
    cfg = write_json(tmp_path / "sim.json", {"seed": 1, "preset": "syn52", "k": 1,
                                             "n_events": 20, "out_dir": str(tmp_path / "sim")})
    code = (
        "import importlib, pkgutil, sys\n"
        "import hrem\n"
        "for m in pkgutil.iter_modules(hrem.__path__):\n"
        "    importlib.import_module('hrem.' + m.name)\n"
        "assert hrem.cli.main(['simulate', '--config', %r]) == 0\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n" % cfg
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "sim" / "events_000.csv").exists()


def test_simulate_missing_seed_names_field(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"preset": "syn52", "n_events": 10})
    assert main(["simulate", "--config", cfg]) == 1
    assert "seed" in capsys.readouterr().err


def test_simulate_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


def test_simulate_writes_manifest_with_hashes(sim_dir):
    man = json.load(open(sim_dir / "sim" / "manifest.json"))
    assert len(man["sequences"]) == 2
    for s in man["sequences"]:
        assert s["sha256"] == sha256(s["file"])
    assert man["truths"]["sha256"] == sha256(man["truths"]["file"])
    truths = json.load(open(man["truths"]["file"]))
    assert len(truths["beta_k"]) == 2


def test_simulate_reproducible_byte_for_byte(tmp_path):
    hashes = []
    for name in ("a", "b"):
        cfg = write_json(
            tmp_path / (name + ".json"),
            {"seed": 3, "preset": "syn52", "k": 1, "n_events": 40,
             "baserate": -2.0, "out_dir": str(tmp_path / name)},
        )
        assert main(["simulate", "--config", cfg]) == 0
        hashes.append(sha256(tmp_path / name / "events_000.csv"))
    assert hashes[0] == hashes[1]


def test_fit_and_manifest(sim_dir):
    cfg = fit_config(sim_dir)
    code = main(["fit", "--config", cfg, "--allow-nonconverged"])
    assert code in (0, 2)
    man = json.load(open(sim_dir / "fit" / "manifest.json"))
    assert man["settings"]["sampler"] == "collapsed"
    assert man["dims"]["sequences"] == 2
    for entry in man["posterior"].values():
        assert entry["sha256"] == sha256(entry["file"])


def test_fit_tempering_flags_recorded(sim_dir):
    cfg = fit_config(sim_dir, out="fit_t", n_burnin=10, n_keep=10, sampler="tempering",
                     ladder=[1, 2, 4, 8, 16])
    code = main(["fit", "--config", cfg, "--allow-nonconverged"])
    assert code in (0, 2)
    man = json.load(open(sim_dir / "fit_t" / "manifest.json"))
    assert man["settings"]["sampler"] == "tempering"
    assert man["settings"]["ladder"] == [1, 2, 4, 8, 16]


def _strict_json(path):
    def reject(token):
        raise ValueError("%s is not JSON" % token)

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_fit_tempering_records_its_rates_per_replica_and_pair(sim_dir):
    cfg = fit_config(sim_dir, out="fit_t", sampler="tempering", n_burnin=10, n_keep=10,
                     ladder=[1, 2, 4], t_swap=2)
    assert main(["fit", "--config", cfg, "--allow-nonconverged"]) in (0, 2)
    diag = _strict_json(sim_dir / "fit_t" / "manifest.json")["diagnostics"]
    assert len(diag["accept_rate"]) == 3
    assert len(diag["swaps_proposed"]) == len(diag["swaps_accepted"]) == 2
    assert len(diag["swap_rate_per_pair"]) == 2 and sum(diag["swaps_proposed"]) == 10
    assert diag["swap_rate"] == sum(diag["swaps_accepted"]) / 10


def test_fit_tempering_without_a_swap_writes_null_not_nan(sim_dir):
    for out, over in (("fit_0", {"t_swap": 0}), ("fit_short", {"t_swap": 50})):
        cfg = fit_config(sim_dir, out=out, sampler="tempering", n_burnin=3, n_keep=6, **over)
        assert main(["fit", "--config", cfg, "--allow-nonconverged"]) in (0, 2)
        diag = _strict_json(sim_dir / out / "manifest.json")["diagnostics"]
        assert diag["swap_rate"] is None and diag["swap_rate_per_pair"] == [None] * 4


def test_fit_chain_settings_out_of_range_exit_one_naming_the_key(sim_dir, capsys):
    bad = [("collapsed", "n_burnin", -3), ("tempering", "n_burnin", -3),
           ("collapsed", "n_keep", 0), ("tempering", "n_keep", 0),
           ("collapsed", "thin", 0), ("tempering", "thin", 0), ("tempering", "t_swap", -1),
           ("map", "seed", -1)]
    for sampler, key, value in bad:
        cfg = fit_config(sim_dir, out="fit_bad", sampler=sampler, **{key: value})
        assert main(["fit", "--config", cfg, "--allow-nonconverged"]) == 1, (sampler, key)
        err = capsys.readouterr().err
        assert "%s=%d" % (key, value) in err, err
        assert not os.path.exists(sim_dir / "fit_bad" / "manifest.json")


_CHAIN_DIAGNOSTICS = {"ess_mu", "rhat_mu", "ess_beta", "rhat_beta", "max_rhat", "min_ess"}


def test_fit_manifest_diagnostics_keys_per_sampler(sim_dir):
    want = {
        "collapsed": _CHAIN_DIAGNOSTICS,
        "tempering": _CHAIN_DIAGNOSTICS | {"swap_rate", "swap_rate_per_pair", "swaps_proposed",
                                           "swaps_accepted", "accept_rate", "ladder", "t_swap"},
        "map": {"warnings", "iterations", "converged", "grad_norm"},
    }
    for sampler, keys in want.items():
        run = {} if sampler == "map" else {"n_burnin": 5, "n_keep": 5}
        cfg = fit_config(sim_dir, out="fit_" + sampler, sampler=sampler, **run)
        assert main(["fit", "--config", cfg, "--allow-nonconverged"]) in (0, 2)
        diag = json.load(open(sim_dir / ("fit_" + sampler) / "manifest.json"))["diagnostics"]
        assert set(diag) == keys, sampler


@pytest.mark.parametrize("sampler", ["collapsed", "tempering", "map"])
def test_fit_under_an_inverse_gamma_prior_without_a_mean_runs(sim_dir, sampler, capsys):
    run = {} if sampler == "map" else {"n_burnin": 5, "n_keep": 5}
    cfg = fit_config(sim_dir, out="fit_a1", sampler=sampler, hyper={"alpha_sigma": 1}, **run)
    assert main(["fit", "--config", cfg]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_fit_map_sampler(sim_dir):
    cfg = fit_config(sim_dir, out="fit_map", sampler="map")
    assert main(["fit", "--config", cfg]) == 0
    diag = json.load(open(sim_dir / "fit_map" / "manifest.json"))["diagnostics"]
    assert diag["converged"] is True and diag["warnings"] == []
    assert diag["iterations"] >= 1 and diag["grad_norm"] < 1e-3


def _fit_with_context_track(tmp_path, contexts):
    """A map fit of one 200-event CSV under baserate + context "b"; its exit code."""
    rows = ["t,sender,recipient"] + ["%r,%d,%d" % (0.5 * (m + 1), m % 3, (m + 1) % 3)
                                     for m in range(200)]
    (tmp_path / "events.csv").write_text("\n".join(rows) + "\n")
    cov = write_json(tmp_path / "cov.json", {
        "actors": [{"id": i} for i in range(3)], "dyads": [], "contexts": contexts})
    cfg = write_json(tmp_path / "fit.json", {
        "seed": 1, "sequences": [{"file": str(tmp_path / "events.csv"), "tau": 101.0}],
        "covariates": {"file": cov},
        "spec": [{"type": "baserate"}, {"type": "context", "label": "b"}],
        "sampler": "map", "out_dir": str(tmp_path / "fit")})
    return main(["fit", "--config", cfg])


def test_fit_rejects_an_unordered_context_track_naming_the_file(tmp_path, capsys):
    track = [{"start": 10.0, "label": "b"}, {"start": 0.0, "label": "a"}]
    assert _fit_with_context_track(tmp_path, track) == 1
    err = capsys.readouterr().err
    assert "cov.json" in err and "context 1 starts at 0, not after context 0 at 10" in err, err
    assert not (tmp_path / "fit" / "manifest.json").exists()


def test_fit_rejects_a_context_track_that_misses_events_naming_the_file(tmp_path, capsys):
    track = [{"start": 5.0, "label": "a"}, {"start": 50.0, "label": "b"}]
    assert _fit_with_context_track(tmp_path, track) == 1
    err = capsys.readouterr().err
    assert "cov.json" in err and "event 0: time 0.5 not covered by context track" in err, err
    track[0]["start"] = 0.0
    assert _fit_with_context_track(tmp_path, track) == 0


def test_fit_rejects_and_does_not_record_settings_its_sampler_does_not_read(sim_dir, capsys):
    for over in ({"sampler": "map", "n_burnin": 3}, {"sampler": "collapsed", "ladder": [1, 2]}):
        assert main(["fit", "--config", fit_config(sim_dir, out="fit_x", **over)]) == 1
        err = capsys.readouterr().err
        key = [k for k in over if k != "sampler"][0]
        assert repr(key) in err and over["sampler"] in err, err
    assert main(["fit", "--config", fit_config(sim_dir, out="fit_map", sampler="map")]) == 0
    man = json.load(open(sim_dir / "fit_map" / "manifest.json"))
    assert sorted(man["settings"]) == ["hyper", "n_train", "sampler"]
    # tempering accepts mu_update but does not record it
    cfg = fit_config(sim_dir, out="fit_t", sampler="tempering", n_burnin=2, n_keep=2,
                     mu_update="conjugate")
    assert main(["fit", "--config", cfg, "--allow-nonconverged"]) in (0, 2)
    man = json.load(open(sim_dir / "fit_t" / "manifest.json"))
    assert sorted(man["settings"]) == ["hyper", "ladder", "n_burnin", "n_keep", "n_train",
                                       "sampler", "t_swap", "thin"]


def test_fit_map_rejects_the_convergence_threshold_it_does_not_read(sim_dir, capsys):
    cfg = fit_config(sim_dir, out="fit_map", sampler="map", rhat_max=1.1)
    assert main(["fit", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "'rhat_max'" in err and "map" in err, err
    assert not os.path.exists(sim_dir / "fit_map" / "manifest.json")
    # the chain samplers read it and do not record it among their settings
    cfg = fit_config(sim_dir, out="fit_c", n_burnin=2, n_keep=4, rhat_max=1e9)
    assert main(["fit", "--config", cfg]) == 0
    man = json.load(open(sim_dir / "fit_c" / "manifest.json"))
    assert "rhat_max" not in man["settings"]


def test_fit_with_an_undefined_rhat_fails_the_gate_and_keeps_nan_in_the_manifest(sim_dir,
                                                                                  capsys):
    for sampler in ("collapsed", "tempering"):
        out = "fit_" + sampler
        cfg = fit_config(sim_dir, out=out, sampler=sampler, n_burnin=2, n_keep=3, rhat_max=1e9)
        assert main(["fit", "--config", cfg]) == 2, sampler
        captured = capsys.readouterr()
        assert "max_rhat=nan" in captured.out
        assert "R-hat is undefined" in captured.err and "has 3" in captured.err, captured.err
        diag = json.load(open(sim_dir / out / "manifest.json"))["diagnostics"]
        assert diag["max_rhat"] != diag["max_rhat"]  # NaN
        assert main(["fit", "--config", cfg, "--allow-nonconverged"]) == 0


def test_fit_bad_ladder_exits_one_naming_the_config_and_key(sim_dir, capsys):
    for ladder, words in (([2, 4], "base temperature must be 1"),
                          ([1], "at least two chains"),
                          ([1, 4, 2], "non-decreasing")):
        cfg = fit_config(sim_dir, out="fit_l", sampler="tempering", n_burnin=2, n_keep=4,
                         ladder=ladder)
        assert main(["fit", "--config", cfg, "--allow-nonconverged"]) == 1, ladder
        err = capsys.readouterr().err
        assert cfg in err and "ladder" in err and words in err, err
        assert not os.path.exists(sim_dir / "fit_l" / "manifest.json")


@pytest.mark.parametrize("key, value, words", [
    ("n_keep", 20.7, "must be an integer, not 20.7"),
    ("n_keep", True, "must be an integer, not true"),
    ("n_keep", "x", 'must be an integer, not "x"'),
    ("ladder", "ab", 'must be a list of numbers, not "ab"'),
    ("ladder", "12", 'must be a list of numbers, not "12"'),
    ("rhat_max", "x", 'must be a number, not "x"'),
    ("seed", 1.5, "must be an integer, not 1.5"),
    ("seed", True, "must be an integer, not true"),
    ("seed", "x", 'must be an integer, not "x"'),
    ("sampler", ["map"], 'must be one of collapsed, tempering, map, not ["map"]'),
    ("hyper", {"mu_prior_sd": "x"}, 'mu_prior_sd must be a number, not "x"'),
    ("hyper", {"mu_prior_sd": True}, "mu_prior_sd must be a number, not true"),
    ("hyper", [1.0], "must be an object, not [1.0]"),
    ("out_dir", 5, "must be a string, not 5"),
    ("from_manifest", 5, "must be a string, not 5"),
    ("preset", "nope", 'must be a preset: syn52, syn6 or A1..G3, not "nope"'),
])
def test_fit_run_setting_of_the_wrong_type_exits_one_naming_the_config_and_key(
        sim_dir, capsys, key, value, words):
    over = dict({"sampler": "tempering", "n_burnin": 2, "n_keep": 4}, **{key: value})
    cfg = fit_config(sim_dir, out="fit_t", **over)
    assert main(["fit", "--config", cfg, "--allow-nonconverged"]) == 1
    err = capsys.readouterr().err
    assert "%s: %s %s" % (cfg, key, words) in err, err
    assert not os.path.exists(sim_dir / "fit_t" / "manifest.json")


@pytest.mark.parametrize("over, words", [
    ({"k": 2.5}, "k must be an integer, not 2.5"),
    ({"k": 0}, "k=0 is below 1"),
    ({"n_events": 40.7}, "n_events must be an integer, not 40.7"),
    ({"n_events": 0}, "n_events=0 is below 1"),
    ({"seed": 1.5}, "seed must be an integer, not 1.5"),
    ({"seed": -1}, "seed=-1 is below 0"),
    ({"sigma": -1}, "sigma must be nonnegative"),
    ({"mu": [1000.0] * 6}, "total rate inf exceeded ceiling"),
    ({"n_events": None, "tau": -1}, "tau must be positive, not -1.0"),
    ({"tau": 50.0}, "give exactly one of 'n_events' and 'tau'"),
    ({"n_events": None}, "give exactly one of 'n_events' and 'tau'"),
    ({"spec": [{"type": "baserate"}]}, "the syn52 mode does not read 'spec'"),
    ({"preset": "syn6", "n_actors": 4}, "the syn6 mode does not read 'n_actors'"),
    ({"preset": None, "spec": [{"type": "baserate"}], "n_actors": 4.6, "mu": [0.0]},
     "n_actors must be an integer, not 4.6"),
    ({"preset": None, "spec": [{"type": "baserate"}], "n_actors": 1, "mu": [0.0]},
     "n_actors=1 is below 2"),
    ({"preset": None, "spec": [{"type": "baserate"}], "n_actors": 4, "mu": [0.0],
      "broadcast": "yes"}, 'broadcast must be true or false, not "yes"'),
    ({"preset": None, "spec": [{"type": "baserate"}], "n_actors": 4, "mu": [0.0],
      "baserate": -2.0}, "the design mode does not read 'baserate'"),
    ({"preset": "A1", "spec": [{"type": "baserate"}], "n_actors": 4, "mu": [0.0]},
     "give exactly one of 'preset' and 'spec'"),
])
def test_simulate_setting_of_the_wrong_type_or_range_exits_one_naming_the_config_and_key(
        tmp_path, capsys, over, words):
    doc = dict({"seed": 7, "preset": "syn52", "k": 2, "n_events": 20,
                "out_dir": str(tmp_path / "sim")}, **over)
    cfg = write_json(tmp_path / "sim.json", doc)
    assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "%s: %s" % (cfg, words) in err and "Traceback" not in err, err
    assert not os.path.exists(tmp_path / "sim" / "manifest.json")


def test_fit_needs_exactly_one_of_preset_and_spec(sim_dir, capsys):
    for over in ({"spec": [{"type": "baserate"}]}, {"preset": None}):
        cfg = fit_config(sim_dir, out="fit_p", sampler="map", **over)
        assert main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "%s: give exactly one of 'preset' and 'spec'" % cfg in err, err
        assert not os.path.exists(sim_dir / "fit_p" / "manifest.json")


def test_fit_hyper_null_reads_as_the_default_priors(sim_dir):
    cfg = fit_config(sim_dir, out="fit_h", sampler="map", hyper=None)
    assert main(["fit", "--config", cfg]) == 0
    man = json.load(open(sim_dir / "fit_h" / "manifest.json"))
    assert man["settings"]["hyper"] == {}


@pytest.mark.parametrize("argv, words", [
    (["fit"], "the following arguments are required: --config"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["predict", "--manifest", "m.json", "--z", "5", "--n-train", "abc"],
     "argument --n-train: invalid int value: 'abc'"),
    (["diagnose", "--manifest", "m.json", "--surprise-threshold", "x"],
     "argument --surprise-threshold: invalid int value: 'x'"),
    (["predict", "--manifest", "m.json", "--z", "5,x"], "argument --z: invalid cutoffs value"),
    (["predict", "--manifest", "m.json", "--z", ""], "argument --z: invalid cutoffs value"),
])
def test_usage_error_exits_one_naming_the_option(capsys, argv, words):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err, err


def _readme_cell(value):
    if value is cli._REQUIRED:
        return "required"
    if isinstance(value, cli._ByMode):
        return ", ".join("%s: %s" % (mode, _readme_cell(v)) for mode, v in value.items())
    return "null" if value is None else "`%s`" % json.dumps(value)


def test_readme_config_table_matches_the_declarations():
    want = []
    for command, keys in (("simulate", cli._SIMULATE), ("fit", cli._FIT),
                          ("fit hyper", cli._HYPER)):
        for key, decl in keys.items():
            read_by = "all" if decl.modes is None else ", ".join(decl.modes)
            read_by += "".join("; %s accepts it unread" % mode for mode in decl.unread)
            least = "" if decl.least is None else str(decl.least)
            want.append([command, "`%s`" % key, decl.type.name, _readme_cell(decl.default),
                         least, read_by])
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    lines = open(readme, encoding="utf-8").read().splitlines()
    start = lines.index("| command | key | type | default | least value | read by |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows == want


def test_fit_unknown_attribute_exits_one(sim_dir, capsys):
    cfg = fit_config(
        sim_dir, out="fit_bad",
        preset=None, spec=[{"type": "dyad_match", "attr": "nonexistent"}],
    )
    assert main(["fit", "--config", cfg]) == 1
    assert "nonexistent" in capsys.readouterr().err


def test_predict_and_errors(sim_dir, capsys):
    cfg = fit_config(sim_dir)
    main(["fit", "--config", cfg, "--allow-nonconverged"])
    manifest = str(sim_dir / "fit" / "manifest.json")
    assert main(["predict", "--manifest", manifest, "--z", "5,20"]) == 0
    table = open(sim_dir / "fit" / "recall.csv").read().splitlines()
    assert table[0] == "sequence,z,recall_model,recall_baseline"
    assert len(table) == 1 + 2 * 2
    # z beyond the risk set
    assert main(["predict", "--manifest", manifest, "--z", "500"]) == 1
    assert "z=" in capsys.readouterr().err


def test_n_train_outside_the_events_exits_one_naming_the_sequence(sim_dir, capsys):
    for n_train in (0, 81, "60"):  # each sequence has 80 events
        cfg = fit_config(sim_dir, out="fit_n", sampler="map", n_train=n_train)
        assert main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "n_train=%r" % (n_train,) in err and "events_000.csv" in err, err
    main(["fit", "--config", fit_config(sim_dir, out="fit_n", sampler="map")])
    manifest = str(sim_dir / "fit_n" / "manifest.json")
    assert main(["predict", "--manifest", manifest, "--z", "5", "--n-train", "0"]) == 1
    assert "n_train=0" in capsys.readouterr().err


def unreadable_inputs(tmp_path):
    """A missing file, a directory and a file whose bytes are not UTF-8."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    return [str(tmp_path / "no.json"), str(tmp_path), str(bad)]


def test_predict_nonexistent_manifest(tmp_path, capsys):
    for path in unreadable_inputs(tmp_path):
        assert main(["predict", "--manifest", path, "--z", "5"]) == 1
        assert path in capsys.readouterr().err


def test_predict_empty_test_segment_marked_absent(sim_dir):
    # train on all events: test rows are empty-valued, not dropped
    cfg = fit_config(sim_dir, out="fit_full", n_train=80)
    main(["fit", "--config", cfg, "--allow-nonconverged"])
    manifest = str(sim_dir / "fit_full" / "manifest.json")
    assert main(["predict", "--manifest", manifest, "--z", "5"]) == 0
    rows = open(sim_dir / "fit_full" / "recall.csv").read().splitlines()[1:]
    assert all(r.endswith(",,") for r in rows)


def test_diagnose_outputs(sim_dir):
    cfg = fit_config(sim_dir)
    main(["fit", "--config", cfg, "--allow-nonconverged"])
    manifest = str(sim_dir / "fit" / "manifest.json")
    assert main(["diagnose", "--manifest", manifest, "--surprise-threshold", "50"]) == 0
    res = open(sim_dir / "fit" / "residuals.csv").read().splitlines()
    assert res[0] == "sequence,event,t,sender,recipient,pshift,deviance"
    labels = {r.split(",")[5] for r in res[1:]}
    assert labels & {"AB-BA", "AB-BY", "AB-XY", "AB-XA", "AB-XB", "AB-AY"}
    assert os.path.exists(sim_dir / "fit" / "surprise.csv")
    assert os.path.exists(sim_dir / "fit" / "probabilities.csv")


def test_diagnose_surprise_threshold_below_one_exits_one_naming_it(sim_dir, capsys):
    assert main(["fit", "--config", fit_config(sim_dir, sampler="map")]) == 0
    manifest = str(sim_dir / "fit" / "manifest.json")
    assert main(["diagnose", "--manifest", manifest, "--surprise-threshold", "0"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "--surprise-threshold" in err, err
    assert not os.path.exists(sim_dir / "fit" / "surprise.csv")


def _map_fit(sim_dir):
    from hrem import cli

    assert main(["fit", "--config", fit_config(sim_dir, sampler="map"),
                 "--allow-nonconverged"]) == 0
    manifest = str(sim_dir / "fit" / "manifest.json")
    return (manifest,) + cli._reload_fit(manifest)


@pytest.mark.parametrize("n_train", [60, None])
def test_fit_manifest_records_each_sequence_table_size(sim_dir, n_train):
    from hrem import cli
    from hrem.stats import unique_stat_table

    assert main(["fit", "--config", fit_config(sim_dir, sampler="map", n_train=n_train),
                 "--allow-nonconverged"]) == 0
    path = str(sim_dir / "fit" / "manifest.json")
    manifest, spec, risk, cov, histories, _ = cli._reload_fit(path)
    for entry, hist in zip(manifest["sequences"], histories):
        seen = hist.truncate(n_train) if n_train else hist
        table = unique_stat_table(spec, seen, risk, cov)
        assert entry["table"] == {"events": seen.m, "risk_rows": len(risk),
                                  "unique_rows": table.n_unique}
        assert entry["table"]["events"] == (n_train or hist.m) and len(risk) == 90


def test_diagnose_and_predict_build_the_matrices_of_one_walk_per_sequence(sim_dir,
                                                                          monkeypatch):
    from hrem.likelihood import score_events
    from hrem.stats import StatisticSpec

    path, manifest, spec, risk, cov, histories, samples = _map_fit(sim_dir)
    beta_hat = samples.beta_mean()
    calls = []
    blocks = StatisticSpec._block  # one call per block of the walk

    def counted(self, *args, **kw):
        calls.append(None)
        return blocks(self, *args, **kw)

    monkeypatch.setattr(StatisticSpec, "_block", counted)
    for argv, start in ((["diagnose", "--manifest", path], 0),
                        (["predict", "--manifest", path, "--z", "5,20"], 60)):
        del calls[:]
        for k, hist in enumerate(histories):
            score_events(beta_hat[k], hist, spec, risk, cov, start=start)
        one_walk = len(calls)
        del calls[:]
        assert main(argv) == 0
        assert len(calls) == one_walk > 0, argv


def test_recall_and_surprise_csvs_pin_the_per_event_scalar_tie_break(sim_dir):
    import numpy as np
    import scalar_oracle as oracle

    path, manifest, spec, risk, cov, histories, samples = _map_fit(sim_dir)
    assert main(["predict", "--manifest", path, "--z", "1,5,20"]) == 0
    assert main(["diagnose", "--manifest", path, "--surprise-threshold", "5"]) == 0
    beta_hat = samples.beta_mean()
    names = [str(lab) for lab in histories[0].actor_labels]
    recall = ["sequence,z,recall_model,recall_baseline"]
    rng = np.random.default_rng(manifest["seed"])
    for k, hist in enumerate(histories):
        model = oracle.event_log_hazards(beta_hat[k], hist, spec, risk, cov, start=60)
        baseline = oracle.baseline_scored(hist, risk, 60)
        for z in (1, 5, 20):
            rm = float(np.mean(oracle.tie_broken_ranks(model, rng) <= z))
            rb = float(np.mean(oracle.tie_broken_ranks(baseline, rng) <= z))
            recall.append("%d,%d,%r,%r" % (k, z, rm, rb))
    surprise, tied = ["sequence,sender,recipient,q,n_events"], 0
    rng = np.random.default_rng(manifest["seed"])
    for k, hist in enumerate(histories):
        scored = oracle.event_log_hazards(beta_hat[k], hist, spec, risk, cov)
        tied += sum(int(np.sum(s == s[row]) > 1) for s, row in scored)
        q = oracle.surprise(oracle.tie_broken_ranks(scored, rng), hist, 5)
        surprise += ["%d,%s,%s,%r,%d" % (k, names[i], names[j], float(qij), n)
                     for (i, j), (qij, n) in sorted(q.items())]
    assert tied
    assert open(sim_dir / "fit" / "recall.csv").read() == "\n".join(recall) + "\n"
    assert open(sim_dir / "fit" / "surprise.csv").read() == "\n".join(surprise) + "\n"


def test_diagnose_nonexistent_manifest(tmp_path, capsys):
    for path in unreadable_inputs(tmp_path):
        assert main(["diagnose", "--manifest", path]) == 1
        assert path in capsys.readouterr().err


def test_unwritable_outputs_exit_one_naming_the_path(sim_dir, capsys):
    main(["fit", "--config", fit_config(sim_dir), "--allow-nonconverged"])
    manifest = str(sim_dir / "fit" / "manifest.json")
    plain = sim_dir / "plain.txt"
    plain.write_text("")
    nodir = sim_dir / "nodir"
    sim = write_json(sim_dir / "under_a_file.json", {"seed": 1, "preset": "syn52", "n_events": 5,
                                                     "out_dir": str(plain / "sim")})
    cases = [
        (["predict", "--manifest", manifest, "--z", "5", "--out", str(nodir / "r.csv")],
         nodir / "r.csv"),
        (["select", manifest, manifest, "--out", str(nodir / "s.csv")], nodir / "s.csv"),
        (["simulate", "--config", sim], plain / "sim"),
        (["diagnose", "--manifest", manifest, "--out-dir", str(plain)], plain),
    ]
    capsys.readouterr()
    for argv, path in cases:
        assert main(argv) == 1, argv
        assert str(path) in capsys.readouterr().err, argv


def test_select_needs_two_manifests(sim_dir, capsys):
    cfg = fit_config(sim_dir)
    main(["fit", "--config", cfg, "--allow-nonconverged"])
    manifest = str(sim_dir / "fit" / "manifest.json")
    assert main(["select", manifest]) == 1
    assert ">= 2" in capsys.readouterr().err


def test_select_identical_manifests_stable(sim_dir, capsys):
    cfg = fit_config(sim_dir)
    main(["fit", "--config", cfg, "--allow-nonconverged"])
    manifest = str(sim_dir / "fit" / "manifest.json")
    assert main(["select", manifest, manifest]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    start = lines.index("manifest,dic,p_d,mean_deviance")
    assert lines[start + 1] == lines[start + 2]  # equal DIC, stable order


def test_select_rejects_different_data(sim_dir, tmp_path):
    cfg1 = fit_config(sim_dir)
    main(["fit", "--config", cfg1, "--allow-nonconverged"])
    other_sim = write_json(
        sim_dir / "sim2.json",
        {"seed": 99, "preset": "syn52", "k": 2, "n_events": 80,
         "baserate": -2.0, "out_dir": str(sim_dir / "sim2")},
    )
    main(["simulate", "--config", other_sim])
    cfg2 = fit_config(sim_dir, out="fit2", from_manifest=str(sim_dir / "sim2" / "manifest.json"))
    main(["fit", "--config", cfg2, "--allow-nonconverged"])
    assert main([
        "select",
        str(sim_dir / "fit" / "manifest.json"),
        str(sim_dir / "fit2" / "manifest.json"),
    ]) == 1


def test_select_scores_the_training_events(sim_dir, tmp_path):
    from hrem import diagnostics
    from hrem.cli import _reload_fit
    from hrem.stats import unique_stat_table

    reduced = [{"type": "baserate"}, {"type": "pshift", "kind": "AB-BA"}]
    main(["fit", "--config", fit_config(sim_dir, out="fit_a", sampler="map")])
    main(["fit", "--config", fit_config(sim_dir, out="fit_b", preset=None, spec=reduced,
                                        sampler="map")])
    main(["fit", "--config", fit_config(sim_dir, out="fit_c", n_train=70, sampler="map")])
    fits = [str(sim_dir / name / "manifest.json") for name in ("fit_a", "fit_b", "fit_c")]
    # same events, different training cut: not the same data
    assert main(["select", fits[0], fits[2]]) == 1
    out = str(tmp_path / "select.csv")
    assert main(["select", fits[0], fits[1], "--out", out]) == 0
    scored = {row.split(",")[0]: float(row.split(",")[1])
              for row in open(out).read().splitlines()[1:]}
    for path in fits[:2]:
        manifest, spec, risk, cov, histories, samples = _reload_fit(path)
        tables = [unique_stat_table(spec, h.truncate(60), risk, cov) for h in histories]
        assert scored[path] == diagnostics.dic(samples, tables)["dic"]


def test_select_reads_the_recorded_dic_and_parses_no_file(sim_dir, tmp_path, monkeypatch,
                                                         capsys):
    from hrem import cli, diagnostics

    main(["fit", "--config", fit_config(sim_dir, out="fit_a")])
    main(["fit", "--config", fit_config(sim_dir, out="fit_b", sampler="map")])
    fits = [str(sim_dir / name / "manifest.json") for name in ("fit_a", "fit_b")]
    scored = []
    for path in fits:
        manifest, spec, risk, cov, histories, samples = cli._reload_fit(path)
        tables = cli._training_tables(spec, histories, risk, cov, 60, manifest["sequences"])
        d = diagnostics.dic(samples, tables)
        assert manifest["dic"] == d
        scored.append((d["dic"], path, "%s,%r,%r,%r" % (path, d["dic"], d["p_d"],
                                                        d["mean_deviance"])))
    want = "\n".join(["manifest,dic,p_d,mean_deviance"] + [row for *_, row in sorted(scored)])

    def parse(*args, **kw):
        raise AssertionError("select parsed a file")

    for name in ("load_history", "load_covariates", "unique_stat_table", "_load_posterior"):
        monkeypatch.setattr(cli, name, parse)
    out = str(tmp_path / "select.csv")
    assert main(["select", fits[1], fits[0], "--out", out]) == 0
    assert open(out).read() == want + "\n"
    # every file is still checked against its sha256
    beta = str(sim_dir / "fit_b" / "beta.csv")
    with open(beta, "a") as fh:
        fh.write("\n")
    capsys.readouterr()
    assert main(["select", fits[0], fits[1]]) == 1
    assert beta in capsys.readouterr().err


def test_select_without_a_recorded_dic_exits_one_naming_it(sim_dir, capsys):
    _, _, select = _fit_and_evaluate(sim_dir)
    manifest = select[1]
    doc = json.load(open(manifest))
    assert sorted(doc["dic"]) == ["dic", "mean_deviance", "p_d"]
    for broken in ({k: v for k, v in doc.items() if k != "dic"}, dict(doc, dic={"dic": 1.0})):
        write_json(manifest, broken)
        assert main(select) == 1
        err = capsys.readouterr().err
        assert manifest in err and "'dic'" in err, err


def test_map_fit_writes_its_log_posterior_and_exits_two_unless_converged(sim_dir, monkeypatch,
                                                                         capsys):
    from hrem import cli
    from hrem.inference import joint_log_posterior

    seen, map_estimate = {}, cli.map_estimate

    def stalled(tables, hyper):
        betas, mu, sigma2, report = map_estimate(tables, hyper)
        seen.update(tables=tables, hyper=hyper)
        return betas, mu, sigma2, dict(report, converged=False)

    monkeypatch.setattr(cli, "map_estimate", stalled)
    cfg = fit_config(sim_dir, out="fit_map", sampler="map")
    assert main(["fit", "--config", cfg]) == 2
    assert "MAP stopped before converging" in capsys.readouterr().err
    assert main(["fit", "--config", cfg, "--allow-nonconverged"]) == 0
    manifest = json.load(open(sim_dir / "fit_map" / "manifest.json"))
    assert manifest["diagnostics"]["converged"] is False
    assert not {"max_rhat", "min_ess"} & set(manifest["diagnostics"])
    samples = cli._load_posterior(manifest)
    want = joint_log_posterior(samples.betas[0], samples.mu[0], samples.sigma2[0],
                               seen["tables"], seen["hyper"])
    assert open(sim_dir / "fit_map" / "logpost.csv").read() == "draw,value\n0,%r\n" % want


def test_simulate_fit_round_trip_keeps_dyad_covariates(tmp_path):
    dyads = [{"i": i, "j": j, "w": 1.0} for i in range(5) for j in range(5)
             if i != j and (i + j) % 3 == 0]
    cov_in = write_json(tmp_path / "cov.json", {
        "actors": [{"id": i} for i in range(5)], "dyads": dyads, "contexts": []})
    spec = [{"type": "baserate"}, {"type": "dyad_value", "attr": "w"}]
    sim = write_json(tmp_path / "sim.json", {
        "seed": 11, "n_actors": 5, "covariates": cov_in, "spec": spec,
        "mu": [-1.0, 1.5], "n_events": 600, "out_dir": str(tmp_path / "sim")})
    assert main(["simulate", "--config", sim]) == 0
    written = json.load(open(tmp_path / "sim" / "covariates.json"))
    assert written["dyads"] == sorted(dyads, key=lambda d: (d["i"], d["j"]))
    cfg = fit_config(tmp_path, out="fit_w", preset=None, spec=spec, n_train=None, sampler="map")
    assert main(["fit", "--config", cfg]) == 0
    rows = open(tmp_path / "fit_w" / "beta.csv").read().splitlines()[1:]
    beta = {int(r.split(",")[2]): float(r.split(",")[3]) for r in rows}
    assert abs(beta[1] - 1.5) < 0.3


def test_simulate_fit_round_trip_keeps_actor_order_beyond_ten(tmp_path):
    # Labels 10 and 11 must map to dense ids 10 and 11, where their covariates sit.
    actors = [{"id": i, "x": float(i >= 10)} for i in range(12)]
    cov_in = write_json(tmp_path / "cov.json", {"actors": actors, "dyads": [], "contexts": []})
    spec = [{"type": "baserate"}, {"type": "sender_attr", "attr": "x"}]
    sim = write_json(tmp_path / "sim.json", {
        "seed": 5, "n_actors": 12, "covariates": cov_in, "spec": spec,
        "mu": [-3.0, 2.0], "n_events": 800, "out_dir": str(tmp_path / "sim")})
    assert main(["simulate", "--config", sim]) == 0
    cfg = fit_config(tmp_path, out="fit_x", preset=None, spec=spec, n_train=None, sampler="map")
    assert main(["fit", "--config", cfg]) == 0
    rows = open(tmp_path / "fit_x" / "beta.csv").read().splitlines()[1:]
    beta = {int(r.split(",")[2]): float(r.split(",")[3]) for r in rows}
    assert abs(beta[1] - 2.0) < 0.3


def test_fit_records_conjugate_mu_update_by_default(sim_dir):
    cfg = fit_config(sim_dir, out="fit_mu", n_burnin=5, n_keep=5)
    assert "mu_update" not in json.load(open(cfg))
    assert main(["fit", "--config", cfg, "--allow-nonconverged"]) in (0, 2)
    man = json.load(open(sim_dir / "fit_mu" / "manifest.json"))
    assert man["settings"]["mu_update"] == "conjugate"


def test_fit_bad_hyper_exits_one_naming_it(sim_dir, capsys):
    cfg = fit_config(sim_dir, out="fit_hyper", hyper={"alpha_sigma": 3.0, "t_rate": 1.0})
    assert main(["fit", "--config", cfg]) == 1
    assert "'t_rate'" in capsys.readouterr().err
    cfg = fit_config(sim_dir, out="fit_hyper", hyper={"alpha_sigma": 0.0})
    assert main(["fit", "--config", cfg]) == 1
    assert "alpha_sigma must be positive" in capsys.readouterr().err


def test_fit_malformed_spec_entry_exits_one_naming_it(sim_dir, capsys):
    cases = [
        ({"type": "mix", "attr": "shape"}, ["entry 1", "'mix'", "sender_level, receiver_level"]),
        ({"type": "triangle"}, ["entry 1", "unknown effect type 'triangle'"]),
        ({"type": "pshift", "kind": "AB-ZZ"}, ["entry 1", "'pshift'", "'AB-ZZ'"]),
    ]
    for entry, words in cases:
        cfg = fit_config(sim_dir, out="fit_spec", preset=None,
                         spec=[{"type": "baserate"}, entry], sampler="map")
        assert main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        for word in [cfg] + words:
            assert word in err, (word, err)


def _fit_and_evaluate(sim_dir):
    """Fit twice from the sim manifest; return the argv of predict, diagnose and select."""
    for out in ("fit", "fit_b"):
        assert main(["fit", "--config", fit_config(sim_dir, out=out, sampler="map")]) == 0
    manifest = str(sim_dir / "fit" / "manifest.json")
    return [
        ["predict", "--manifest", manifest, "--z", "5"],
        ["diagnose", "--manifest", manifest],
        ["select", manifest, str(sim_dir / "fit_b" / "manifest.json")],
    ]


def test_evaluate_with_a_deleted_event_file_exits_one_naming_it(sim_dir, capsys):
    commands = _fit_and_evaluate(sim_dir)
    events = str(sim_dir / "sim" / "events_001.csv")
    os.remove(events)
    for argv in commands:
        assert main(argv) == 1, argv
        assert events in capsys.readouterr().err


def test_evaluate_with_a_changed_event_file_exits_one_naming_it(sim_dir, capsys):
    commands = _fit_and_evaluate(sim_dir)
    events = str(sim_dir / "sim" / "events_000.csv")
    tau = json.load(open(sim_dir / "sim" / "manifest.json"))["sequences"][0]["tau"]
    last = float(open(events).read().splitlines()[-1].split(",")[0])
    with open(events, "a") as fh:
        fh.write("%r,0,1\n" % ((last + tau) / 2))  # a valid event inside the window
    for argv in commands:
        assert main(argv) == 1, argv
        assert events in capsys.readouterr().err
    # a fit from the simulate manifest checks the files against it too
    assert main(["fit", "--config", fit_config(sim_dir, out="fit_c", sampler="map")]) == 1
    assert events in capsys.readouterr().err


def test_evaluate_with_changed_covariates_exits_one_naming_it(sim_dir, capsys):
    commands = _fit_and_evaluate(sim_dir)
    cov = str(sim_dir / "sim" / "covariates.json")
    man = json.load(open(sim_dir / "fit" / "manifest.json"))
    assert man["covariates"] == {"file": cov, "sha256": sha256(cov)}
    doc = json.load(open(cov))
    shapes = [a["shape"] for a in doc["actors"]]
    rotated = shapes[1:] + shapes[:1]
    assert rotated != shapes
    for actor, shape in zip(doc["actors"], rotated):
        actor["shape"] = shape
    write_json(cov, doc)
    for argv in commands:
        assert main(argv) == 1, argv
        assert cov in capsys.readouterr().err
    # a fit from the simulate manifest checks the covariate file against it too
    assert main(["fit", "--config", fit_config(sim_dir, out="fit_c", sampler="map")]) == 1
    assert cov in capsys.readouterr().err


def test_evaluate_with_an_edited_posterior_exits_one_naming_it(sim_dir, capsys):
    commands = _fit_and_evaluate(sim_dir)
    beta = str(sim_dir / "fit" / "beta.csv")
    rows = open(beta).read().splitlines()
    rows[1] = rows[1].rsplit(",", 1)[0] + ",0.5"
    with open(beta, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    for argv in commands:
        assert main(argv) == 1, argv
        assert beta in capsys.readouterr().err


def test_posterior_csvs_pin_their_layout_and_round_trip_bitwise(tmp_path):
    import numpy as np

    from hrem.cli import _load_posterior, _save_posterior
    from hrem.inference import PosteriorSamples

    draws, k, p = 3, 2, 4
    values = np.linspace(-1.0, 1.0, draws * k * p) / 3.0
    values[1] = -0.0
    values[2] = 5e-324
    samples = PosteriorSamples(
        betas=values.reshape(draws, k, p), mu=values[: draws * p].reshape(draws, p) * 7.0,
        sigma2=np.exp(values[: draws * p]).reshape(draws, p), logpost=values[:draws] - 100.0,
        n_burnin=4, n_keep=draws, thin=2,
    )
    paths = _save_posterior(samples, str(tmp_path))
    pinned = {
        "beta.csv": ["draw,sequence,effect,value", "0,0,0,-0.3333333333333333",
                     "0,0,1,-0.0", "0,0,2,5e-324"],
        "mu.csv": ["draw,effect,value", "0,0,-2.333333333333333"],
        "sigma2.csv": ["draw,effect,value", "0,0,0.7165313105737893"],
        "logpost.csv": ["draw,value", "0,-100.33333333333333"],
    }
    for name, head in pinned.items():
        assert open(paths[name]["file"]).read().splitlines()[: len(head)] == head
    assert open(paths["beta.csv"]["file"]).read().splitlines()[-1].startswith("2,1,3,")
    manifest = {"dims": {"draws": draws, "sequences": k, "effects": p}, "posterior": paths,
                "out_dir": str(tmp_path), "settings": {"n_burnin": 4, "thin": 2}}
    again = _load_posterior(manifest)
    for field in ("betas", "mu", "sigma2", "logpost"):
        a, b = getattr(samples, field), getattr(again, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert (again.n_burnin, again.n_keep, again.thin) == (4, draws, 2)


def test_evaluate_an_old_or_incomplete_fit_manifest_exits_one_naming_it(sim_dir, capsys):
    commands = _fit_and_evaluate(sim_dir)
    manifest = str(sim_dir / "fit" / "manifest.json")
    doc = json.load(open(manifest))
    # a bare covariate path, as fit manifests had before they hashed the covariate file
    doc["covariates"] = doc["covariates"]["file"]
    # then without its posterior as well
    incomplete = {k: v for k, v in doc.items() if k != "posterior"}
    for key, broken in (("covariates", doc), ("posterior", incomplete)):
        write_json(manifest, broken)
        for argv in commands:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert manifest in err and repr(key) in err, (argv, err)


def test_fit_string_labels_and_broadcast_label_from_a_sequences_list(tmp_path, capsys):
    import numpy as np

    # Sender effect x = log 4: actors b and d send four times as often.
    actors, log4 = ["b", "c", "d", "e", "f"], float(np.log(4.0))
    x = {"b": 1, "c": 0, "d": 1, "e": 0, "f": 0}
    dyads = [(i, j) for i in actors for j in actors + ["all"] if i != j]
    rate = np.exp(-1.0 + log4 * np.array([x[i] for i, _ in dyads]))
    rng = np.random.default_rng(4)
    sequences, tau = [], 20.0
    for k in range(2):
        rows, t = ["t,sender,recipient"], rng.exponential(1.0 / rate.sum())
        while t < tau:
            i, j = dyads[rng.choice(len(dyads), p=rate / rate.sum())]
            rows.append("%r,%s,%s" % (t, i, j))
            t += rng.exponential(1.0 / rate.sum())
        sequences.append({"file": str(tmp_path / ("events_%d.csv" % k)), "tau": tau})
        open(sequences[-1]["file"], "w").write("\n".join(rows) + "\n")
    # an actor named by no event file is dropped
    cov = write_json(tmp_path / "cov.json", {
        "actors": [{"id": a, "x": x[a]} for a in actors] + [{"id": "z", "x": 1}]})
    cfg = {"seed": 1, "sequences": sequences, "covariates": {"file": cov}, "broadcast": "all",
           "spec": [{"type": "baserate"}, {"type": "sender_attr", "attr": "x"}],
           "sampler": "map", "n_train": 350, "out_dir": str(tmp_path / "fit")}
    assert main(["fit", "--config", write_json(tmp_path / "fit.json", cfg)]) == 0
    man = json.load(open(tmp_path / "fit" / "manifest.json"))
    assert (man["broadcast"], man["n_actors"]) == ("all", 5)
    assert man["covariates"] == {"file": cov, "sha256": sha256(cov)}
    rows = open(tmp_path / "fit" / "mu.csv").read().splitlines()[1:]
    assert abs(float(rows[1].split(",")[2]) - log4) < 0.3
    manifest = str(tmp_path / "fit" / "manifest.json")
    assert main(["predict", "--manifest", manifest, "--z", "5"]) == 0
    assert main(["diagnose", "--manifest", manifest]) == 0
    # diagnose writes the labels of the event files, not dense ids
    rows = [r.split(",") for r in open(tmp_path / "fit" / "residuals.csv").read().splitlines()]
    assert {r[3] for r in rows[1:]} <= set(actors) and "all" in {r[4] for r in rows[1:]}
    # every sequence must name the same actors
    short = str(tmp_path / "short.csv")
    open(short, "w").write("t,sender,recipient\n0.5,b,c\n1.0,c,d\n1.5,d,all\n2.0,e,b\n")
    cfg["sequences"] = sequences[:1] + [{"file": short, "tau": 3.0}]
    capsys.readouterr()
    assert main(["fit", "--config", write_json(tmp_path / "fit.json", cfg)]) == 1
    assert short in capsys.readouterr().err
    # simulate's true/false is not a label
    cfg.update(sequences=sequences, broadcast=True)
    assert main(["fit", "--config", write_json(tmp_path / "fit.json", cfg)]) == 1
    assert "'broadcast'" in capsys.readouterr().err


def test_fit_config_unknown_key_or_second_data_source_exits_one_naming_it(sim_dir, capsys):
    cfg = fit_config(sim_dir, out="fit_typo", sampler="map", n_burn=10)
    assert main(["fit", "--config", cfg]) == 1
    assert "'n_burn'" in capsys.readouterr().err
    sim = write_json(sim_dir / "sim_typo.json", {"seed": 1, "preset": "syn52", "n_event": 10})
    assert main(["simulate", "--config", sim]) == 1
    assert "'n_event'" in capsys.readouterr().err
    cfg = fit_config(sim_dir, out="fit_mu", mu_update="pooled")
    assert main(["fit", "--config", cfg]) == 1
    assert "mu_update" in capsys.readouterr().err
    # from_manifest names the data, so a data key beside it is an error, not an override
    cov = {"file": str(sim_dir / "sim" / "covariates.json")}
    cfg = fit_config(sim_dir, out="fit_both", sampler="map", covariates=cov)
    assert main(["fit", "--config", cfg]) == 1
    assert "'covariates'" in capsys.readouterr().err


@pytest.mark.parametrize("place", ["sequences", "covariates", "posterior"])
def test_a_file_entry_that_is_not_a_string_exits_one_naming_the_entry(sim_dir, capsys, place):
    fd = 987  # not an open descriptor, so a reader that opened it would touch none of pytest's
    with pytest.raises(OSError):
        os.fstat(fd)
    sim = json.load(open(sim_dir / "sim" / "manifest.json"))
    if place == "posterior":
        assert main(["fit", "--config", fit_config(sim_dir, sampler="map")]) == 0
        where = str(sim_dir / "fit" / "manifest.json")
        manifest = json.load(open(where))
        manifest["posterior"]["beta.csv"]["file"] = fd
        write_json(where, manifest)
        name = "'posterior' entry 'beta.csv'"
        commands = [["predict", "--manifest", where, "--z", "5"],
                    ["diagnose", "--manifest", where], ["select", where, where]]
    else:
        cfg = {"seed": 1, "preset": "syn52", "sampler": "map", "n_train": 60,
               "out_dir": str(sim_dir / "fit"),
               "sequences": [{"file": s["file"], "tau": s["tau"]} for s in sim["sequences"]],
               "covariates": {"file": sim["covariates"]["file"]}}
        if place == "sequences":
            cfg["sequences"][1]["file"] = fd
            name = "'sequences' entry 1"
        else:
            cfg["covariates"]["file"] = fd
            name = "'covariates' entry"
        where = write_json(sim_dir / "fit_fd.json", cfg)
        commands = [["fit", "--config", where]]
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "%s: %s: 'file' must be a string, got %d" % (where, name, fd) in err, err
    with pytest.raises(OSError):
        os.fstat(fd)


def test_an_event_file_the_csv_module_rejects_exits_one_naming_it(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_bytes(b"t,sender,recipient\n0.5,0,1\r0.6,1,0\n")
    cfg = write_json(tmp_path / "fit.json", {
        "seed": 1, "sequences": [{"file": str(events), "tau": 2.0}],
        "spec": [{"type": "baserate"}], "sampler": "map", "out_dir": str(tmp_path / "fit")})
    assert main(["fit", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert str(events) in err and "line 2: new-line character seen" in err, err


def test_a_manifest_with_fewer_actors_than_its_event_files_exits_one_naming_both_counts(
        sim_dir, capsys):
    path = sim_dir / "sim" / "manifest.json"
    manifest = json.load(open(path))
    manifest["n_actors"] = 2
    write_json(path, manifest)
    assert main(["fit", "--config", fit_config(sim_dir, sampler="map")]) == 1
    err = capsys.readouterr().err
    assert manifest["sequences"][0]["file"] in err, err
    assert "the file has 10 actor labels, more than n_actors 2" in err, err
    assert not (sim_dir / "fit" / "manifest.json").exists()


def test_diagnose_event_csvs_have_the_bytes_of_the_per_event_writer(tmp_path):
    # String labels, a broadcast recipient, a context track and repeated dyads.
    import scalar_oracle as oracle
    from hrem.likelihood import score_events

    pairs = [("ann", "bob"), ("ann", "bob"), ("bob", "ann"), ("cy", "all"), ("bob", "cy"),
             ("cy", "ann"), ("ann", "cy")]
    rows = ["t,sender,recipient"] + ["%r,%s,%s" % (0.37 * (m + 1), *pairs[m % 7])
                                     for m in range(60)]
    (tmp_path / "events.csv").write_text("\n".join(rows) + "\n")
    cov = write_json(tmp_path / "cov.json", {"contexts": [
        {"start": 0.0, "label": "a"}, {"start": 7.3, "label": "b"}, {"start": 15.1, "label": "a"}]})
    cfg = write_json(tmp_path / "fit.json", {
        "seed": 1, "sequences": [{"file": str(tmp_path / "events.csv"), "tau": 25.0}],
        "covariates": {"file": cov}, "broadcast": "all",
        "spec": [{"type": "baserate"}, {"type": "context", "label": "b"},
                 {"type": "pshift", "kind": "AB-BA"}],
        "sampler": "map", "out_dir": str(tmp_path / "fit")})
    assert main(["fit", "--config", cfg]) == 0
    path = str(tmp_path / "fit" / "manifest.json")
    assert main(["diagnose", "--manifest", path]) == 0
    manifest, spec, risk, cov, histories, samples = cli._reload_fit(path)
    (hist,) = histories
    scores = score_events(samples.beta_mean()[0], hist, spec, risk, cov)
    res, prob = oracle.diagnose_rows(0, hist, ["ann", "bob", "cy", "all"], scores.deviance,
                                     scores.prob)
    assert len({r.split(",")[5] for r in res}) > 1  # rows with and without a shift
    assert open(tmp_path / "fit" / "residuals.csv").read() == "\n".join(
        ["sequence,event,t,sender,recipient,pshift,deviance"] + res) + "\n"
    assert open(tmp_path / "fit" / "probabilities.csv").read() == "\n".join(
        ["sequence,event,t,sender,recipient,probability"] + prob) + "\n"
