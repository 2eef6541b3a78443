import hashlib
import json
import os

import pytest

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
        "n_burnin": 30,
        "n_keep": 30,
        "n_train": 60,
        "out_dir": str(tmp_path / out),
    }
    cfg.update(over)
    return write_json(tmp_path / (out + ".json"), cfg)


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
    cfg = fit_config(sim_dir, out="fit_t", n_burnin=10, n_keep=10)
    code = main([
        "fit", "--config", cfg, "--sampler", "tempering",
        "--ladder", "1,2,4,8,16", "--allow-nonconverged",
    ])
    assert code in (0, 2)
    man = json.load(open(sim_dir / "fit_t" / "manifest.json"))
    assert man["settings"]["sampler"] == "tempering"
    assert man["settings"]["ladder"] == [1, 2, 4, 8, 16]


def test_fit_map_sampler(sim_dir):
    cfg = fit_config(sim_dir, out="fit_map")
    assert main(["fit", "--config", cfg, "--sampler", "map"]) == 0


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


def test_predict_nonexistent_manifest(tmp_path):
    assert main(["predict", "--manifest", str(tmp_path / "no.json"), "--z", "5"]) == 1


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
    assert os.path.exists(sim_dir / "fit" / "surprise_edges.csv")
    assert os.path.exists(sim_dir / "fit" / "probabilities.csv")


def test_diagnose_nonexistent_manifest(tmp_path):
    assert main(["diagnose", "--manifest", str(tmp_path / "no.json")]) == 1


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
    main(["fit", "--config", fit_config(sim_dir, out="fit_a"), "--sampler", "map"])
    main(["fit", "--config", fit_config(sim_dir, out="fit_b", preset=None, spec=reduced),
          "--sampler", "map"])
    main(["fit", "--config", fit_config(sim_dir, out="fit_c", n_train=70), "--sampler", "map"])
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


def test_simulate_fit_round_trip_keeps_dyad_covariates(tmp_path):
    dyads = [{"i": i, "j": j, "w": 1.0} for i in range(5) for j in range(5)
             if i != j and (i + j) % 3 == 0]
    cov_in = write_json(tmp_path / "cov.json", {
        "actors": [{"id": i} for i in range(5)], "dyads": dyads, "contexts": []})
    spec = [{"type": "baserate"}, {"type": "dyad_value", "attr": "w"}]
    sim = write_json(tmp_path / "sim.json", {
        "seed": 11, "n_actors": 5, "covariates": cov_in, "spec": spec,
        "beta": [-1.0, 1.5], "n_events": 600, "out_dir": str(tmp_path / "sim")})
    assert main(["simulate", "--config", sim]) == 0
    written = json.load(open(tmp_path / "sim" / "covariates.json"))
    assert written["dyads"] == sorted(dyads, key=lambda d: (d["i"], d["j"]))
    cfg = fit_config(tmp_path, out="fit_w", preset=None, spec=spec, n_train=None)
    assert main(["fit", "--config", cfg, "--sampler", "map"]) == 0
    rows = open(tmp_path / "fit_w" / "beta.csv").read().splitlines()[1:]
    beta = {int(r.split(",")[2]): float(r.split(",")[3]) for r in rows}
    assert abs(beta[1] - 1.5) < 0.3
