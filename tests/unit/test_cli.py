"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.paper import full_paper_experiment_xml
from repro.sd.processlib import build_two_party_description
from repro.core.xmlio import description_to_xml


@pytest.fixture
def desc_xml(tmp_path):
    path = tmp_path / "exp.xml"
    desc = build_two_party_description(
        name="cli-test", seed=3, replications=1, env_count=2,
    )
    path.write_text(description_to_xml(desc), encoding="utf-8")
    return path


@pytest.fixture
def paper_xml(tmp_path):
    path = tmp_path / "paper.xml"
    path.write_text(full_paper_experiment_xml(replications=1), encoding="utf-8")
    return path


def test_validate_ok(desc_xml, capsys):
    assert main(["validate", str(desc_xml)]) == 0
    out = capsys.readouterr().out
    assert "OK:" in out and "cli-test" in out


def test_validate_broken_description(tmp_path, capsys):
    path = tmp_path / "broken.xml"
    path.write_text(
        '<experiment name="b" seed="1">'
        "<processes><node_process>"
        '<actor id="a0"><actions><sd_frobnicate/></actions></actor>'
        "</node_process></processes></experiment>",
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "error:" in out


def test_validate_unparseable_file(tmp_path, capsys):
    path = tmp_path / "junk.xml"
    path.write_text("not xml at all", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_clean_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "ghost.xml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_describe_with_plan(desc_xml, capsys):
    assert main(["describe", str(desc_xml), "--plan"]) == 0
    out = capsys.readouterr().out
    assert "experiment 'cli-test'" in out
    assert "treatment plan" in out


def test_run_inspect_timeline_condition_import(desc_xml, tmp_path, capsys):
    store = tmp_path / "l2"
    db = tmp_path / "exp.db"
    assert main(["run", str(desc_xml), "--store", str(store),
                 "--db", str(db), "--topology", "full"]) == 0
    out = capsys.readouterr().out
    assert "1/1 runs executed" in out
    assert db.exists()

    assert main(["inspect", str(db)]) == 0
    out = capsys.readouterr().out
    assert "discovery: 1/1 complete" in out

    assert main(["timeline", str(db), "--run", "0"]) == 0
    out = capsys.readouterr().out
    assert "t_R" in out and "legend:" in out

    assert main(["timeline", str(db), "--run", "99"]) == 1

    # Condition the same level-2 store into a second database: identical
    # content, so importing both dedups onto one catalogued experiment.
    db2 = tmp_path / "exp2.db"
    assert main(["condition", str(store), str(db2)]) == 0
    assert db2.exists()

    repo = tmp_path / "repo.db"
    assert main(["import", str(repo), str(db), str(db2)]) == 0
    out = capsys.readouterr().out
    assert out.count("as experiment #1") == 2
    assert "repository now holds 1 experiment(s)" in out


def test_run_resume_flow(desc_xml, tmp_path, capsys):
    store = tmp_path / "l2"
    assert main(["run", str(desc_xml), "--store", str(store), "--quiet"]) == 0
    # A second plain run against the same store must refuse...
    assert main(["run", str(desc_xml), "--store", str(store)]) == 2
    assert "journal" in capsys.readouterr().err
    # ...and --resume on a completed store explains itself too.
    assert main(["run", str(desc_xml), "--store", str(store), "--resume"]) == 2


def test_run_with_slp_protocol(tmp_path, capsys):
    from repro.sd.processlib import build_three_party_description

    path = tmp_path / "three.xml"
    desc = build_three_party_description(
        name="cli-slp", seed=5, replications=1, env_count=2,
    )
    path.write_text(description_to_xml(desc), encoding="utf-8")
    db = tmp_path / "three.db"
    assert main(["run", str(path), "--store", str(tmp_path / "l2"),
                 "--db", str(db), "--protocol", "slp", "--quiet"]) == 0
    assert main(["inspect", str(db)]) == 0
    assert "1/1 complete" in capsys.readouterr().out


def test_paper_document_through_cli(paper_xml, tmp_path, capsys):
    assert main(["validate", str(paper_xml)]) == 0
    assert "6 runs" in capsys.readouterr().out


def test_run_realtime_flag(desc_xml, tmp_path, capsys):
    """--realtime uses the wall-clock-paced platform."""
    assert main([
        "run", str(desc_xml), "--store", str(tmp_path / "rt"),
        "--realtime", "500", "--topology", "full", "--quiet",
    ]) == 0
    from repro.core.recovery import Journal
    from repro.storage.level2 import Level2Store

    assert Journal(Level2Store(tmp_path / "rt")).finished()


def test_paper_xml_command(capsys):
    assert main(["paper-xml", "--replications", "3", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert '<experiment name="paper-sd-two-party" seed="9">' in out
    assert ">3</replicationfactor>" in out
    # The emitted document is immediately loadable.
    from repro.core.xmlio import description_from_xml

    desc = description_from_xml(out)
    assert desc.factors.replication.count == 3


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_inspect_leases_fails_loudly_on_a_corrupt_reconciled_lease(tmp_path, capsys):
    from repro.storage.level2 import Level2Store

    store = Level2Store(tmp_path / "exp.l2")
    store.append_reconciled_leases(
        [{"lease_id": f"h1/0/{i}", "kind": "msg_loss", "run_id": 0} for i in range(2)]
    )
    assert main(["inspect", str(store.root), "--leases"]) == 0
    assert "reconciled leases: 2" in capsys.readouterr().out
    path = store.fault_lease_log_path
    path.write_bytes(path.read_bytes().replace(b"h1/0/0", b"h1/0/9"))
    assert main(["inspect", str(store.root), "--leases"]) == 2
    assert f"{path} (line 1: crc_mismatch)" in capsys.readouterr().err


def test_campaign_and_fabric_serve_share_one_option_group(tmp_path):
    from repro.cli import build_parser

    tail = [
        "exp.xml", "--dir", "c", "--db", "c.db", "--resume", "--max-retries", "3",
        "--chaos-json", "chaos.json", "--protocol", "slp", "--topology", "grid",
        "--realtime", "2.5", "--rpc-timeout", "4", "--run-deadline", "9", "--quiet",
    ]
    parser = build_parser()
    local = vars(parser.parse_args(["campaign", *tail]))
    fleet = vars(parser.parse_args(["fabric", "serve", *tail]))
    shared = {
        "description", "campaign_dir", "db", "resume", "max_retries", "chaos_json",
        "protocol", "topology", "realtime", "rpc_timeout", "run_deadline", "quiet",
    }
    assert {dest: local[dest] for dest in shared} == {dest: fleet[dest] for dest in shared}
    assert local["max_retries"] == 3 and local["protocol"] == "slp"
    # `repro run` takes the platform subset of the same group.
    run = vars(parser.parse_args(["run", *tail[:1], *tail[10:]]))
    platform = shared - {"description", "campaign_dir", "db", "resume", "max_retries",
                         "chaos_json"}
    assert {dest: run[dest] for dest in platform} == {dest: local[dest] for dest in platform}


def test_campaign_fleet_shorthand_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "exp.xml", "--fleet", "127.0.0.1:0"])
    assert exc.value.code == 2
