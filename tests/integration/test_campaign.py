"""Integration: the parallel campaign engine's determinism and recovery.

* A campaign executed with 4 workers produces the same level-3 database —
  byte-for-byte, modulo nothing — as the same plan with 1 worker: the
  Sec. IV-C1 repeatability guarantee survives concurrency.
* A campaign killed mid-flight resumes from its write-ahead journal,
  re-executes only the unfinished runs and converges to the identical
  database.
* The CLI ``campaign`` subcommand drives the same machinery end to end.
"""

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignJournal,
    database_digest,
    merge_campaign,
    run_campaign,
)
from repro.cli import main as cli_main
from repro.core.errors import CampaignError, RecoveryError
from repro.core.xmlio import description_to_xml
from repro.sd.processlib import build_two_party_description


def _desc(seed=31, replications=20, **kwargs):
    kwargs.setdefault("env_count", 1)
    return build_two_party_description(
        name="campaign-it",
        seed=seed,
        replications=replications,
        **kwargs,
    )


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The 1-worker campaign over the 20-run plan: digest + directory."""
    root = tmp_path_factory.mktemp("serial")
    result = run_campaign(
        _desc(),
        root / "campaign",
        db_path=root / "ref.db",
        jobs=1,
        pool="thread",
    )
    assert len(result.plan) >= 20
    assert result.executed_runs == list(range(len(result.plan)))
    return database_digest(root / "ref.db"), root


def test_four_workers_byte_identical_to_one(serial_reference, tmp_path):
    ref_digest, _ = serial_reference
    result = run_campaign(
        _desc(),
        tmp_path / "campaign",
        db_path=tmp_path / "par.db",
        jobs=4,
        pool="thread",
    )
    assert result.jobs == 4
    assert database_digest(tmp_path / "par.db") == ref_digest


def test_kill_and_resume_converges(serial_reference, tmp_path):
    ref_digest, _ = serial_reference
    desc = _desc()
    with pytest.raises(CampaignError, match="abort"):
        run_campaign(desc, tmp_path / "campaign", jobs=4, pool="thread", abort_after_runs=7)
    journal = CampaignJournal(tmp_path / "campaign")
    staged_before = set(journal.completed())
    assert 0 < len(staged_before) < len(journal.entries())
    assert not journal.finished()

    # Resuming without resume=True must refuse (a journal exists).
    with pytest.raises(RecoveryError, match="resume"):
        run_campaign(desc, tmp_path / "campaign", jobs=4, pool="thread")

    result = CampaignEngine(
        desc,
        tmp_path / "campaign",
        jobs=4,
        pool="thread",
        resume=True,
    ).execute(db_path=tmp_path / "resumed.db")
    assert set(result.skipped_runs) == staged_before
    assert set(result.executed_runs).isdisjoint(staged_before)
    assert len(result.skipped_runs) + len(result.executed_runs) == len(result.plan)
    assert database_digest(tmp_path / "resumed.db") == ref_digest


def test_resume_reexecutes_runs_whose_staging_vanished(tmp_path):
    desc = _desc(replications=4)
    import shutil

    with pytest.raises(CampaignError):
        run_campaign(desc, tmp_path / "campaign", jobs=2, pool="thread", abort_after_runs=2)
    journal = CampaignJournal(tmp_path / "campaign")
    victim_id, victim = sorted(journal.completed().items())[0]
    shutil.rmtree(tmp_path / "campaign" / victim["store"])

    result = CampaignEngine(
        desc,
        tmp_path / "campaign",
        jobs=2,
        pool="thread",
        resume=True,
    ).execute(db_path=tmp_path / "out.db")
    assert victim_id in result.executed_runs
    assert victim_id not in result.skipped_runs


def test_merge_campaign_rebuilds_database(serial_reference, tmp_path):
    ref_digest, root = serial_reference
    rebuilt = merge_campaign(root / "campaign", tmp_path / "again.db")
    assert database_digest(rebuilt) == ref_digest


def test_merge_campaign_requires_completion(tmp_path):
    with pytest.raises(CampaignError, match="not complete"):
        merge_campaign(tmp_path, tmp_path / "out.db")


def test_max_parallel_caps_requested_jobs(tmp_path):
    desc = _desc(replications=4, special_params={"max_parallel": 2})
    result = run_campaign(desc, tmp_path / "campaign", jobs=8, pool="thread")
    assert result.jobs == 2


def test_process_pool_matches_thread_pool(tmp_path):
    desc = _desc(replications=4)
    a = run_campaign(desc, tmp_path / "t", db_path=tmp_path / "t.db", jobs=2, pool="thread")
    b = run_campaign(desc, tmp_path / "p", db_path=tmp_path / "p.db", jobs=2, pool="process")
    assert a.pool == "thread" and b.pool == "process"
    assert database_digest(tmp_path / "t.db") == database_digest(tmp_path / "p.db")


def test_cli_campaign_subcommand(tmp_path, capsys):
    xml = tmp_path / "exp.xml"
    xml.write_text(description_to_xml(_desc(replications=3)), encoding="utf-8")
    rc = cli_main(
        [
            "campaign",
            str(xml),
            "--dir",
            str(tmp_path / "campaign"),
            "--db",
            str(tmp_path / "cli.db"),
            "--jobs",
            "2",
            "--pool",
            "thread",
            "--quiet",
        ],
    )
    assert rc == 0
    assert (tmp_path / "cli.db").exists()
    assert CampaignJournal(tmp_path / "campaign").finished()
    # merge-only rebuilds the database from the shards alone
    rc = cli_main(
        [
            "campaign",
            str(xml),
            "--dir",
            str(tmp_path / "campaign"),
            "--db",
            str(tmp_path / "cli2.db"),
            "--merge-only",
        ],
    )
    assert rc == 0
    assert database_digest(tmp_path / "cli.db") == database_digest(tmp_path / "cli2.db")


def test_dead_pool_worker_is_replaced_and_its_runs_retried(serial_reference, tmp_path, monkeypatch):
    """A worker process that dies breaks the whole process pool: the
    engine swaps in a fresh pool, and the runs that were in flight on
    the dead one retry as ordinary failed attempts."""
    import multiprocessing
    import os

    import repro.core.master as master

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker body reaches the pool only through fork")
    _, ref_root = serial_reference
    crashed = tmp_path / "crashed"
    execute_spec_run = master.execute_spec_run

    def exit_once(spec):
        if spec["run_id"] == 3 and not crashed.exists():
            crashed.touch()
            os._exit(9)
        return execute_spec_run(spec)

    monkeypatch.setattr(master, "execute_spec_run", exit_once)
    result = run_campaign(
        _desc(),
        tmp_path / "campaign",
        db_path=tmp_path / "crash.db",
        jobs=2,
        pool="process",
        max_attempts=2,
    )
    assert crashed.exists()
    assert result.executed_runs == list(range(len(result.plan)))
    reasons = CampaignJournal(tmp_path / "campaign").failure_reasons()
    assert reasons[3]["error"].startswith("BrokenProcessPool")
    ignore = ("AbortReason",)
    digest = database_digest(tmp_path / "crash.db", ignore_columns=ignore)
    assert digest == database_digest(ref_root / "ref.db", ignore_columns=ignore)
