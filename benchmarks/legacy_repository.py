"""Frozen single-file level-4 import (comparator for the warehouse bench).

:class:`LegacyRepository` is the sequential import path of the original
single-file level-4 repository, exactly as it shipped before the sharded
warehouse in :mod:`repro.repo` replaced it: one SQLite file holding the
Table-I tables with an ``ExpID`` column, and an ``import_experiment``
that fingerprints the package, dedups on the digest, and streams every
row through Python ``executemany`` batches in one transaction per
package.  ``benchmarks/bench_repo_warehouse.py`` times it against the
write-behind queue, so its 1.5x (quick) and 3x (full) speedup gates and
``BENCH_repo.baseline.json`` keep measuring the same thing.

Frozen: do not optimise this module.  Its value is being the unchanged
baseline; it is not part of the library and nothing else imports it.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from repro.repo.fingerprint import content_fingerprint
from repro.storage.level3 import ExperimentDatabase

__all__ = ["LegacyRepository"]

_REPO_DDL = """
CREATE TABLE IF NOT EXISTS Experiments (
    ExpID         INTEGER PRIMARY KEY AUTOINCREMENT,
    Name          TEXT NOT NULL,
    Comment       TEXT NOT NULL DEFAULT '',
    EEVersion     TEXT NOT NULL,
    ExpXML        TEXT NOT NULL,
    SourcePath    TEXT NOT NULL,
    ContentDigest TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS Logs (
    ExpID INTEGER NOT NULL, NodeID TEXT NOT NULL, Log TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS EEFiles (
    ExpID INTEGER NOT NULL, ID TEXT NOT NULL, File TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS ExperimentMeasurements (
    ExpID INTEGER NOT NULL, NodeID TEXT NOT NULL, Name TEXT NOT NULL,
    Content TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS RunInfos (
    ExpID INTEGER NOT NULL, RunID INTEGER NOT NULL, NodeID TEXT NOT NULL,
    StartTime REAL NOT NULL, TimeDiff REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS ExtraRunMeasurements (
    ExpID INTEGER NOT NULL, RunID INTEGER NOT NULL, NodeID TEXT NOT NULL,
    Name TEXT NOT NULL, Content TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS Events (
    ExpID INTEGER NOT NULL, RunID INTEGER, NodeID TEXT NOT NULL,
    CommonTime REAL NOT NULL, EventType TEXT NOT NULL, Parameter TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS Packets (
    ExpID INTEGER NOT NULL, RunID INTEGER, NodeID TEXT NOT NULL,
    CommonTime REAL NOT NULL, SrcNodeID TEXT NOT NULL, Data TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_repo_events ON Events (ExpID, RunID, EventType);
"""

#: Per-table column lists copied from a level-3 package.
_COPIES = {
    "Logs": "NodeID, Log",
    "EEFiles": "ID, File",
    "ExperimentMeasurements": "NodeID, Name, Content",
    "RunInfos": "RunID, NodeID, StartTime, TimeDiff",
    "ExtraRunMeasurements": "RunID, NodeID, Name, Content",
    "Events": "RunID, NodeID, CommonTime, EventType, Parameter",
    "Packets": "RunID, NodeID, CommonTime, SrcNodeID, Data",
}


class LegacyRepository:
    """One SQLite file that level-3 packages are imported into in turn."""

    #: Rows copied per executemany batch.
    IMPORT_BATCH_ROWS = 2000

    def __init__(self, db_path) -> None:
        self.db_path = Path(db_path)
        self.db_path.parent.mkdir(parents=True, exist_ok=True)
        self.conn = sqlite3.connect(str(self.db_path))
        self.conn.row_factory = sqlite3.Row
        self.conn.executescript(_REPO_DDL)
        self.conn.commit()

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "LegacyRepository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def import_experiment(self, level3_path) -> int:
        """Copy a level-3 package into the repository; returns its ExpID
        (the existing one if a package with the same digest is there)."""
        digest = content_fingerprint(level3_path)
        row = self.conn.execute(
            "SELECT ExpID FROM Experiments WHERE ContentDigest = ? "
            "ORDER BY ExpID",
            (digest,),
        ).fetchone()
        if row is not None:
            return row[0]

        with ExperimentDatabase(level3_path) as db:
            info = db.experiment_info()
            cur = self.conn.execute(
                "INSERT INTO Experiments "
                "(Name, Comment, EEVersion, ExpXML, SourcePath, ContentDigest) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    info["Name"],
                    info["Comment"],
                    info["EEVersion"],
                    info["ExpXML"],
                    str(level3_path),
                    digest,
                ),
            )
            exp_id = cur.lastrowid
            for table, columns in _COPIES.items():
                cursor = db.conn.execute(f"SELECT {columns} FROM {table}")
                placeholders = ", ".join("?" for _ in columns.split(","))
                insert = (
                    f"INSERT INTO {table} (ExpID, {columns}) "
                    f"VALUES ({exp_id}, {placeholders})"
                )
                while True:
                    rows = cursor.fetchmany(self.IMPORT_BATCH_ROWS)
                    if not rows:
                        break
                    self.conn.executemany(insert, [tuple(r) for r in rows])
            self.conn.commit()
            return exp_id
