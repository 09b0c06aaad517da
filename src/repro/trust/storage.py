"""Pluggable persistence for coordinator state (bindings, profiles, belief).

The paper's coordination server keeps every client binding and every
belief in process memory: kill the process and the defense re-learns
the attack from scratch.  This module puts a minimal key-value
contract — :class:`StorageBackend` — behind that state so the service
coordinator can be killed mid-scenario, restarted against the same
backend, and resume the detect→estimate→plan→shuffle loop where it
left off.

Three implementations, selected by a ``--state-backend`` spec string:

- ``memory`` — process-local dict; the pre-existing (and default)
  behaviour.  Nothing survives the process.
- ``sqlite:PATH`` — stdlib :mod:`sqlite3`, WAL journal, one ``kv``
  table keyed ``(namespace, key)``.  Every :meth:`~StorageBackend.
  put_many` batch commits, so a SIGKILL loses at most the batch in
  flight.
- ``file:PATH`` — a single JSON document rewritten atomically
  (``tmp`` + :func:`os.replace`).  A SIGKILL leaves either the old or
  the new document, never a torn one.

Values are JSON documents (``dict``).  All three backends round-trip
values through JSON so in-memory behaviour cannot silently diverge
from the persistent backends (e.g. tuples come back as lists
everywhere, not just after a restart).
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
from typing import Iterable

__all__ = [
    "JsonFileBackend",
    "MemoryBackend",
    "SqliteBackend",
    "StorageBackend",
    "make_backend",
]


class StorageBackend(abc.ABC):
    """Namespaced JSON key-value store behind the coordinator's state.

    Namespaces in use: ``bindings`` (client -> replica), ``profiles``
    (client -> trust-profile row), ``state`` (singleton belief
    document under key ``belief``).
    """

    @abc.abstractmethod
    def put(self, namespace: str, key: str, value: dict) -> None:
        """Store one JSON document under ``(namespace, key)``."""

    @abc.abstractmethod
    def get(self, namespace: str, key: str) -> dict | None:
        """The stored document, or ``None`` when absent."""

    @abc.abstractmethod
    def delete(self, namespace: str, key: str) -> None:
        """Remove one entry (absent keys are a no-op)."""

    @abc.abstractmethod
    def items(self, namespace: str) -> list[tuple[str, dict]]:
        """Every ``(key, document)`` in a namespace, sorted by key."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Make every prior write durable (no-op where writes are)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release resources; further calls are undefined."""

    def put_many(
        self, namespace: str, entries: Iterable[tuple[str, dict]]
    ) -> None:
        """Store a batch (overridden where batching is cheaper)."""
        for key, value in entries:
            self.put(namespace, key, value)

    @property
    def persistent(self) -> bool:
        """True when state survives the process."""
        return True


class MemoryBackend(StorageBackend):
    """Process-local store: the default, nothing survives a restart."""

    def __init__(self) -> None:
        self._data: dict[str, dict[str, str]] = {}

    def put(self, namespace: str, key: str, value: dict) -> None:
        self._data.setdefault(namespace, {})[key] = json.dumps(
            value, sort_keys=True
        )

    def get(self, namespace: str, key: str) -> dict | None:
        raw = self._data.get(namespace, {}).get(key)
        return None if raw is None else json.loads(raw)

    def delete(self, namespace: str, key: str) -> None:
        self._data.get(namespace, {}).pop(key, None)

    def items(self, namespace: str) -> list[tuple[str, dict]]:
        bucket = self._data.get(namespace, {})
        return [(key, json.loads(bucket[key])) for key in sorted(bucket)]

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    @property
    def persistent(self) -> bool:
        return False


class SqliteBackend(StorageBackend):
    """Stdlib sqlite3 store: one WAL-journaled ``kv`` table.

    Durability point: :meth:`put_many` commits per batch (the
    coordinator writes one batch per detection sweep), so a SIGKILL
    loses at most the sweep in flight.  The file may be opened
    read-only by another process (e.g. a test polling for progress)
    while the coordinator holds it.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            "namespace TEXT NOT NULL, key TEXT NOT NULL, "
            "value TEXT NOT NULL, PRIMARY KEY (namespace, key))"
        )
        self._conn.commit()

    def put(self, namespace: str, key: str, value: dict) -> None:
        self._conn.execute(
            "INSERT INTO kv (namespace, key, value) VALUES (?, ?, ?) "
            "ON CONFLICT (namespace, key) DO UPDATE SET value=excluded.value",
            (namespace, key, json.dumps(value, sort_keys=True)),
        )
        self._conn.commit()

    def put_many(
        self, namespace: str, entries: Iterable[tuple[str, dict]]
    ) -> None:
        self._conn.executemany(
            "INSERT INTO kv (namespace, key, value) VALUES (?, ?, ?) "
            "ON CONFLICT (namespace, key) DO UPDATE SET value=excluded.value",
            [
                (namespace, key, json.dumps(value, sort_keys=True))
                for key, value in entries
            ],
        )
        self._conn.commit()

    def get(self, namespace: str, key: str) -> dict | None:
        row = self._conn.execute(
            "SELECT value FROM kv WHERE namespace=? AND key=?",
            (namespace, key),
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def delete(self, namespace: str, key: str) -> None:
        self._conn.execute(
            "DELETE FROM kv WHERE namespace=? AND key=?", (namespace, key)
        )
        self._conn.commit()

    def items(self, namespace: str) -> list[tuple[str, dict]]:
        rows = self._conn.execute(
            "SELECT key, value FROM kv WHERE namespace=? ORDER BY key",
            (namespace,),
        ).fetchall()
        return [(key, json.loads(value)) for key, value in rows]

    def flush(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        self._conn.commit()
        self._conn.close()


class JsonFileBackend(StorageBackend):
    """One JSON document, rewritten atomically on every flush.

    Writes mutate an in-memory copy; :meth:`flush` (called by
    :meth:`put_many` and :meth:`close`) serialises the whole document
    to ``PATH.tmp`` and :func:`os.replace`-renames it over ``PATH``,
    so readers and crash recovery always see a complete document.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._data: dict[str, dict[str, dict]] = {}
        self._dirty = False
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                self._data = json.load(handle)

    def put(self, namespace: str, key: str, value: dict) -> None:
        self._data.setdefault(namespace, {})[key] = json.loads(
            json.dumps(value)
        )
        self._dirty = True

    def put_many(
        self, namespace: str, entries: Iterable[tuple[str, dict]]
    ) -> None:
        super().put_many(namespace, entries)
        self.flush()

    def get(self, namespace: str, key: str) -> dict | None:
        value = self._data.get(namespace, {}).get(key)
        return None if value is None else json.loads(json.dumps(value))

    def delete(self, namespace: str, key: str) -> None:
        bucket = self._data.get(namespace, {})
        if key in bucket:
            del bucket[key]
            self._dirty = True

    def items(self, namespace: str) -> list[tuple[str, dict]]:
        bucket = self._data.get(namespace, {})
        return [
            (key, json.loads(json.dumps(bucket[key])))
            for key in sorted(bucket)
        ]

    def flush(self) -> None:
        if not self._dirty:
            return
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._data, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)
        self._dirty = False

    def close(self) -> None:
        self.flush()


def make_backend(spec: str) -> StorageBackend:
    """Build a backend from a ``--state-backend`` spec string.

    ``"memory"`` | ``"sqlite:PATH"`` | ``"file:PATH"``.
    """
    if spec == "memory":
        return MemoryBackend()
    kind, _, path = spec.partition(":")
    if not path:
        raise ValueError(
            f"state backend spec {spec!r} needs a path "
            "(memory | sqlite:PATH | file:PATH)"
        )
    if kind == "sqlite":
        return SqliteBackend(path)
    if kind == "file":
        return JsonFileBackend(path)
    raise ValueError(
        f"unknown state backend {kind!r} "
        "(memory | sqlite:PATH | file:PATH)"
    )
