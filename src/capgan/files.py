"""How every file a command leaves reaches disk: whole or not at all.

A file is written to ``<name>.tmp`` beside it and renamed over it, so a
write that fails part way leaves the old file, or none, and no tmp file.
Nothing is fsynced: a power loss may lose the last write, not cut it."""
from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path


@contextlib.contextmanager
def replaced(path, binary: bool = False):
    """A handle on ``path``'s tmp file (bytes, or UTF-8 text without newline
    translation), renamed over ``path`` when the block ends and removed on any
    exception. Missing directories are made at the first write, not before."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    with replaced(path) as fh:
        fh.write(text)


def write_jsonl(path, records) -> None:
    """One strict JSON object per line, keys sorted, all built before the file opens."""
    write_text(path, "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n"
                             for r in records))


def write_csv(path, header, rows) -> None:
    with replaced(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
