"""On-disk matrix cache that stores the matrix JSON `action` prints.

A cache entry is ``json.dumps(matrix.to_json(), sort_keys=True)`` as UTF-8,
followed by the 64-character hex sha256 of those bytes.

Entries are content-addressed: the file name is the sha256 of the canonical
key string, so exact-mode cache hits are bit-identical to recomputation.
An entry that cannot be read, verified or parsed is treated as a miss (and
removed) with a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

from .linalg import Matrix

DIGEST_LEN = 64  # hex sha256


def cache_key(**fields) -> str:
    """Canonical key string; hash it for the file name."""
    items = sorted(fields.items())
    return "|".join(f"{k}={v}" for k, v in items)


class MatrixCache:
    """Content-addressed matrix store under a directory.

    The directory defaults to the TWINDUAL_CACHE environment variable or
    ~/.cache/twindual.  Writes are atomic (write-temp-then-rename).
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        if directory is None:
            directory = os.environ.get("TWINDUAL_CACHE") or Path.home() / ".cache" / "twindual"
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        name = hashlib.sha256(key.encode()).hexdigest()
        return self.directory / f"{name}.json"

    def lookup(self, key: str) -> Matrix | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            blob = path.read_bytes()
            # an entry shorter than a digest cannot match one
            payload, digest = blob[:-DIGEST_LEN], blob[-DIGEST_LEN:]
            if hashlib.sha256(payload).hexdigest().encode() != digest:
                raise ValueError("digest mismatch")
            # a verified entry can still be malformed: a missing field
            # (KeyError), a wrong type (TypeError) or a zero denominator
            # (ZeroDivisionError)
            return Matrix.from_json(json.loads(payload))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            warnings.warn(f"corrupt cache entry {path.name}: {exc}; recomputing")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def store(self, key: str, matrix: Matrix) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        payload = json.dumps(matrix.to_json(), sort_keys=True).encode()
        blob = payload + hashlib.sha256(payload).hexdigest().encode()
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def get_or_build(self, key: str, builder) -> Matrix:
        hit = self.lookup(key)
        if hit is not None:
            return hit
        matrix = builder()
        self.store(key, matrix)
        return matrix
