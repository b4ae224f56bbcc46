"""Code-version fingerprint for content-addressed results.

A stored result is only valid for the code that produced it.  Rather
than trusting a hand-bumped version number, the store keys every row
by a digest of the ``repro`` package's own source tree: any edit to
any module — a kernel tweak, a power-model constant, a workload
generator — changes the fingerprint, and every previously stored
result silently becomes a miss (``repro store gc`` reclaims them).

The digest covers file *contents and relative paths* of every ``.py``
file under the package root, in sorted order, so it is identical
across processes, machines and installation paths.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

import repro

#: Number of hex digits kept from the sha256 digest (collision odds at
#: 16 digits are negligible for a cache key scoped to one repository).
FINGERPRINT_LENGTH = 16


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources (stable per code state)."""
    return tree_fingerprint(Path(repro.__file__).resolve().parent)


def tree_fingerprint(root: Path) -> str:
    """Digest of every ``.py`` file under ``root`` (paths + contents)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:FINGERPRINT_LENGTH]
