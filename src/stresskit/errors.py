"""Exception and warning types shared across the package, and the one way it
opens an input text file.

Concrete data errors subclass StressKitError so the CLI can map any of
them to a single "data error" exit code.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterator, TextIO


class StressKitError(Exception):
    """Base class for all data and usage errors raised by this package."""


class NotUtf8Text(StressKitError):
    pass


class FingerprintMismatchWarning(UserWarning):
    """Model was trained under a different preprocessing configuration."""


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open an input file for reading as UTF-8, with newlines kept as they
    are (what the csv module expects). A byte that is not UTF-8, met while
    the block reads the file, raises NotUtf8Text naming the file."""
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise NotUtf8Text(f"{path}: not UTF-8 text: byte 0x{byte:02x} ({exc.reason})") from None
