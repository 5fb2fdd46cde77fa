"""The package's one error type, the one way it opens an input text file,
and the one way it writes output files.

Every data error is a StressKitError, which the CLI maps to its single
"data error" exit code; its message names the file, and for a data row
`line N`, the line on which the record ends. open_text alone says that
an input cannot be opened. A CSV with named columns is opened through
corpus.open_rows, which builds on open_text and adds N.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import os
from pathlib import Path
from typing import Iterator, TextIO


class StressKitError(Exception):
    """A data error: an input file, model or argument this package cannot use."""


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open an input file for reading as UTF-8, with newlines kept as they
    are (what the csv module expects). A file that open() refuses raises
    StressKitError `PATH: reason`; an OSError from the block passes through.
    A byte that is not UTF-8 or a record the csv module cannot read, met
    while the block reads the file, raises StressKitError naming the file."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise StressKitError(f"{path}: {exc.strerror}") from None
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise StressKitError(
                f"{path}: not UTF-8 text: byte 0x{byte:02x} ({exc.reason})") from None
        except csv.Error as exc:
            raise StressKitError(f"{path}: {exc}") from None


@contextlib.contextmanager
def atomic_outputs(*targets: str | Path) -> Iterator[list[Path]]:
    """Yield one partial path beside each target, `.NAME.PID.partial`, for the
    block to write. The partials are renamed onto their targets only when the
    block has written all of them; on failure every partial is removed and
    every target is left as it was. A directory in a target's place is found
    before the first rename, so it fails the whole set, not its tail. OS
    errors name the target, not its partial file."""
    targets = [Path(t) for t in targets]
    partials = [t.with_name(f".{t.name}.{os.getpid()}.partial") for t in targets]
    try:
        yield partials
        for target in targets:
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for partial, target in zip(partials, targets):
            os.replace(partial, target)
    except OSError as exc:
        named = {str(p): str(t) for p, t in zip(partials, targets)}
        if str(exc.filename) not in named:
            raise
        raise type(exc)(exc.errno, exc.strerror, named[str(exc.filename)]) from None
    finally:
        for partial in partials:
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # none was made
                partial.unlink()


@contextlib.contextmanager
def output_directory(path: str | Path) -> Iterator[Path]:
    """Make directory `path` and its missing parents before the block reads any
    input. If the block fails, those made here are removed while they hold no file."""
    path = Path(path)
    made = [p for p in (path, *path.parents) if not p.is_dir()]  # the deepest first
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    except BaseException:
        with contextlib.suppress(OSError):  # one that holds a file stays, with its parents
            for directory in made:
                directory.rmdir()
        raise
