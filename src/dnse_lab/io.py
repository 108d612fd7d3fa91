"""File formats shared by the CLI and the experiment scripts.

All floating-point output uses 17 significant digits so repeated runs with
the same resolved configuration are byte-identical.  Every writer hands
its bytes to one writer, which opens the file in binary mode, creates its
parent directory and returns the file's path, so a run that fails before
its first write leaves nothing behind.  Text is UTF-8 with LF line ends,
and read_state decodes as UTF-8, so no file depends on the host's locale.

The writer rewrites an existing file in place, without truncating it to
zero first, and cuts it at the last byte written, whether the write
finished or raised, so the file holds exactly the new bytes.  The file
keeps its inode, as with open("w"): a symlink is written through, and
hard links, mode and owner are kept.  On ext4, a file truncated to zero
and rewritten is flushed to disk on close (the auto_da_alloc heuristic
for replace-via-truncate; a temporary file renamed over the old one
triggers it too).  That flush was most of the cost of rewriting a run's
artifacts into the same directory: the best of 5 x 100 rewrites of a
150 B, 40 KB and 300 KB file took 113, 151 and 309 us truncating first
against 12, 21 and 31 us in place (2-vCPU Xeon, ext4).  In exchange, a
process killed (SIGKILL) in the middle of a write can leave the new
bytes followed by the old file's tail, where truncating first left only
the new prefix; no writer calls fsync, so neither was ever durable.
And the cut needs a file that can be truncated: a path that is a device
or a FIFO takes the bytes, then raises OSError.

State:        CSV `index,psi`, a sidecar JSON {"N", "boundary", "c", "E"}
              and a binary copy of the amplitudes (see below).
Orbit:        CSV `step,psi,Z`, written with its portrait's CSV.
Portrait:     CSV `psi,dpsi`.
Pattern:      one line of +, 0 and - trits.
Tables:       CSV with a header row (sweeps, experiment summaries and
              the box counts of scripts/map_portraits.py).
Reports:      plain JSON (solver report, classification, pattern counts).

A state's sidecar and binary copy take its CSV's path with the suffixes
.json and .bin, so write_state refuses a CSV named *.json or *.bin.  The
copy is 32 bytes of SHA-256 over the CSV's bytes followed by the
amplitude bytes, then the N amplitudes as little-endian float64.  It is
derived from the CSV and may be deleted, which only slows the next read:
read_state takes the amplitudes from a copy whose digest matches the CSV
it has just read and the copy's own values, and parses the text
otherwise, with the same accepted forms and errors.  A '%.17g' value
reads back as the float it was written from, so both paths give the same
bits.  Parsing is bounded by float() on a 17-digit decimal, about 0.22 us
a value, so no text parser gets far below it.  On solved random rings
(c = 4N, 2-vCPU Xeon, Python 3.11) the copy took read_state from 0.78 to
0.08-0.13 ms at N = 10^3, from 75-117 to 3.4-3.9 ms at 10^5 and from
0.8-1.3 s to 0.04 s at 10^6.  The digest and the extra file cost
write_state about 0.4 ms at 10^4 and 3 ms at 10^5, on 1.5 and 14 ms.

An orbit's portrait (analysis.portrait_from_orbit) pairs psi[k] with
Z[k + 1], values the orbit file has already formatted, so write_orbit
derives the portrait file from the orbit file's words (see _block)
without formatting a value twice.  For each block of _CHUNK_LINES orbit
rows it formats one row more, writes the block's orbit rows, clears the
separator byte of each psi slot, and writes portrait row k as the psi
slot of orbit row k next to the Z slot of row k + 1, a strided view of
the same words.  Both files are open at once, each rewritten in place,
and each holds at most one block's bytes at a time.

The state, orbit and portrait files write each float as '%.17g' does,
byte for byte, but a block of rows at a time in numpy.  At 17 digits
CPython's '%.17g' takes its big-integer path (430 ns a value against
260 ns at 14 digits, on a 2-vCPU Xeon with Python 3.11), while a
correctly rounded 17-digit decimal of a whole column can be computed in
float64 double-double arithmetic (Dekker 1971), leaving to '%.17g' the
values it cannot decide, as the Grisu scheme does (Loitsch 2010).

For 1e-280 < |x| < 1, with k = floor(log10 |x|) and (hi, lo) the
double-double 10**(16 - k), the scaled value y = |x| 10**(16 - k) is
p + r, where p = fl(|x| hi) is an integer (it is at least 2**53) and
r = (|x| hi - p) + fl(|x| lo), the first term exact by Dekker's product.
r errs from y - p by under 1e-14: fl(|x| lo) rounds a number below 12
(at most 9e-16), the sum rounds one below 20 (at most 1.8e-15), and
hi + lo is within 2**-106 of the power (at most 1.3e-15 of y).  The
digits D = p + rint(r) are taken where r is more than _TIE_MARGIN = 1e-3
from a half-integer and 10**16 < D < 10**17.  Such a value is written as
0.ddd to 0.000ddd for k = -1 to -4 and as d.ddde-XX(X) below.  Every
other value, that is +-0, inf, nan, |x| >= 1, |x| <= 1e-280, a value
within the margin of a tie (about 0.2% of a ring's values) and one whose
D is not inside (10**16, 10**17), is formatted by '%.17g' itself, so no
digit is guessed.  A rare value takes that general path rather than a
repair of its own: where log10 is one off, within about 1e-15 of a power
of ten, y lies outside [10**16, 10**17), so D is not inside the range.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .analysis import PhasePortrait, portrait_from_orbit
from .lattice import Boundary, LatticeState, _as_readonly
from .mapdyn import MapOrbit
from .patterns import PatternSpec

# Rows formatted and written at a time.  A block's numpy calls cost about
# the same from 4096 rows up, and one block of all the rows falls out of
# cache.  Milliseconds per file, medians of 9 (2-vCPU Xeon, Python 3.11,
# numpy 2.4); the state rings are solved random rings (c = 4N, pattern
# seeds 1 and 73, the second collapsed, nearly every value below 1e-4):
#
#     rows per block          1024  2048  4096  8192  16384  all
#     state, 10^4 ring         5.1   4.5   4.5   4.4   4.4   4.4
#     state, collapsed 10^4    3.6   3.1   2.8   2.8   2.6   2.8
#     state, 10^5 ring        23.3  19.3  16.6  16.2  15.9  20.2
#     portrait, 10^5 ring     37.6  31.6  27.3  26.0  26.6  32.8
_CHUNK_LINES = 4096

# The SHA-256 that heads a state's binary copy.
_DIGEST_BYTES = 32

# _decimal_digits decides the 17 digits of 1e-280 < |x| < 1, up to a
# margin from a tie; '%.17g' writes every other value.
_FAST_MIN, _FAST_MAX = 1e-280, 1.0
_TIE_MARGIN = 1e-3
_D_MIN, _D_MAX = 10**16, 10**17
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant: halves of 26 bits
# Offsets into _digit_words(): each group of four digits as written,
# without its trailing zeros, and without its leading zeros.
_FULL, _TRAILING, _LEADING = 0, 10_000, 20_000


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _split(x):
    t = x * _SPLIT
    high = t - (t - x)
    return high, x - high


@functools.cache
def _powers_of_ten():
    """10**n as the double-double hi + lo, and the halves of hi, for
    n = 0 ... 298.  hi and lo are each correctly rounded (a Python int
    converts to float so), so hi + lo is within 2**-106 of 10**n."""
    exact = [10**n for n in range(299)]
    hi = [float(v) for v in exact]
    lo = [float(v - int(h)) for v, h in zip(exact, hi)]
    return tuple(map(_as_readonly, (hi, lo, *_split(np.array(hi)))))


def _decimal_digits(x):
    """(D, k, decided) for the array x: where decided, |x| rounds to 17
    significant digits as D 10**(k - 16), with 10**16 < D < 10**17.
    Elsewhere D is 2 10**16 and k is -1, which index the tables."""
    a = np.abs(x)
    decided = (a > _FAST_MIN) & (a < _FAST_MAX)  # false for nan
    a = np.where(decided, a, 0.5)
    k = np.floor(np.log10(a)).astype(np.int64)
    # a 10**(16 - k) as p + r: p = fl(a hi), r = (a hi - p) + fl(a lo), the
    # first term exact by Dekker's product
    hi, lo, hi_high, hi_low = (table[16 - k] for table in _powers_of_ten())
    p = a * hi
    a_high, a_low = _split(a)
    r = (a_high * hi_high - p) + a_high * hi_low + a_low * hi_high + a_low * hi_low + a * lo
    rounded = np.rint(r)
    decided &= np.abs(r - rounded) < 0.5 - _TIE_MARGIN
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    # where log10 is one off, next to a power of ten, D is outside the range
    decided &= (digits > _D_MIN) & (digits < _D_MAX)
    digits[~decided] = 2 * _D_MIN
    k[~decided] = -1
    return digits, k, decided


def _words(texts, size):
    """The byte strings texts, each padded with NUL to size bytes, as one
    unsigned integer of that size each."""
    return np.frombuffer(b"".join(text.ljust(size, b"\0") for text in texts), f"u{size}")


@functools.cache
def _digit_words():
    """Each group of four digits g = 0 ... 9999 in 4 bytes: at _FULL + g
    as written, at _TRAILING + g without its trailing zeros and at
    _LEADING + g without its leading zeros (0 as 0)."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    high, low = np.divmod(np.arange(10_000), 100)
    chars = np.stack([pairs[high], pairs[low]], axis=1).view(np.uint8)
    trailing = np.logical_or.accumulate(chars[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    leading = np.logical_or.accumulate(chars != ord("0"), axis=1)
    leading[0, 3] = True
    words = np.concatenate([chars, chars * trailing, chars * leading]).view(np.uint32).ravel()
    words.flags.writeable = False
    return words


@functools.cache
def _prefix_words(sep: bytes):
    """sep, the sign and the text through the first digit d, indexed by
    (10 negative + d) 6 + layout.  Layouts 0-3 are 0.d, 0.0d, 0.00d and
    0.000d; 4 is d. and 5 is d alone."""
    def text(d, layout):
        return (b"0." + b"0" * layout + d if layout < 4 else d + b"." if layout == 4 else d)
    return _words([(sep or b"\0") + sign + text(b"%d" % d, layout) for sign in (b"", b"-")
                   for d in range(10) for layout in range(6)], 8)


@functools.cache
def _suffix_words(end: bytes):
    """The exponent e-XX or e-XXX of 10**-e for e = 5 ... 281, nothing
    for e = 0, and end in the last byte."""
    return _words([(b"e-%02d" % e if e else b"").ljust(7, b"\0") + end
                   for e in range(282)], 8)


def _index_words(start, stop, out):
    """'%d' of start ... stop - 1 into the 4-byte words of out (n, w),
    right-aligned, with NUL for its leading zeros."""
    words = _digit_words()
    rest = np.arange(start, stop)
    for col in range(out.shape[1] - 1, -1, -1):
        higher = rest // 10_000
        lead = _LEADING if col == out.shape[1] - 1 else np.where(rest > 0, _LEADING, _TRAILING)
        out[:, col] = words[rest - higher * 10_000 + np.where(higher > 0, _FULL, lead)]
        rest = higher


def _value_words(x, sep: bytes, end: bytes, out):
    """sep, '%.17g' of each value of x and end into the 32-byte slots of
    out (n, 4), NUL in the bytes a value leaves unused.  A decided value
    has sep, its sign and its text through the first digit in word 0,
    its other 16 digits in words 1 and 2, in groups of four, and its
    exponent and end in word 3.  The others are written by '%.17g' into
    bytes 1-30, between sep and end."""
    digits, k, decided = _decimal_digits(x)
    words = _digit_words()
    halves = out.view(np.uint32)
    zero_tail = np.ones(len(x), bool)
    for col in range(5, 1, -1):
        first = digits // 10_000
        group = digits - first * 10_000
        halves[:, col] = words[group + _TRAILING * zero_tail]
        zero_tail &= group == 0
        digits = first
    fixed = k >= -4
    layout = np.where(fixed, -1 - k, 4 + zero_tail)
    out[:, 0] = _prefix_words(sep)[(np.signbit(x) * 10 + digits) * 6 + layout]
    out[:, 3] = _suffix_words(end)[np.where(fixed, 0, -k)]
    fallback = np.flatnonzero(~decided)
    if len(fallback):
        text = ("%-30.17g" * len(fallback)) % tuple(x[fallback].tolist())
        chars = np.frombuffer(text.encode(), np.uint8).reshape(-1, 30)
        out.view(np.uint8)[fallback, 1:31] = np.where(chars == ord(" "), 0, chars)


def _line(text: str) -> bytes:
    return f"{text}\n".encode()


def _rows(header: str, *columns, numbered: bool):
    """The bytes of a table: the header and a newline, then the columns
    in blocks of _CHUNK_LINES rows, where row k is its number k where
    numbered and then '%.17g' of each column's value, joined by commas
    and ended by a newline."""
    yield _line(header)
    for start in range(0, len(columns[0]), _CHUNK_LINES):
        stop = min(start + _CHUNK_LINES, len(columns[0]))
        yield _block(columns, start, stop, numbered).tobytes().translate(None, b"\0")


def _block(columns, start, stop, numbered: bool):
    """Rows start ... stop - 1 of a table (see _rows) as a matrix of
    8-byte words, one row of it per row of text: the row number in
    4-byte words of four digits, then a 32-byte slot per value (see
    _value_words) holding its separator, its text and the newline after
    the last value, NUL wherever a layout leaves a byte unused.  The
    rows' text is the matrix's bytes without the NULs.  Values that
    _decimal_digits decides take their text from tables of four-digit
    groups, prefixes and exponents; the others are formatted by one
    '%.17g' operation per block, into their slots."""
    # the row number in an even count of 4-byte words, so slots align
    index = 2 * ((len(str(stop - 1)) + 7) // 8) if numbered else 0
    words = np.empty((stop - start, index // 2 + 4 * len(columns)), np.uint64)
    if numbered:
        _index_words(start, stop, words.view(np.uint32)[:, :index])
    for f, column in enumerate(columns):
        slot = index // 2 + 4 * f
        _value_words(column[start:stop], b"," if numbered or f else b"",
                     b"\n" if f == len(columns) - 1 else b"", words[:, slot:slot + 4])
    return words


@contextlib.contextmanager
def _opened(path):
    """The file at path, opened to be rewritten in place (see the module
    docstring) and cut at the last byte written when the block exits,
    whether it finished or raised."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        try:
            yield out
        finally:
            out.truncate()


def _write(path, blocks):
    """Write the byte blocks to path in place, also cutting it when
    taking a block raises.  Returns the path.  writelines drops each
    block before it takes the next."""
    path = Path(path)
    with _opened(path) as out:
        out.writelines(blocks)
    return path


def _hashed(digest, blocks):
    """The byte blocks, each added to digest as it is taken."""
    for block in blocks:
        digest.update(block)
        yield block


def _sha256(data=b""):
    """A SHA-256 of data.  hashlib is imported here, on the first state
    read or write, and not with the module: loading it, and OpenSSL with
    it, at import made the benchmark's chain_continuation, whose sweeps
    touch no state, about 8% slower a pass (7 of 8 paired runs, 2-vCPU
    Xeon)."""
    import hashlib

    return hashlib.sha256(data)


def write_state(csv_path, state: LatticeState, c: float, energy: float | None):
    """Write the amplitude CSV, its sidecar JSON and its binary copy (see
    the module docstring).  The sidecar holds c and energy as floats (an
    energy of None as null), and is built before any file is written."""
    csv_path = Path(csv_path)
    if csv_path.suffix in (".json", ".bin"):
        raise ValueError(f"{csv_path}: a state CSV cannot be named .json or .bin")
    sidecar = json.dumps({"N": state.n_sites, "boundary": state.boundary.value, "c": float(c),
                          "E": None if energy is None else float(energy)}, indent=2)
    values = np.ascontiguousarray(state.values, "<f8")
    digest = _sha256()
    _write(csv_path, _hashed(digest, _rows("index,psi", values, numbered=True)))
    _write(csv_path.with_suffix(".json"), [_line(sidecar)])
    digest.update(values)
    _write(csv_path.with_suffix(".bin"), [digest.digest(), values])
    return csv_path


def _decoded(path: Path, data: bytes) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None


def _copied_values(copy: Path, data: bytes):
    """The amplitudes of the binary copy at copy, or None where it is
    unreadable or its digest does not match the CSV bytes data and its
    own values."""
    try:
        blob = copy.read_bytes()
    except OSError:
        return None
    if len(blob) < _DIGEST_BYTES or (len(blob) - _DIGEST_BYTES) % 8:
        return None
    values = np.frombuffer(blob, "<f8", offset=_DIGEST_BYTES)
    digest = _sha256(data)
    digest.update(values)
    return values if digest.digest() == blob[:_DIGEST_BYTES] else None


def _parsed_values(csv_path: Path, data: bytes):
    """The amplitudes of the CSV bytes data, parsed as UTF-8 text."""
    lines = _decoded(csv_path, data).strip().splitlines()
    if not lines or lines[0] != "index,psi":
        raise ValueError(f"{csv_path}: expected header 'index,psi'")
    values = np.empty(len(lines) - 1)
    for row, line in enumerate(lines[1:]):
        try:
            idx_s, psi_s = line.split(",")
            index, values[row] = int(idx_s), float(psi_s)
        except ValueError:
            raise ValueError(f"{csv_path}: row {row} is not 'index,psi': {line!r}") from None
        if index != row:
            raise ValueError(f"{csv_path}: non-contiguous index at row {row}")
    return values


def read_state(csv_path):
    """Read a state CSV plus sidecar; returns (state, meta dict).  The
    amplitudes come from the binary copy where it matches the CSV, and
    from the text otherwise; the bits are the same."""
    csv_path = Path(csv_path)
    data = csv_path.read_bytes()
    values = _copied_values(csv_path.with_suffix(".bin"), data)
    if values is None:
        values = _parsed_values(csv_path, data)
    sidecar = csv_path.with_suffix(".json")
    try:
        meta = json.loads(_decoded(sidecar, sidecar.read_bytes()))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{sidecar}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: expected a JSON object")
    if type(meta.get("N")) is not int:
        raise ValueError(f"{sidecar}: key 'N' missing or not an integer")
    boundaries = [b.value for b in Boundary]
    if meta.get("boundary") not in boundaries:
        raise ValueError(f"{sidecar}: key 'boundary' missing or not one of "
                         f"{', '.join(boundaries)}")
    try:
        state = LatticeState(values, Boundary(meta["boundary"]))
    except ValueError as exc:  # no rows, or an amplitude that is not finite
        raise ValueError(f"{csv_path}: {exc}") from None
    if state.n_sites != meta["N"]:
        raise ValueError(f"{csv_path}: sidecar N={meta['N']} != {state.n_sites} rows")
    return state, meta


def write_portrait(path, portrait: PhasePortrait):
    return _write(path, _rows("psi,dpsi", *portrait.points.T, numbered=False))


def write_orbit(path, orbit: MapOrbit, portrait_path):
    """Write the orbit CSV at path and its portrait's CSV at portrait_path
    from one formatting pass (see the module docstring).  Returns path.
    An orbit of one point has no portrait: portrait_from_orbit's
    ValueError is raised before either file is written."""
    path, portrait_path, n = Path(path), Path(portrait_path), orbit.points.shape[0]
    if n < 2:
        portrait_from_orbit(orbit)  # raises
    columns = orbit.points.T
    with _opened(path) as orbit_out, _opened(portrait_path) as portrait_out:
        orbit_out.write(_line("step,psi,Z"))
        portrait_out.write(_line("psi,dpsi"))
        for start in range(0, n, _CHUNK_LINES):
            stop = min(start + _CHUNK_LINES, n)
            words = _block(columns, start, min(stop + 1, n), numbered=True)
            orbit_out.write(words[:stop - start].tobytes().translate(None, b"\0"))
            # portrait row k: psi's slot of row k, its separator cleared,
            # then Z's slot of row k + 1; psi's and Z's are the last 8 words
            width = words.shape[1]
            words.view(np.uint8)[:, 8 * (width - 8)] = 0
            pairs = as_strided(words[0, width - 8:], (min(stop, n - 1) - start, 2, 4),
                               (8 * width, 8 * (width + 4), 8), writeable=False)
            portrait_out.write(pairs.tobytes().translate(None, b"\0"))
            del words, pairs  # before the next block's
    return path


def write_pattern(path, spec: PatternSpec):
    return _write(path, [_line(spec.text())])


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else fmt(value)


def write_csv(path, header, rows):
    """Write a small table: the column names, then one line per row.

    A cell that is None is left empty, a str is written as is, and a
    number is written by fmt.
    """
    lines = chain([",".join(header)], (",".join(map(_cell, row)) for row in rows))
    return _write(path, map(_line, lines))


def write_json(path, payload: dict):
    return _write(path, [_line(json.dumps(payload, indent=2, sort_keys=True))])
