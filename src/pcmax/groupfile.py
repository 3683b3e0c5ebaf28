"""Textual interchange format for pc presentations.

Layout (whitespace-separated, one item per line, order fixed):

    pcmax-group 1
    p 5
    n 7
    labels s s_1 s_2 s_3 s_4 s_5 s_6
    power 1 : 0 0 0 0 0 0 0
    ...                                  (one row per generator)
    comm 2 1 : 0 0 1 0 0 0 0
    ...                                  (one row per pair j > i)

Tail rows are full exponent vectors of length n; commutator rows may be
omitted for trivial tails, but the writer always emits all of them.  The
reader splits off only the head of a power or comm row (the kind, the
indices and the `:`) and reads the rest, the payload, once for each
distinct text in the file, and each distinct spelling of a number once; so
the writer's zero row, repeated for every trivial tail, costs one dict
lookup per row.  The reader enforces the support rules and rejects a second
p, n, labels, power or comm line for the same item, a power row for a
generator outside 1..n, repeated labels, numbers that are not ASCII digits
and files that are not UTF-8, so a malformed file cannot reach the
arithmetic layer.
"""

from __future__ import annotations

from .errors import PresentationError
from .pcgroup import PcPresentation


def dumps(pres: PcPresentation) -> str:
    return pres.canonical_text()


def dump(pres: PcPresentation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(pres))


def loads(text: str) -> PcPresentation:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0].split() != ["pcmax-group", "1"]:
        raise PresentationError("missing or unsupported group file header")
    fields = {}
    powers = {}
    comms = {}
    numbers = {}  # spelling -> number, for `_ints`
    payloads = {}  # a row's text after its `:` -> its numbers
    for ln in lines[1:]:
        kind = ln.split(None, 1)[0]
        if kind == "power" or kind == "comm":
            width = 3 if kind == "power" else 4  # tokens up to and with ":"
            parts = ln.split(None, width)
            if len(parts) < width or parts[width - 1] != ":":
                raise PresentationError(f"malformed {kind} row: {ln!r}")
            key = _ints(parts[1:width - 1], "generator index", numbers)
            table, key = (powers, key[0]) if kind == "power" else (comms, tuple(key))
            payload = parts[width] if len(parts) > width else ""
            value = payloads.get(payload)
            if value is None:
                value = payloads[payload] = _ints(payload.split(), "exponent", numbers)
        else:
            parts = ln.split()
            if kind in ("p", "n") and len(parts) == 2:
                table, key, value = fields, kind, _ints(parts[1:], kind, numbers)[0]
            elif kind == "labels":
                table, key, value = fields, "labels", tuple(parts[1:])
            else:
                raise PresentationError(f"unrecognized line in group file: {ln!r}")
        if key in table:
            raise PresentationError(f"duplicate line in group file: {ln!r}")
        table[key] = value
    p, n = fields.get("p"), fields.get("n")
    if p is None or n is None:
        raise PresentationError("group file must declare p and n")
    stray = sorted(i for i in powers if not 1 <= i <= n)
    if stray:
        raise PresentationError(f"power row for generator {stray[0]} outside 1..{n}")
    power_tails = []
    for i in range(1, n + 1):
        if i not in powers:
            raise PresentationError(f"missing power row for generator {i}")
        power_tails.append(powers[i])
    return PcPresentation(p, n, power_tails, comms, labels=fields.get("labels"))


def load(path) -> PcPresentation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PresentationError(f"cannot read group file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PresentationError(f"group file is not UTF-8 text: {exc}") from exc
    return loads(text)


def _ints(tokens, what: str, numbers: dict) -> list:
    """The numbers of `tokens`, looked up in `numbers`; a spelling not yet
    there is read by `_int`, which words the error or reads a number
    (signed, zero-padded, large) for the checks of `PcPresentation` to
    judge, and kept, so each spelling of a file is read once."""
    try:
        return list(map(numbers.__getitem__, tokens))
    except KeyError:
        for x in tokens:
            if x not in numbers:
                numbers[x] = _int(x, what)
        return list(map(numbers.__getitem__, tokens))


def _int(token: str, what: str) -> int:
    """An optionally signed run of ASCII digits, at most 640 characters (the
    least cap `int` may put on digits); `int` alone would also read other
    scripts' digits, underscores and a leading plus, or raise past its cap."""
    if token.isascii() and len(token) <= 640 and (
            token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        return int(token)
    raise PresentationError(f"bad {what} in group file: {token!r}")
