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
omitted for trivial tails, but the writer always emits all of them.  Once n
is read, the reader takes the writer's zero row (` : ` and n single-spaced
zeros) whole, by one comparison, and reads only its key; any other spelling
is read number by number.  The reader enforces the support rules and
rejects a second p, n, labels, power or comm line for the same item, a power
row for a generator outside 1..n, repeated labels, numbers that are not
ASCII digits and files that are not UTF-8, so a malformed file cannot reach
the arithmetic layer.
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
    zero_row = None  # the writer's zero row, once n is read
    for ln in lines[1:]:
        # a zero row: the key is read and the tail is trivial (None)
        head = zero_row and ln.endswith(zero_row) and ln[: -len(zero_row)].split()
        if head and len(head) == 3 and head[0] == "comm":
            table, key, value = comms, tuple(_ints(head[1:], "generator index")), None
        else:
            parts = ln.split()
            if parts[0] in ("p", "n") and len(parts) == 2:
                table, key, value = fields, parts[0], _int(parts[1], parts[0])
            elif parts[0] == "labels":
                table, key, value = fields, "labels", tuple(parts[1:])
            elif parts[0] == "power":
                if len(parts) < 3 or parts[2] != ":":
                    raise PresentationError(f"malformed power row: {ln!r}")
                table, key = powers, _int(parts[1], "generator index")
                value = _ints(parts[3:], "exponent")
            elif parts[0] == "comm":
                if len(parts) < 4 or parts[3] != ":":
                    raise PresentationError(f"malformed comm row: {ln!r}")
                table = comms
                key = tuple(_ints(parts[1:3], "generator index"))
                value = _ints(parts[4:], "exponent")
            else:
                raise PresentationError(f"unrecognized line in group file: {ln!r}")
        if key in table:
            raise PresentationError(f"duplicate line in group file: {ln!r}")
        table[key] = value
        if key == "n" and 0 < value < len(text) // 2:  # a row the text can hold
            zero_row = " : " + " ".join("0" * value)
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


# The canonical spellings of 0..255: every exponent (below p <= 61) and the
# generator indices of presentations with n <= 255.  `_int` reads each of
# these spellings as the same number, and reads any larger index.
_NUMBERS = {str(k): k for k in range(256)}


def _ints(tokens, what: str) -> list:
    """The numbers of a row, looked up when every token is a canonical
    spelling; otherwise read token by token by `_int`, which words the error
    or reads a number (signed, zero-padded, large) for the checks of
    `PcPresentation` to judge."""
    try:
        return list(map(_NUMBERS.__getitem__, tokens))
    except KeyError:
        return [_int(x, what) for x in tokens]


def _int(token: str, what: str) -> int:
    """An optionally signed run of ASCII digits; `int` alone would also
    read other scripts' digits, underscores and a leading plus."""
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        return int(token)
    raise PresentationError(f"bad {what} in group file: {token!r}")
