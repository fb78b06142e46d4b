"""Byte edits of ``.vfb`` and ``.ckpt`` files: a text line changes, the payloads stay."""


def rewrite_line(data: bytes, prefix: str, line=None) -> bytes:
    """``data`` with its one text line that starts with ``prefix`` replaced by ``line``.

    ``line`` is a str or bytes, without its newline; None deletes the line.
    Exactly one line must start with ``prefix``, so that an edit never lands
    in a binary payload that happens to hold the same bytes.
    """
    head = prefix.encode("utf-8")
    starts = [0] if data.startswith(head) else []
    at = data.find(b"\n" + head)
    while at != -1:
        starts.append(at + 1)
        at = data.find(b"\n" + head, at + 1)
    assert len(starts) == 1, f"{len(starts)} lines start with {prefix!r}"
    start = starts[0]
    end = data.index(b"\n", start) + 1
    if line is None:
        return data[:start] + data[end:]
    new = line if isinstance(line, bytes) else line.encode("utf-8")
    return data[:start] + new + b"\n" + data[end:]
