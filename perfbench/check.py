"""Output check of one benchmark pass.

A pass fails on a non-zero exit, an uncaught exception, a ``CHECK`` record
that is not ``pass``, a missing required check, or records that differ from
what the workload must produce.  Record kinds the check does not know (a
future ``STAT``, say) are ignored.
"""

from __future__ import annotations

import hashlib

DIGEST_KINDS = ("RANK", "PART", "PROFILE")


def _kind(line: str) -> str:
    return line.split(" ", 1)[0]


def _fields(line: str) -> dict[str, str]:
    return dict(token.partition("=")[::2] for token in line.split()[1:])


def records_digest(text: str) -> str:
    """sha256 of the RANK, PART and PROFILE records, in order."""
    lines = [line for line in text.splitlines() if _kind(line) in DIGEST_KINDS]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def class_ranks(text: str, class_of: dict[str, int]) -> tuple[str | None, list[str]]:
    """sha256 of the rank each input class gets, in class order.

    ``class_of`` maps a structure id to its isomorphism class.  Ranks are
    invariant under relabeling, so every id of one class must carry the same
    rank, and the digest does not depend on which members the seed chose.
    """
    problems = []
    seen: dict[int, str] = {}
    for line in text.splitlines():
        if _kind(line) != "RANK":
            continue
        fields = _fields(line)
        cls = class_of.get(fields.get("point", ""))
        if cls is None:
            continue
        value = " ".join(f"{k}={v}" for k, v in fields.items() if k != "point")
        if seen.setdefault(cls, value) != value:
            problems.append(f"class {cls} has ranks {seen[cls]!r} and {value!r}")
    missing = set(class_of.values()) - set(seen)
    if missing:
        problems.append(f"{len(missing)} classes have no RANK record")
        return None, problems
    body = "\n".join(f"{cls} {seen[cls]}" for cls in sorted(seen))
    return hashlib.sha256(body.encode("utf-8")).hexdigest(), problems


def check_pass(text: str, exit_code, error: str | None, expect: dict) -> list[str]:
    """Reasons the pass failed; empty when it passed.

    ``expect`` may hold ``checks`` (names that must be present),
    ``records_sha256``, ``rank_count``, ``part_covers_ranks``, ``profile``,
    and ``class_of`` with ``class_ranks_sha256``.
    """
    problems = []
    if error:
        problems.append("uncaught exception: " + error.strip().splitlines()[-1])
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    lines = text.splitlines()
    verdicts = {}
    for line in lines:
        if _kind(line) == "CHECK":
            fields = _fields(line)
            verdicts[fields.get("name")] = fields.get("verdict")
            if fields.get("verdict") != "pass":
                problems.append(f"check {fields.get('name')} reports "
                                f"{fields.get('verdict')}")
    for name in expect.get("checks", ()):
        if name not in verdicts:
            problems.append(f"check {name} missing")
    if "records_sha256" in expect and \
            records_digest(text) != expect["records_sha256"]:
        problems.append("RANK/PART/PROFILE records differ from the expected ones")
    ranked = [_fields(line).get("point") for line in lines if _kind(line) == "RANK"]
    if "rank_count" in expect and len(set(ranked)) != expect["rank_count"]:
        problems.append(f"{len(set(ranked))} ranked points, "
                        f"expected {expect['rank_count']}")
    if expect.get("part_covers_ranks"):
        parted = [p for line in lines if _kind(line) == "PART"
                  for p in _fields(line).get("points", "").split(";")]
        if sorted(parted) != sorted(ranked):
            problems.append("PART records do not partition the ranked points")
    if expect.get("profile") and not any(_kind(line) == "PROFILE" for line in lines):
        problems.append("no PROFILE records")
    if "class_of" in expect:
        digest, found = class_ranks(text, expect["class_of"])
        problems.extend(found)
        if digest is not None and digest != expect["class_ranks_sha256"]:
            problems.append("ranks per class differ from the expected ones")
    return problems


def check_work(layers: dict, expected: dict) -> list[str]:
    """Counts of a traced pass that differ from the workload's pinned work."""
    return [f"{name} is {layers.get(name)}, expected {value}"
            for name, value in expected.items() if layers.get(name) != value]
