"""AS-paths.

Inside the BGP engine AS-paths are plain ``tuple[int, ...]`` (first element
is the most recent AS, last is the origin).  :class:`ASPath` wraps such a
tuple with the dataset-level operations the paper needs: parsing from dump
text, removal of AS-path prepending (Section 3.1, footnote 1), loop
detection, and suffix extraction for the refinement walk (Section 4.6).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import ParseError
from repro.net.asn import parse_asn


class ASPath:
    """An immutable AS-path; element 0 is nearest the observer, -1 the origin."""

    __slots__ = ("_asns",)

    def __init__(self, asns: Sequence[int]):
        self._asns = tuple(int(a) for a in asns)

    @classmethod
    def parse(cls, text: str) -> "ASPath":
        """Parse a whitespace- or dash-separated AS-path string.

        AS_SET members (``{64512,64513}``, produced by aggregation) are not
        supported and raise :class:`ParseError`; the paper's dataset drops
        aggregated routes.
        """
        text = text.strip()
        if "{" in text or "}" in text:
            raise ParseError(f"AS_SET segments are not supported: {text!r}")
        if not text:
            return cls(())
        tokens = text.replace("-", " ").split()
        return cls(tuple(parse_asn(token) for token in tokens))

    @property
    def asns(self) -> tuple[int, ...]:
        """The path as a tuple of AS numbers."""
        return self._asns

    @property
    def origin_asn(self) -> int:
        """The AS that originated the route (last path element)."""
        if not self._asns:
            raise ValueError("empty AS-path has no origin")
        return self._asns[-1]

    @property
    def head_asn(self) -> int:
        """The AS nearest the observer (first path element)."""
        if not self._asns:
            raise ValueError("empty AS-path has no head")
        return self._asns[0]

    def without_prepending(self) -> "ASPath":
        """Collapse consecutive duplicate ASNs (undo AS-path prepending).

        >>> ASPath.parse("1 2 2 2 3").without_prepending()
        ASPath('1 2 3')
        """
        collapsed: list[int] = []
        for asn in self._asns:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        return ASPath(collapsed)

    def has_loop(self) -> bool:
        """True if some AS appears twice non-consecutively (a routing loop).

        Consecutive duplicates are prepending, not loops, and do not count.
        """
        deduped = self.without_prepending()
        return len(set(deduped._asns)) != len(deduped._asns)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield the AS adjacencies (a, b) along the path, observer-side first."""
        for left, right in zip(self._asns, self._asns[1:]):
            if left != right:
                yield (left, right)

    def __len__(self) -> int:
        return len(self._asns)

    def __iter__(self) -> Iterator[int]:
        return iter(self._asns)

    def __contains__(self, asn: object) -> bool:
        return asn in self._asns

    def __getitem__(self, index):
        result = self._asns[index]
        if isinstance(index, slice):
            return ASPath(result)
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ASPath):
            return self._asns == other._asns
        if isinstance(other, tuple):
            return self._asns == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._asns)

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self._asns)

    def __repr__(self) -> str:
        return f"ASPath({str(self)!r})"
