"""Generalized suffix tree over integer sequences.

Built online (Ukkonen) over the concatenation of the indexed sequences,
each terminated by a sentinel of its own: a fresh ``object()`` that equals
nothing but itself. No query symbol can equal a sentinel, so a match can
never run through one and therefore never spans two indexed sequences,
whatever values the query holds. Child edges hang off a dict
keyed by their first symbol, which keeps the construction alphabet-agnostic
(system-call numbers are unbounded small integers).

The tree answers two questions, both by a single root-to-leaf descent:

  * ``contains(q)``          -- is q a contiguous substring of any indexed
                                sequence? O(|q|).
  * ``longest_match_from``   -- how far does s[start:] match into the tree?
                                O(length of the match).
"""

from typing import Iterable

from .traces import as_symbols


class _Node:
    """Tree node; ``start``/``end`` label the incoming edge (half-open over
    the concatenated data). ``end is None`` marks a still-open leaf during
    construction; every leaf is frozen once its sequence is finished."""

    __slots__ = ("start", "end", "children", "link")

    def __init__(self, start: int, end: int | None):
        self.start = start
        self.end = end
        self.children: dict[object, "_Node"] = {}
        self.link: "_Node | None" = None


class GeneralizedSuffixIndex:
    """Substring membership and maximal-prefix queries over a set of sequences.

    Immutable after construction; queries keep all their state in locals, so
    any number of readers may run concurrently.
    """

    def __init__(self, sequences: Iterable = ()):
        self._data: list[object] = []  # symbols, a sentinel after each sequence
        self._root = _Node(-1, -1)
        self._active_node = self._root
        self._active_edge = 0
        self._active_length = 0
        self._remainder = 0
        self._open_leaves: list[_Node] = []
        self.sequences = tuple(sequences)
        self.sequence_count = 0
        for seq in self.sequences:
            self._add(as_symbols(seq))

    # -- construction -------------------------------------------------

    def _add(self, symbols: tuple[int, ...]) -> None:
        if not symbols:
            return  # empty sequences contribute no substrings
        for sym in symbols:
            self._extend(sym)
        self.sequence_count += 1
        self._extend(object())  # unique sentinel, equal to no query symbol
        # The sentinel matches no existing edge, so every pending suffix got
        # its leaf: the active point is back at the root and the leaves of
        # this sequence all end exactly at the current data end.
        for leaf in self._open_leaves:
            leaf.end = len(self._data)
        self._open_leaves.clear()

    def _extend(self, sym: object) -> None:
        data = self._data
        data.append(sym)
        pos = len(data) - 1
        self._remainder += 1
        last_internal: _Node | None = None

        while self._remainder > 0:
            if self._active_length == 0:
                self._active_edge = pos
            first = data[self._active_edge]
            child = self._active_node.children.get(first)
            if child is None:
                leaf = _Node(pos, None)
                self._active_node.children[first] = leaf
                self._open_leaves.append(leaf)
                if last_internal is not None:
                    last_internal.link = self._active_node
                    last_internal = None
            else:
                edge_end = child.end if child.end is not None else len(data)
                edge_len = edge_end - child.start
                if self._active_length >= edge_len:
                    # walk down one node and retry this suffix
                    self._active_node = child
                    self._active_edge += edge_len
                    self._active_length -= edge_len
                    continue
                if data[child.start + self._active_length] == sym:
                    # current suffix already present implicitly
                    self._active_length += 1
                    if last_internal is not None:
                        last_internal.link = self._active_node
                        last_internal = None
                    break
                split = _Node(child.start, child.start + self._active_length)
                self._active_node.children[first] = split
                leaf = _Node(pos, None)
                split.children[sym] = leaf
                self._open_leaves.append(leaf)
                child.start += self._active_length
                split.children[data[child.start]] = child
                if last_internal is not None:
                    last_internal.link = split
                last_internal = split

            self._remainder -= 1
            if self._active_node is self._root and self._active_length > 0:
                self._active_length -= 1
                self._active_edge = pos - self._remainder + 1
            elif self._active_node is not self._root:
                self._active_node = self._active_node.link or self._root

    # -- queries ------------------------------------------------------

    def contains(self, query) -> bool:
        """True iff the query is a contiguous substring of an indexed sequence."""
        symbols = as_symbols(query)
        if not symbols:
            raise ValueError("contains() requires a non-empty query")
        return self.contains_range(symbols, 0, len(symbols))

    def contains_range(self, symbols, start: int, end: int) -> bool:
        """``contains`` over symbols[start:end] without materializing a slice.

        The descent stops at the first mismatch, so a probe costs time
        proportional to how far it matches, never to the probed length.
        """
        if not 0 <= start < end <= len(symbols):
            raise ValueError(f"range [{start}, {end}) invalid for length {len(symbols)}")
        data = self._data
        node = self._root
        i = start
        while i < end:
            child = node.children.get(symbols[i])
            if child is None:
                return False
            p = child.start + 1
            edge_end = child.end
            i += 1
            while p < edge_end and i < end:
                if data[p] != symbols[i]:
                    return False
                p += 1
                i += 1
            node = child
        return True

    def longest_match_from(self, s, start: int) -> int:
        """Largest L >= 1 such that L == 1 or s[start:start+L] is indexed.

        A single descent from the root; the floor of 1 reflects that any
        single symbol is an admissible covering segment even when it never
        occurs in the indexed set.
        """
        symbols = as_symbols(s)
        if not 0 <= start < len(symbols):
            raise ValueError(f"start {start} out of range for length {len(symbols)}")
        data = self._data
        node = self._root
        i = start
        end_of_s = len(symbols)
        while i < end_of_s:
            child = node.children.get(symbols[i])
            if child is None:
                break
            p = child.start + 1
            edge_end = child.end
            i += 1
            while p < edge_end and i < end_of_s and data[p] == symbols[i]:
                p += 1
                i += 1
            if p < edge_end:
                break  # mismatch mid-edge, or s exhausted
            node = child
        matched = i - start
        return matched if matched >= 1 else 1

    # -- diagnostics ----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Node/edge counts for memory profiling."""
        nodes = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(node.children.values())
        return {
            "nodes": nodes,
            "edges": nodes - 1,
            "indexed_symbols": len(self._data),
            "sequences": self.sequence_count,
        }
