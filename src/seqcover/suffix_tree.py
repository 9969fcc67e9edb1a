"""Generalized suffix automaton over integer sequences.

Built online over the concatenation of the indexed sequences, each
terminated by a sentinel of its own: a fresh ``object()`` that equals
nothing but itself. No query symbol can equal a sentinel, so a match can
never run through one and therefore never spans two indexed sequences,
whatever values the query holds. The transitions of a state sit in a dict
keyed by symbol, which keeps the construction alphabet-agnostic
(system-call numbers are unbounded small integers).

The automaton is the DAWG of Blumer et al. (1985): every substring of the
indexed data spells exactly one path from state 0, and nothing else does.
It answers four questions; the arrays behind them are private to this
module, so the layout can change without touching a caller:

  * ``contains(q)``, ``contains_range(q, i, j)`` -- is q, or q[i:j], a
        contiguous substring of an indexed sequence? O(|q|).
  * ``longest_match_from(s, i)`` -- how far does s[i:] match into the
        index? O(length of the match).
  * ``longest_common_substring(s)`` -- the longest contiguous run of s
        that is indexed, streamed along suffix links. O(|s|).
"""

from array import array
from itertools import chain
from typing import Iterable

from .traces import as_symbols


class GeneralizedSuffixIndex:
    """Substring, maximal-prefix and common-substring queries over a set of sequences.

    ``_next[v]`` maps a symbol to the state it leads to from state v,
    ``_link[v]`` is v's suffix link (-1 for state 0) and ``_length[v]`` the
    length of the longest string that reaches v. ``extend`` appends
    sequences in place, and the result is the index a single build over all
    of them, in the same order, would give. Queries keep all their state in
    locals, so any number of readers may run concurrently between extensions.
    """

    def __init__(self, sequences: Iterable = ()):
        # Dicts holding only ints and sentinels, and int arrays, are not
        # tracked by the cyclic GC, so a large build triggers no collections
        # that would have to traverse the index built so far.
        self._next: list[dict] = [{}]
        self._link = array("q", [-1])
        self._length = array("q", [0])
        self.sequence_count = 0
        self._last = 0  # the state of the whole data indexed so far
        self.extend(sequences)

    # -- construction -------------------------------------------------

    def extend(self, sequences: Iterable) -> None:
        """Append sequences to the indexed data.

        The automaton is online, so this leaves exactly the index that one
        build over the earlier sequences followed by these would give.
        """
        for seq in sequences:
            symbols = as_symbols(seq)
            if symbols:  # empty sequences contribute no substrings
                self._last = self._add(self._last, symbols)
                self.sequence_count += 1

    def _add(self, last: int, symbols: tuple[int, ...]) -> int:
        """Append symbols and a unique sentinel to the indexed data; returns
        the state of the whole data, from which the next sequence extends."""
        nxt, link, length = self._next, self._link, self._length
        for sym in chain(symbols, (object(),)):
            cur = len(nxt)
            nxt.append({})
            length.append(length[last] + 1)
            link.append(0)
            p = last
            while p != -1 and sym not in nxt[p]:
                nxt[p][sym] = cur
                p = link[p]
            if p != -1:
                q = nxt[p][sym]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(nxt)
                    nxt.append(nxt[q].copy())
                    length.append(length[p] + 1)
                    link.append(link[q])
                    while p != -1 and nxt[p].get(sym) == q:
                        nxt[p][sym] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur
        return last

    # -- queries ------------------------------------------------------

    def contains(self, query) -> bool:
        """True iff the query is a contiguous substring of an indexed sequence."""
        symbols = as_symbols(query)
        if not symbols:
            raise ValueError("contains() requires a non-empty query")
        return self.contains_range(symbols, 0, len(symbols))

    def contains_range(self, symbols, start: int, end: int) -> bool:
        """``contains`` over symbols[start:end] without materializing a slice.

        The walk stops at the first symbol with no transition, so a probe
        costs time proportional to how far it matches, never to the probed
        length.
        """
        if not 0 <= start < end <= len(symbols):
            raise ValueError(f"range [{start}, {end}) invalid for length {len(symbols)}")
        nxt = self._next
        state = 0
        for i in range(start, end):
            state = nxt[state].get(symbols[i])
            if state is None:
                return False
        return True

    def longest_match_from(self, s, start: int) -> int:
        """Largest L >= 1 such that L == 1 or s[start:start+L] is indexed.

        A single walk from state 0; the floor of 1 reflects that any single
        symbol is an admissible covering segment even when it never occurs
        in the indexed set.
        """
        symbols = as_symbols(s)
        if not 0 <= start < len(symbols):
            raise ValueError(f"start {start} out of range for length {len(symbols)}")
        nxt = self._next
        state = 0
        for i in range(start, len(symbols)):
            state = nxt[state].get(symbols[i])
            if state is None:
                return max(i - start, 1)
        return len(symbols) - start

    def longest_common_substring(self, s) -> int:
        """Length of the longest contiguous run of s that is indexed; 0 if none.

        s streams through once: on a mismatch the walk falls back along
        suffix links to the longest indexed suffix of what it has read that
        the symbol extends, so the cost is O(|s|).
        """
        nxt, link, length = self._next, self._link, self._length
        state = matched = best = 0  # matched is 0 whenever state is 0
        for c in as_symbols(s):
            while state and c not in nxt[state]:
                state = link[state]
                matched = length[state]
            if c in nxt[state]:
                state = nxt[state][c]
                matched += 1
                if matched > best:
                    best = matched
        return best

    # -- diagnostics ----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """State/transition counts for memory profiling."""
        return {
            "nodes": len(self._next),
            "edges": sum(map(len, self._next)),
            "indexed_symbols": max(self._length),  # the whole data reaches the last state
            "sequences": self.sequence_count,
        }
