"""Generalized suffix automaton over integer sequences.

Built online over the concatenation of the indexed sequences, each
terminated by a sentinel of its own: a fresh ``object()`` that equals
nothing but itself. No query symbol can equal a sentinel, so a match can
never run through one and therefore never spans two indexed sequences,
whatever values the query holds. Symbols are compared by equality, as a
dict key is, which keeps the construction alphabet-agnostic (system-call
numbers are unbounded small integers).

Most states have exactly one outgoing transition (95% of them on an
ADFA-LD-sized training set of 300,833 symbols), so a state's first
transition sits in two flat per-state slots, and only a branch state has a
dict, for the rest, in one map keyed by state. With 4-byte arrays a state
costs 20 B plus its branch dict, if any: building that index peaks at about
54 B of heap per indexed symbol (15.6 MB). With 8-byte arrays and a slot
for a dict in every state it took 81 B; with a dict per state, 421 B.

The automaton is the DAWG of Blumer et al. (1985): every substring of the
indexed data spells exactly one path from state 0, and nothing else does.
It answers three questions, the first two with one walk from state 0; the
arrays behind them are private to this module, so the layout can change
without touching a caller:

  * ``contains_range(q, i, j)`` -- is q[i:j] a contiguous substring of an
        indexed sequence? O(length of the match).
  * ``longest_match_from(s, i)`` -- how far does s[i:] match into the
        index? O(length of the match).
  * ``longest_common_substring(s)`` -- the longest contiguous run of s
        that is indexed, streamed along suffix links. O(|s|).
"""

from array import array
from itertools import chain
from typing import Iterable

from .traces import as_symbols


# The symbol slot of a state with no transition. Like a sentinel it is a
# fresh object that equals nothing but itself, so no query symbol, whatever
# its value, steps from such a state.
_NONE = object()


class GeneralizedSuffixIndex:
    """Substring, maximal-prefix and common-substring queries over a set of sequences.

    State v's first transition reads ``_sym[v]`` (``_NONE`` if v has none)
    and leads to ``_to[v]``; if v has more, ``_more[v]`` maps the symbol of
    each further transition to its target, and ``_more`` holds no other
    state. ``_link[v]`` is v's suffix link (-1 for state 0) and
    ``_length[v]`` the length of the longest string that reaches v.
    ``extend`` appends sequences in place, and the result is the index a
    single build over all of them, in the same order, would give. Queries
    keep all their state in locals, so any number of readers may run
    concurrently between extensions.
    """

    _state_cap = 2**31 - 1  # states are numbered in array("i") slots

    def __init__(self, sequences: Iterable = ()):
        # The cyclic GC tracks the symbol list and the branch map (each one
        # container that a full collection walks once) but not the int
        # arrays, nor the branch dicts, which hold only ints and sentinels. A
        # build allocates a container only per branch state, so it triggers
        # few collections.
        self._sym: list = [_NONE]
        self._to = array("i", [0])
        self._more: dict[int, dict] = {}
        self._link = array("i", [-1])
        self._length = array("i", [0])
        self.sequence_count = 0
        self._last = 0  # the state of the whole data indexed so far
        self.extend(sequences)

    # -- construction -------------------------------------------------

    def extend(self, sequences: Iterable) -> None:
        """Append sequences to the indexed data.

        The automaton is online, so this leaves exactly the index that one
        build over the earlier sequences followed by these would give. A
        sequence that could take the index past ``_state_cap`` states raises
        ``ValueError`` before anything of it is written; the sequences before
        it stay indexed.
        """
        for seq in sequences:
            symbols = as_symbols(seq)
            if symbols:  # empty sequences contribute no substrings
                # each symbol and the sentinel add a state and at most one clone
                if len(self._sym) + 2 * (len(symbols) + 1) > self._state_cap:
                    raise ValueError(f"indexing {len(symbols)} more symbols could pass the cap of "
                                     f"{self._state_cap} states; nothing of them was indexed")
                self._last = self._add(self._last, symbols)
                self.sequence_count += 1

    def _add(self, last: int, symbols: tuple[int, ...]) -> int:
        """Append symbols and a unique sentinel to the indexed data; returns
        the state of the whole data, from which the next sequence extends."""
        sym, to, more, link, length = self._sym, self._to, self._more, self._link, self._length
        new_sym, new_to, new_link, new_length = sym.append, to.append, link.append, length.append
        for c in chain(symbols, (object(),)):
            cur = len(sym)
            new_sym(_NONE)
            new_to(0)
            new_length(length[last] + 1)
            new_link(0)
            # every state on last's suffix path up to the first p that reads
            # c gains a transition on c to cur, in its first free slot; last
            # itself is the newest state, which has none yet
            sym[last] = c
            to[last] = cur
            p = link[last]
            while p != -1:
                first = sym[p]
                if first is _NONE:
                    sym[p] = c
                    to[p] = cur
                elif first == c:
                    q = to[p]
                    break
                else:
                    rest = more.get(p)
                    if rest is None:
                        more[p] = {c: cur}
                    else:
                        q = rest.get(c, -1)
                        if q != -1:
                            break
                        rest[c] = cur
                p = link[p]
            if p != -1:
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(sym)
                    new_sym(sym[q])
                    new_to(to[q])
                    rest = more.get(q)
                    if rest is not None:
                        more[clone] = rest.copy()
                    new_length(length[p] + 1)
                    new_link(link[q])
                    # every suffix-link ancestor of p reads c too
                    while p != -1:
                        if sym[p] == c:
                            if to[p] != q:
                                break
                            to[p] = clone
                        else:
                            rest = more[p]
                            if rest[c] != q:
                                break
                            rest[c] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur
        return last

    # -- queries ------------------------------------------------------

    def _prefix(self, symbols, start: int, end: int) -> int:
        """Length of the longest indexed prefix of symbols[start:end]: a walk
        from state 0 that stops at the first symbol with no transition, so
        it costs what it matches, never the probed length."""
        sym, to, more = self._sym, self._to, self._more
        state = 0
        for i in range(start, end):
            c = symbols[i]
            if sym[state] == c:
                state = to[state]
            else:
                rest = more.get(state)
                if rest is None:
                    return i - start
                state = rest.get(c)
                if state is None:
                    return i - start
        return end - start

    def contains_range(self, symbols, start: int, end: int) -> bool:
        """True iff symbols[start:end], non-empty, is a contiguous substring of
        an indexed sequence; no slice is materialized."""
        if not 0 <= start < end <= len(symbols):
            raise ValueError(f"range [{start}, {end}) invalid for length {len(symbols)}")
        return self._prefix(symbols, start, end) == end - start

    def longest_match_from(self, s, start: int) -> int:
        """Largest L >= 1 such that L == 1 or s[start:start+L] is indexed; the
        floor of 1 is there because any single symbol is an admissible
        covering segment, even one that never occurs in the indexed set."""
        symbols = as_symbols(s)
        if not 0 <= start < len(symbols):
            raise ValueError(f"start {start} out of range for length {len(symbols)}")
        return max(self._prefix(symbols, start, len(symbols)), 1)

    def longest_common_substring(self, s) -> int:
        """Length of the longest contiguous run of s that is indexed; 0 if none.

        s streams through once: on a mismatch the walk falls back along
        suffix links to the longest indexed suffix of what it has read that
        the symbol extends, so the cost is O(|s|).
        """
        sym, to, more, link, length = self._sym, self._to, self._more, self._link, self._length
        first, rest = sym[0], more.get(0, {})  # state 0 reads every indexed symbol
        state = matched = best = 0  # matched is 0 whenever state is 0
        for c in as_symbols(s):
            if sym[state] == c:
                state = to[state]
                matched += 1
                continue
            if matched > best:
                best = matched
            if c == first or c in rest:
                # state's first slot does not read c: try its dict, then
                # each suffix-link ancestor's two slots, down to state 0
                while state:
                    branch = more.get(state)
                    if branch is not None and c in branch:
                        state = branch[c]
                        break
                    state = link[state]
                    matched = length[state]
                    if sym[state] == c:
                        state = to[state]
                        break
                else:
                    state = rest[c]
                matched += 1
            else:  # no indexed string holds c
                state = matched = 0
        return max(best, matched)

    # -- diagnostics ----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """State/transition counts for memory profiling."""
        sym = self._sym
        return {
            "nodes": len(sym),
            "edges": len(sym) - sym.count(_NONE) + sum(map(len, self._more.values())),
            "indexed_symbols": max(self._length),  # the whole data reaches the last state
            "sequences": self.sequence_count,
        }
