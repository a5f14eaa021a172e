"""A two-way index over the free gaps of a linear address space.

The classical free-list allocators (:mod:`repro.allocators.free_list`) keep
the maximal free extents below the high-water mark and, per insert, pick one
by policy: First Fit wants the lowest-addressed fitting gap, Best Fit the
tightest, Worst Fit the widest.  A flat address-ordered list answers each of
those with a full scan; :class:`GapIndex` answers all three in O(log n) by
keeping the same gap set in up to two orders:

* an **address-ordered treap** whose nodes carry the maximum gap length in
  their subtree (for leftmost-fitting descent — exact First Fit) and subtree
  sizes (for rank queries, which Next Fit's roving pointer needs);
* a **size-ordered treap** over ``(length, start)`` keys, where the Best
  Fit answer is the ceiling of the request size and the Worst Fit answer is
  the lowest-addressed key of the maximum length — both O(log n) descents.
  Only an index built with ``size_order=True`` (the default) keeps it; the
  free-list policies that never query it (First, Next Fit) build without
  it, so their updates touch one treap.  (Earlier revisions kept this
  order in a flat ``bisect``/``insort`` list, which pays O(n) memmove per
  insert and delete; see ``benchmarks/bench_address_space.py``.)

Gaps are updated **in place**.  :meth:`GapIndex.take` finds the gap with
one descent that records its path; a partial take moves the node's start
forward, which keeps its address rank, and re-pulls only the aggregates
that change.  :meth:`GapIndex.release` meets both address neighbours on
one descent: a free next to one gap grows that node, a free between two
gaps unlinks the deeper one and grows the other, and only a free next to
neither adds a node.  Nodes are created and deleted only when the gap set
gains or loses a gap.

Every policy answer is *identical* to the one the linear scans produce —
the index changes the cost of a query, never its result.  A running total
of gap lengths makes ``free volume`` O(1).

The treap's priorities come from a fixed-seed generator, so tree shapes —
and therefore runtimes — are reproducible; results never depend on shape.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.obs.telemetry import get_telemetry
from repro.storage.extent import Extent


class _Node:
    __slots__ = ("start", "length", "priority", "left", "right", "max_length", "count")

    def __init__(self, start: int, length: int, priority: int) -> None:
        self.start = start
        self.length = length
        self.priority = priority
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.max_length = length
        self.count = 1


def _pull(node: _Node) -> _Node:
    """Recompute a node's subtree aggregates from its children."""
    max_length = node.length
    count = 1
    left, right = node.left, node.right
    if left is not None:
        count += left.count
        if left.max_length > max_length:
            max_length = left.max_length
    if right is not None:
        count += right.count
        if right.max_length > max_length:
            max_length = right.max_length
    node.max_length = max_length
    node.count = count
    return node


def _descend(root: Optional[_Node], start: int) -> Tuple[List[_Node], Optional[_Node]]:
    """The path of nodes from ``root`` towards ``start`` and the node keyed
    ``start`` (None if absent: the path then ends where it would hang)."""
    path: List[_Node] = []
    node = root
    while node is not None:
        node_start = node.start
        if start == node_start:
            break
        path.append(node)
        node = node.left if start < node_start else node.right
    return path, node


def _attach(root: Optional[_Node], path: List[_Node], node: _Node) -> Optional[_Node]:
    """Hang ``node`` where the descent ``path`` from ``root`` ended, rotate
    it up past every ancestor of lower priority (the treap's unique shape
    for these keys and priorities) and return the new root.  The ancestors
    left above it gain one node and maybe a wider gap."""
    start = node.start
    priority = node.priority
    while path and path[-1].priority < priority:
        parent = path.pop()
        if start < parent.start:
            parent.left = node.right
            node.right = parent
        else:
            parent.right = node.left
            node.left = parent
        _pull(parent)
    _pull(node)
    if not path:
        return node
    parent = path[-1]
    if start < parent.start:
        parent.left = node
    else:
        parent.right = node
    length = node.length
    for ancestor in path:
        ancestor.count += 1
        if ancestor.max_length < length:
            ancestor.max_length = length
    return root


def _unlink(root: _Node, path: List[_Node], node: _Node) -> Optional[_Node]:
    """Replace ``node``, reached from ``root`` along ``path``, by the merge
    of its children; re-pull the path and return the new root."""
    replacement = _merge(node.left, node.right)
    if not path:
        return replacement
    parent = path[-1]
    if parent.left is node:
        parent.left = replacement
    else:
        parent.right = replacement
    for ancestor in reversed(path):
        _pull(ancestor)
    return root


def _insert(root: Optional[_Node], node: _Node) -> Optional[_Node]:
    return _attach(root, _descend(root, node.start)[0], node)


def _delete(root: _Node, start: int) -> Optional[_Node]:
    path, node = _descend(root, start)
    assert node is not None, f"no gap at {start}"
    return _unlink(root, path, node)


def _merge(left: Optional[_Node], right: Optional[_Node]) -> Optional[_Node]:
    if left is None:
        return right
    if right is None:
        return left
    if left.priority > right.priority:
        left.right = _merge(left.right, right)
        return _pull(left)
    right.left = _merge(left, right.left)
    return _pull(right)


def _grow(path: List[_Node], length: int) -> None:
    """Raise ``max_length`` along ``path`` (root first) after its last node
    grew to ``length``; counts are unchanged, so stop where it already fits."""
    for node in reversed(path):
        if node.max_length >= length:
            return
        node.max_length = length


def _fit_at_or_after(node: Optional[_Node], rank: int, size: int) -> Optional[Tuple[int, int]]:
    """``(rank, start)`` of the lowest-ranked gap with rank >= ``rank`` and
    length >= ``size`` in ``node``'s subtree (ranks subtree-relative), or None.

    O(height): the recursion follows the single rank boundary path; every
    subtree fully inside the range is entered only when its ``max_length``
    guarantees a fit, in which case the plain leftmost-fit descent succeeds
    without backtracking.
    """
    if node is None or node.max_length < size or rank >= node.count:
        return None
    if rank <= 0:
        # Whole subtree in range: plain leftmost-fit descent, tracking rank.
        base = 0
        while True:
            left = node.left
            left_count = left.count if left is not None else 0
            if left is not None and left.max_length >= size:
                node = left
            elif node.length >= size:
                return base + left_count, node.start
            else:
                base += left_count + 1
                node = node.right  # guaranteed by the subtree max
    left = node.left
    left_count = left.count if left is not None else 0
    if rank < left_count:
        found = _fit_at_or_after(left, rank, size)
        if found is not None:
            return found
    if rank <= left_count and node.length >= size:
        return left_count, node.start
    found = _fit_at_or_after(node.right, rank - left_count - 1, size)
    if found is not None:
        return found[0] + left_count + 1, found[1]
    return None


class _SizeNode:
    """Node of the size-ordered treap: keyed by ``(length, start)``."""

    __slots__ = ("key", "priority", "left", "right")

    def __init__(self, key: Tuple[int, int], priority: int) -> None:
        self.key = key
        self.priority = priority
        self.left: Optional[_SizeNode] = None
        self.right: Optional[_SizeNode] = None


def _size_split(
    root: Optional[_SizeNode], key: Tuple[int, int]
) -> Tuple[Optional[_SizeNode], Optional[_SizeNode]]:
    """Split into (< key, > key) subtrees; ``key`` itself must be absent."""
    if root is None:
        return None, None
    if root.key < key:
        left, right = _size_split(root.right, key)
        root.right = left
        return root, right
    left, right = _size_split(root.left, key)
    root.left = right
    return left, root


def _size_insert(root: Optional[_SizeNode], node: _SizeNode) -> _SizeNode:
    if root is None:
        return node
    if node.priority > root.priority:
        node.left, node.right = _size_split(root, node.key)
        return node
    if node.key < root.key:
        root.left = _size_insert(root.left, node)
    else:
        root.right = _size_insert(root.right, node)
    return root


def _size_merge(
    left: Optional[_SizeNode], right: Optional[_SizeNode]
) -> Optional[_SizeNode]:
    if left is None:
        return right
    if right is None:
        return left
    if left.priority > right.priority:
        left.right = _size_merge(left.right, right)
        return left
    right.left = _size_merge(left, right.left)
    return right


def _size_delete(root: _SizeNode, key: Tuple[int, int]) -> Optional[_SizeNode]:
    if root.key == key:
        return _size_merge(root.left, root.right)
    if key < root.key:
        assert root.left is not None, f"no size entry {key}"
        root.left = _size_delete(root.left, key)
    else:
        assert root.right is not None, f"no size entry {key}"
        root.right = _size_delete(root.right, key)
    return root


def _size_ceiling(
    root: Optional[_SizeNode], probe: Tuple[int, ...]
) -> Optional[Tuple[int, int]]:
    """Smallest key >= ``probe`` (a 1-tuple probe sorts before every
    ``(length, start)`` key of that length, so ``(size,)`` finds the
    tightest fitting gap, address-lowest on ties)."""
    found: Optional[Tuple[int, int]] = None
    while root is not None:
        if root.key >= probe:
            found = root.key
            root = root.left
        else:
            root = root.right
    return found


def _size_max(root: _SizeNode) -> Tuple[int, int]:
    while root.right is not None:
        root = root.right
    return root.key


class GapIndex:
    """Address-indexed set of disjoint, non-adjacent free gaps, with an
    optional size order for Best and Worst Fit.

    ``size_order=False`` drops the ``(length, start)`` treap: every mutation
    then touches the address treap only, and :meth:`best_fit` /
    :meth:`worst_fit` raise.  First Fit and Next Fit never query it.
    """

    #: Class-level default, so an index pickled before the size order
    #: became optional unpickles with it (and its size treap) intact.
    _size_order = True

    def __init__(self, size_order: bool = True) -> None:
        self._root: Optional[_Node] = None
        self._size_order = size_order
        self._size_root: Optional[_SizeNode] = None
        self._total = 0
        self._rng = random.Random(0x9A95)
        # Telemetry counters are bound once, at construction, and only when
        # the process-current session is enabled; with telemetry off every
        # hot method pays exactly one attribute-is-None check.
        telemetry = get_telemetry()
        if telemetry.enabled:
            self._c_queries = telemetry.counter("gap_index.policy_queries")
            self._c_adds = telemetry.counter("gap_index.gap_adds")
            self._c_removes = telemetry.counter("gap_index.gap_removes")
            self._c_coalesces = telemetry.counter("gap_index.coalesce_probes")
        else:
            self._c_queries = None
            self._c_adds = None
            self._c_removes = None
            self._c_coalesces = None

    # ------------------------------------------------------------- basics
    def __len__(self) -> int:
        return self._root.count if self._root is not None else 0

    def __bool__(self) -> bool:
        return self._root is not None

    def __iter__(self) -> Iterator[Extent]:
        """Yield the gaps as extents in address order."""
        for start, length in self._walk(self._root):
            yield Extent(start, length)

    def _walk(self, node: Optional[_Node]) -> Iterator[Tuple[int, int]]:
        stack: List[_Node] = []
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.start, node.length
            node = node.right

    @property
    def total_free(self) -> int:
        """Sum of all gap lengths (maintained as a running counter)."""
        return self._total

    def length_at(self, start: int) -> Optional[int]:
        """Length of the gap starting exactly at ``start`` (None if absent)."""
        node = self._root
        while node is not None:
            if start == node.start:
                return node.length
            node = node.left if start < node.start else node.right
        return None

    # ----------------------------------------------------------- mutation
    def add(self, extent: Extent) -> None:
        """Insert a gap; the caller guarantees disjointness from existing gaps."""
        self._root = _insert(self._root, self._new_node(extent.start, extent.length))

    def _new_node(self, start: int, length: int) -> _Node:
        """A node for a new gap, already entered in the size order and total."""
        counter = self._c_adds
        if counter is not None:
            counter.value += 1
        node = _Node(start, length, self._rng.getrandbits(62))
        if self._size_order:
            self._size_root = _size_insert(
                self._size_root, _SizeNode((length, start), self._rng.getrandbits(62))
            )
        self._total += length
        return node

    def remove(self, start: int) -> Extent:
        """Remove and return the gap starting at ``start``."""
        length = self.length_at(start)
        if length is None:
            raise KeyError(f"no gap starts at address {start}")
        self._remove_known(start, length)
        return Extent(start, length)

    def _remove_known(self, start: int, length: int) -> None:
        counter = self._c_removes
        if counter is not None:
            counter.value += 1
        self._root = _delete(self._root, start)
        if self._size_order:
            self._size_root = _size_delete(self._size_root, (length, start))
        self._total -= length

    def _drop(self, path: List[_Node], node: _Node) -> None:
        """Unlink ``node``, reached along ``path``, from the address treap."""
        counter = self._c_removes
        if counter is not None:
            counter.value += 1
        self._root = _unlink(self._root, path, node)

    def _resize(self, old: Tuple[int, int], new: Optional[Tuple[int, int]]) -> None:
        """Re-key a gap in the size order (``new`` None: the gap is gone)."""
        self._size_root = _size_delete(self._size_root, old)
        if new is not None:
            self._size_root = _size_insert(
                self._size_root, _SizeNode(new, self._rng.getrandbits(62))
            )

    def take(self, start: int, size: int) -> None:
        """Allocate ``size`` units from the front of the gap at ``start``.

        One descent records the path to the gap.  A partial take shrinks
        the node in place: its new start stays between its neighbours, so
        its address rank is unchanged and only ``max_length`` aggregates
        can change.  An exact fit unlinks the node.
        """
        path, node = _descend(self._root, start)
        if node is None:
            raise KeyError(f"no gap starts at address {start}")
        length = node.length
        if length < size:
            # Raise before mutating: a failed insert must leave the free
            # list intact so the request can be retried.
            raise ValueError(
                f"gap {Extent(start, length)} is smaller than the request ({size})"
            )
        self._total -= size
        if length == size:
            self._drop(path, node)
            if self._size_order:
                self._resize((length, start), None)
            return
        node.start = start + size
        node.length = length - size
        if self._size_order:
            self._resize((length, start), (length - size, start + size))
        if node.max_length == length:
            # The gap may have been the widest below some ancestors: re-pull
            # upwards until a ``max_length`` stops changing.
            path.append(node)
            for node in reversed(path):
                widest = node.max_length
                _pull(node)
                if node.max_length == widest:
                    break

    def release(self, extent: Extent, high_water: int) -> int:
        """Return ``extent`` to the free set and the new high-water mark.

        One descent towards ``extent.start`` meets both address neighbours.
        A free next to one gap grows that node in place; a free between two
        gaps unlinks the deeper one and grows the other over all three; a
        free next to neither adds a node.  A merged gap that would end at
        ``high_water`` is dropped instead and lowers the mark.  The caller
        guarantees ``extent`` is disjoint from every gap.
        """
        counter = self._c_coalesces
        if counter is not None:
            counter.value += 1
        start = extent.start
        length = extent.length
        end = start + length
        path: List[_Node] = []
        pred = succ = None
        pred_depth = succ_depth = 0
        node = self._root
        while node is not None:
            path.append(node)
            if node.start < start:
                pred, pred_depth = node, len(path)
                node = node.right
            else:
                succ, succ_depth = node, len(path)
                node = node.left
        if pred is not None and pred.start + pred.length != start:
            pred = None
        if succ is not None and succ.start != end:
            succ = None

        if pred is None and succ is None:
            if end == high_water:
                return start
            self._root = _attach(self._root, path, self._new_node(start, length))
            return high_water
        if succ is None and end == high_water:
            # The merged gap would be trailing: drop it, lower the mark.
            self._drop(path[: pred_depth - 1], pred)
            if self._size_order:
                self._resize((pred.length, pred.start), None)
            self._total -= pred.length
            return pred.start
        self._total += length
        if succ is None:
            if self._size_order:
                self._resize((pred.length, pred.start), (pred.length + length, pred.start))
            pred.length += length
            _grow(path[:pred_depth], pred.length)
        elif pred is None:
            if self._size_order:
                self._resize((succ.length, succ.start), (succ.length + length, start))
            # Growing backwards keeps the rank: no gap lies in between.
            succ.start = start
            succ.length += length
            _grow(path[:succ_depth], succ.length)
        else:
            # Both neighbours touch: the deeper one sits in the other's
            # subtree, so unlinking it re-pulls a path through the other.
            merged_length = pred.length + length + succ.length
            if self._size_order:
                self._resize((pred.length, pred.start), None)
                self._resize((succ.length, succ.start), (merged_length, pred.start))
            if pred_depth > succ_depth:
                keep, drop, depth = succ, pred, pred_depth
            else:
                keep, drop, depth = pred, succ, succ_depth
            keep.start = pred.start
            keep.length = merged_length
            self._drop(path[: depth - 1], drop)
        return high_water

    # ------------------------------------------------------ policy queries
    def first_fit(self, size: int) -> Optional[int]:
        """Start of the lowest-addressed gap with length >= ``size``."""
        counter = self._c_queries
        if counter is not None:
            counter.value += 1
        node = self._root
        if node is None or node.max_length < size:
            return None
        while True:
            if node.left is not None and node.left.max_length >= size:
                node = node.left
            elif node.length >= size:
                return node.start
            else:
                node = node.right  # guaranteed by the subtree max

    def best_fit(self, size: int) -> Optional[int]:
        """Start of the tightest fitting gap (address-lowest on ties)."""
        self._size_query()
        found = _size_ceiling(self._size_root, (size,))
        if found is None:
            return None
        return found[1]

    def worst_fit(self, size: int) -> Optional[int]:
        """Start of the widest gap (address-lowest on ties), if it fits."""
        self._size_query()
        if self._size_root is None:
            return None
        widest = _size_max(self._size_root)[0]
        if widest < size:
            return None
        found = _size_ceiling(self._size_root, (widest,))
        assert found is not None  # the max key itself is >= (widest,)
        return found[1]

    def _size_query(self) -> None:
        if not self._size_order:
            raise RuntimeError("this GapIndex keeps no size order (size_order=False)")
        counter = self._c_queries
        if counter is not None:
            counter.value += 1

    def next_fit(self, size: int, rover: int) -> Optional[Tuple[int, int]]:
        """``(rank, start)`` of the gap Next Fit's cyclic probe picks.

        Equivalent to scanning :meth:`scan` ``(rover)`` for the first gap
        with ``length >= size`` — including the seed scan's clamp of an
        out-of-range rover to the last gap — but O(log n): one rank-bounded
        descent over ranks ``>= min(rover, len - 1)`` plus, on wrap-around,
        one plain leftmost-fit descent over the low ranks.
        """
        counter = self._c_queries
        if counter is not None:
            counter.value += 1
        total = len(self)
        if total == 0:
            return None
        rank = min(rover, total - 1)
        found = _fit_at_or_after(self._root, rank, size)
        if found is None and rank > 0:
            # Wrap around: the lowest-ranked fit overall necessarily sits
            # below ``rank`` (anything at or above it was just ruled out).
            found = _fit_at_or_after(self._root, 0, size)
        return found

    def free_extents(self) -> List[Extent]:
        """The gaps as a list of extents in address order (an O(n) walk)."""
        return list(self)

    def scan(self, rank: int) -> Iterator[Tuple[int, int, int]]:
        """Yield every ``(rank, start, length)`` once, cyclically from ``rank``.

        This is Next Fit's probe order: the address-ordered gap list read
        from position ``rank`` with wrap-around.
        """
        total = len(self)
        if total == 0:
            return
        rank = min(rank, total - 1)
        for offset, (start, length) in enumerate(self._walk_from(rank)):
            yield rank + offset, start, length
        for position, (start, length) in enumerate(self._walk(self._root)):
            if position >= rank:
                return
            yield position, start, length

    def _walk_from(self, rank: int) -> Iterator[Tuple[int, int]]:
        """In-order walk starting at the node of the given rank."""
        stack: List[_Node] = []
        node = self._root
        while node is not None:
            left_count = node.left.count if node.left is not None else 0
            if rank < left_count:
                stack.append(node)
                node = node.left
            elif rank == left_count:
                stack.append(node)
                break
            else:
                rank -= left_count + 1
                node = node.right
        while stack:
            node = stack.pop()
            yield node.start, node.length
            child = node.right
            while child is not None:
                stack.append(child)
                child = child.left
