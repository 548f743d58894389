package buffer

import (
	"slices"

	"oodb/internal/storage"
)

// PageList is a doubly-linked recency list of pages (front = MRU, back =
// LRU) backed by an index-linked node pool. Removed nodes recycle through
// an internal free list, so once a list reaches its steady-state population
// the PushFront / MoveToFront / Remove cycle of a replacement policy runs
// without allocating — unlike container/list, which heap-allocates an
// Element per insertion.
//
// Handles returned by PushFront are stable until the node is removed; the
// zero handle means "none" (index 0 of the node pool is reserved), so the
// zero PageList is an empty list ready for use.
type PageList struct {
	nodes []pageNode // index 0 reserved as the nil handle
	free  int32      // head of the free chain, linked through next
	head  int32      // MRU end
	tail  int32      // LRU end
	count int
}

type pageNode struct {
	page       storage.PageID
	prev, next int32
}

// Clone returns an independent copy of l: the same pages in the same order,
// under the same handles.
func (l *PageList) Clone() PageList {
	c := *l
	c.nodes = slices.Clone(l.nodes)
	return c
}

// Len returns the number of listed pages.
func (l *PageList) Len() int { return l.count }

// Back returns the handle of the LRU page, or 0 when empty.
func (l *PageList) Back() int32 { return l.tail }

// Next returns the handle one step toward the LRU end, or 0 at the back.
func (l *PageList) Next(h int32) int32 { return l.nodes[h].next }

// Page returns the page a handle refers to.
func (l *PageList) Page(h int32) storage.PageID { return l.nodes[h].page }

// PushFront inserts pg at the MRU end and returns its handle.
func (l *PageList) PushFront(pg storage.PageID) int32 {
	h := l.free
	if h != 0 {
		l.free = l.nodes[h].next
	} else {
		if len(l.nodes) == 0 {
			l.nodes = append(l.nodes, pageNode{}) // reserve the nil handle
		}
		l.nodes = append(l.nodes, pageNode{})
		h = int32(len(l.nodes) - 1)
	}
	n := &l.nodes[h]
	n.page = pg
	n.prev = 0
	n.next = l.head
	if l.head != 0 {
		l.nodes[l.head].prev = h
	} else {
		l.tail = h
	}
	l.head = h
	l.count++
	return h
}

// MoveToFront makes h the MRU node.
func (l *PageList) MoveToFront(h int32) {
	if l.head == h {
		return
	}
	n := &l.nodes[h]
	l.nodes[n.prev].next = n.next // n.prev != 0: h is not the head
	if n.next != 0 {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev = 0
	n.next = l.head
	l.nodes[l.head].prev = h
	l.head = h
}

// Remove unlinks h and recycles its node. The handle is dead afterwards.
func (l *PageList) Remove(h int32) {
	n := &l.nodes[h]
	if n.prev != 0 {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != 0 {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.page = storage.NilPage
	n.prev = 0
	n.next = l.free
	l.free = h
	l.count--
}
