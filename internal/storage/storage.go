// Package storage implements the paper's storage component substrate: a
// paged object store. Pages have a fixed byte capacity (4 KB in the paper),
// hold whole objects, and track free space; the manager maintains the
// object-to-page map that the buffer and cluster managers consult.
//
// Placement *policy* — which page an object should live on — is the cluster
// manager's job (internal/core); this package only provides the mechanics:
// allocate, place, move, remove.
package storage

import (
	"errors"
	"fmt"

	"oodb/internal/model"
)

// PageID identifies a page. The zero value (NilPage) is "no page".
type PageID uint32

// NilPage is the absent page.
const NilPage PageID = 0

// Errors returned by the storage manager.
var (
	ErrPageFull     = errors.New("storage: object does not fit on page")
	ErrNoSuchPage   = errors.New("storage: no such page")
	ErrNotPlaced    = errors.New("storage: object has no page")
	ErrObjectTooBig = errors.New("storage: object larger than a page")
	ErrAlreadyHere  = errors.New("storage: object already placed")
)

// Page is a fixed-capacity container of objects. Only identifiers and sizes
// are tracked; payload bytes are irrelevant to the simulation.
type Page struct {
	ID      PageID
	Objects []model.ObjectID
	Used    int // bytes consumed by resident objects
}

// Backend is the storage-layer seam: the object-to-page map and extent
// (page) allocation behind a narrow interface, so the buffer and cluster
// managers above it never depend on how placement is indexed. The dense-
// slice Manager below is the default implementation; alternatives (sharded
// maps, mmap-backed extents) plug in here.
//
// Implementations must keep PageOf and Fits allocation-free: they sit in
// the innermost loops of candidate ranking and context boosting.
type Backend interface {
	// PageSize returns the page capacity in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// NumPlaced returns the number of placed objects.
	NumPlaced() int
	// AllocatePage returns an empty page, reusing freed pages when possible.
	AllocatePage() PageID
	// Page returns the page with the given ID, or nil.
	Page(id PageID) *Page
	// FreeSpace returns the free bytes on a page, or 0 for an invalid page.
	FreeSpace(id PageID) int
	// PageOf returns the page holding object id, or NilPage.
	PageOf(id model.ObjectID) PageID
	// ObjectsOn returns the objects resident on a page; callers must not
	// mutate the returned slice.
	ObjectsOn(id PageID) []model.ObjectID
	// Place puts an unplaced object on a page.
	Place(obj model.ObjectID, pg PageID) error
	// Remove takes an object off its page.
	Remove(obj model.ObjectID) error
	// Move relocates an object, failing without side effects if it would
	// not fit.
	Move(obj model.ObjectID, pg PageID) error
	// Fits reports whether an object of the given size fits on page pg.
	Fits(size int32, pg PageID) bool
	// CheckInvariants returns the first internal-consistency violation found.
	CheckInvariants() error
}

var _ Backend = (*Manager)(nil)

// Manager is the storage manager: page allocation, the object->page map,
// and free-space accounting.
//
// The object->page map is the hottest lookup in the system (every affinity
// probe, candidate ranking, and buffer boost goes through PageOf), so it is
// a dense slice indexed by object ID — one array load. Place only accepts
// objects the graph holds, and model.Graph assigns IDs as slice indexes, so
// the slice never outgrows the graph.
type Manager struct {
	graph    *model.Graph
	pageSize int
	pages    []*Page  // index 0 unused (NilPage)
	where    []PageID // object ID -> page ID; grows with the graph
	objects  int
	free     []PageID // emptied pages, reused by AllocatePage

	// digest is the incremental XOR of PlacementHash over every placed
	// object, maintained by setWhere (see digest.go).
	digest uint64
}

// NewManager creates a storage manager over graph with the given page size
// in bytes.
func NewManager(graph *model.Graph, pageSize int) *Manager {
	if pageSize <= 0 {
		panic("storage: page size must be positive")
	}
	return &Manager{
		graph:    graph,
		pageSize: pageSize,
		pages:    make([]*Page, 1, 256),
	}
}

// PageSize returns the page capacity in bytes.
func (m *Manager) PageSize() int { return m.pageSize }

// NumPages returns the number of allocated pages.
func (m *Manager) NumPages() int { return len(m.pages) - 1 }

// NumPlaced returns the number of placed objects.
func (m *Manager) NumPlaced() int { return m.objects }

// AllocatePage returns an empty page, reusing a previously emptied one
// when available.
func (m *Manager) AllocatePage() PageID {
	for len(m.free) > 0 {
		id := m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
		if p := m.Page(id); p != nil && len(p.Objects) == 0 {
			return id
		}
	}
	id := PageID(len(m.pages))
	m.pages = append(m.pages, &Page{ID: id})
	return id
}

// Page returns the page with the given ID, or nil.
func (m *Manager) Page(id PageID) *Page {
	if id == NilPage || int(id) >= len(m.pages) {
		return nil
	}
	return m.pages[id]
}

// FreeSpace returns the free bytes on a page, or 0 for an invalid page.
func (m *Manager) FreeSpace(id PageID) int {
	p := m.Page(id)
	if p == nil {
		return 0
	}
	return m.pageSize - p.Used
}

// PageOf returns the page holding object id, or NilPage.
func (m *Manager) PageOf(id model.ObjectID) PageID {
	if int(id) < len(m.where) {
		return m.where[id]
	}
	return NilPage
}

// ObjectsOn returns the objects resident on a page. The returned slice is
// the manager's own; callers must not mutate it.
func (m *Manager) ObjectsOn(id PageID) []model.ObjectID {
	p := m.Page(id)
	if p == nil {
		return nil
	}
	return p.Objects
}

func (m *Manager) setWhere(obj model.ObjectID, pg PageID) {
	// Keep the placement digest incremental: XOR out the old mapping, XOR
	// in the new. Both lookups are O(1) and allocation-free.
	if old := m.PageOf(obj); old != NilPage {
		m.digest ^= PlacementHash(obj, old)
	}
	if pg != NilPage {
		m.digest ^= PlacementHash(obj, pg)
	}
	if n := int(obj) + 1; n > len(m.where) {
		if n <= cap(m.where) {
			// The backing array was zeroed at allocation and lengths only
			// grow, so the exposed tail is already NilPage (== 0).
			m.where = m.where[:n]
		} else {
			grown := make([]PageID, n, 2*n)
			copy(grown, m.where)
			m.where = grown
		}
	}
	m.where[obj] = pg
}

// Place puts object obj on page pg. It fails if the object is already
// placed, the page does not exist, or the object does not fit.
func (m *Manager) Place(obj model.ObjectID, pg PageID) error {
	o := m.graph.Object(obj)
	if o == nil {
		return fmt.Errorf("storage: %w: object %d", model.ErrNoSuchObject, obj)
	}
	if m.PageOf(obj) != NilPage {
		return ErrAlreadyHere
	}
	p := m.Page(pg)
	if p == nil {
		return ErrNoSuchPage
	}
	size := int(o.Size)
	if size > m.pageSize {
		return ErrObjectTooBig
	}
	if p.Used+size > m.pageSize {
		return ErrPageFull
	}
	p.Objects = append(p.Objects, obj)
	p.Used += size
	m.setWhere(obj, pg)
	m.objects++
	return nil
}

// Remove takes object obj off its page.
func (m *Manager) Remove(obj model.ObjectID) error {
	pg := m.PageOf(obj)
	if pg == NilPage {
		return ErrNotPlaced
	}
	p := m.pages[pg]
	o := m.graph.Object(obj)
	for i, x := range p.Objects {
		if x == obj {
			p.Objects = append(p.Objects[:i], p.Objects[i+1:]...)
			break
		}
	}
	if o != nil {
		p.Used -= int(o.Size)
		if p.Used < 0 {
			p.Used = 0
		}
	}
	m.setWhere(obj, NilPage)
	m.objects--
	if len(p.Objects) == 0 {
		p.Used = 0
		m.free = append(m.free, p.ID)
	}
	return nil
}

// Move relocates object obj to page pg, failing without side effects if it
// would not fit.
func (m *Manager) Move(obj model.ObjectID, pg PageID) error {
	o := m.graph.Object(obj)
	if o == nil {
		return fmt.Errorf("storage: %w: object %d", model.ErrNoSuchObject, obj)
	}
	from := m.PageOf(obj)
	if from == NilPage {
		return ErrNotPlaced
	}
	if from == pg {
		return nil
	}
	p := m.Page(pg)
	if p == nil {
		return ErrNoSuchPage
	}
	if p.Used+int(o.Size) > m.pageSize {
		return ErrPageFull
	}
	if err := m.Remove(obj); err != nil {
		return err
	}
	return m.Place(obj, pg)
}

// Fits reports whether an object of the given size fits on page pg.
func (m *Manager) Fits(size int32, pg PageID) bool {
	p := m.Page(pg)
	return p != nil && p.Used+int(size) <= m.pageSize
}

// CheckInvariants validates internal consistency: every placed object is on
// exactly the page the map says, used bytes match object sizes, and no page
// exceeds its capacity. It returns the first violation found.
func (m *Manager) CheckInvariants() error {
	seen := make(map[model.ObjectID]PageID)
	for i := 1; i < len(m.pages); i++ {
		p := m.pages[i]
		used := 0
		for _, obj := range p.Objects {
			if prev, dup := seen[obj]; dup {
				return fmt.Errorf("storage: object %d on pages %d and %d", obj, prev, p.ID)
			}
			seen[obj] = p.ID
			if m.PageOf(obj) != p.ID {
				return fmt.Errorf("storage: map says object %d on page %d, found on %d",
					obj, m.PageOf(obj), p.ID)
			}
			o := m.graph.Object(obj)
			if o == nil {
				return fmt.Errorf("storage: page %d holds unknown object %d", p.ID, obj)
			}
			used += int(o.Size)
		}
		if used != p.Used {
			return fmt.Errorf("storage: page %d used=%d but objects sum to %d", p.ID, p.Used, used)
		}
		if used > m.pageSize {
			return fmt.Errorf("storage: page %d overfull (%d > %d)", p.ID, used, m.pageSize)
		}
	}
	if len(seen) != m.objects {
		return fmt.Errorf("storage: placed-object count %d != map size %d", m.objects, len(seen))
	}
	return nil
}
