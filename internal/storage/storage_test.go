package storage

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"oodb/internal/model"
)

func setup(t *testing.T, pageSize int) (*model.Graph, *Manager, model.TypeID) {
	t.Helper()
	g := model.NewGraph()
	ty, err := g.DefineType("t", model.NilType, 0, model.FreqProfile{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, NewManager(g, pageSize), ty
}

func newObj(t *testing.T, g *model.Graph, ty model.TypeID, size int) model.ObjectID {
	t.Helper()
	o, err := g.NewObject("o", 1, ty)
	if err != nil {
		t.Fatal(err)
	}
	o.Size = int32(size)
	return o.ID
}

func TestPlaceAndLookup(t *testing.T) {
	g, m, ty := setup(t, 100)
	pg := m.AllocatePage()
	o := newObj(t, g, ty, 40)
	if err := m.Place(o, pg); err != nil {
		t.Fatal(err)
	}
	if m.PageOf(o) != pg {
		t.Fatal("PageOf wrong")
	}
	if m.FreeSpace(pg) != 60 {
		t.Fatalf("free=%d", m.FreeSpace(pg))
	}
	if got := m.ObjectsOn(pg); len(got) != 1 || got[0] != o {
		t.Fatalf("objects on page: %v", got)
	}
	if m.NumPlaced() != 1 {
		t.Fatalf("placed=%d", m.NumPlaced())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceErrors(t *testing.T) {
	g, m, ty := setup(t, 100)
	pg := m.AllocatePage()
	big := newObj(t, g, ty, 150)
	if err := m.Place(big, pg); !errors.Is(err, ErrObjectTooBig) {
		t.Errorf("too big: %v", err)
	}
	a := newObj(t, g, ty, 60)
	b := newObj(t, g, ty, 60)
	if err := m.Place(a, pg); err != nil {
		t.Fatal(err)
	}
	if err := m.Place(b, pg); !errors.Is(err, ErrPageFull) {
		t.Errorf("full page: %v", err)
	}
	if err := m.Place(a, pg); !errors.Is(err, ErrAlreadyHere) {
		t.Errorf("double place: %v", err)
	}
	if err := m.Place(b, PageID(77)); !errors.Is(err, ErrNoSuchPage) {
		t.Errorf("bad page: %v", err)
	}
	if err := m.Place(model.ObjectID(500), pg); !errors.Is(err, model.ErrNoSuchObject) {
		t.Errorf("bad object: %v", err)
	}
}

func TestRemoveAndReuse(t *testing.T) {
	g, m, ty := setup(t, 100)
	pg := m.AllocatePage()
	o := newObj(t, g, ty, 40)
	if err := m.Place(o, pg); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(o); err != nil {
		t.Fatal(err)
	}
	if m.PageOf(o) != NilPage || m.NumPlaced() != 0 {
		t.Fatal("remove did not clear placement")
	}
	if err := m.Remove(o); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("double remove: %v", err)
	}
	// The emptied page is reused by the next allocation.
	if got := m.AllocatePage(); got != pg {
		t.Fatalf("AllocatePage=%d, want reuse of %d", got, pg)
	}
}

func TestMove(t *testing.T) {
	g, m, ty := setup(t, 100)
	p1, p2 := m.AllocatePage(), m.AllocatePage()
	o := newObj(t, g, ty, 70)
	blocker := newObj(t, g, ty, 50)
	if err := m.Place(o, p1); err != nil {
		t.Fatal(err)
	}
	if err := m.Place(blocker, p2); err != nil {
		t.Fatal(err)
	}
	if err := m.Move(o, p2); !errors.Is(err, ErrPageFull) {
		t.Errorf("move to full page: %v", err)
	}
	if m.PageOf(o) != p1 {
		t.Fatal("failed move must not relocate")
	}
	p3 := m.AllocatePage()
	if err := m.Move(o, p3); err != nil {
		t.Fatal(err)
	}
	if m.PageOf(o) != p3 || m.FreeSpace(p1) != 100 {
		t.Fatal("move did not relocate cleanly")
	}
	if err := m.Move(o, p3); err != nil {
		t.Fatal("move to same page should be a no-op")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFits(t *testing.T) {
	g, m, ty := setup(t, 100)
	pg := m.AllocatePage()
	o := newObj(t, g, ty, 60)
	if err := m.Place(o, pg); err != nil {
		t.Fatal(err)
	}
	if !m.Fits(40, pg) || m.Fits(41, pg) {
		t.Fatal("Fits boundary wrong")
	}
	if m.Fits(1, NilPage) {
		t.Fatal("Fits on nil page")
	}
}

func TestZeroPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewManager(model.NewGraph(), 0)
}

// Property: after an arbitrary sequence of place/move/remove operations the
// manager's invariants hold and free space is never negative.
func TestRandomOpsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := model.NewGraph()
		ty, _ := g.DefineType("t", model.NilType, 0, model.FreqProfile{}, nil)
		m := NewManager(g, 256)
		var pages []PageID
		var objs []model.ObjectID
		for i := 0; i < 4; i++ {
			pages = append(pages, m.AllocatePage())
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0: // create+place
				o, _ := g.NewObject("o", step, ty)
				o.Size = int32(16 + rng.Intn(120))
				pg := pages[rng.Intn(len(pages))]
				if err := m.Place(o.ID, pg); err == nil {
					objs = append(objs, o.ID)
				}
			case 1: // move
				if len(objs) > 0 {
					o := objs[rng.Intn(len(objs))]
					m.Move(o, pages[rng.Intn(len(pages))]) //nolint:errcheck // full pages may reject
				}
			case 2: // remove
				if len(objs) > 0 {
					i := rng.Intn(len(objs))
					if m.PageOf(objs[i]) != NilPage {
						if err := m.Remove(objs[i]); err != nil {
							return false
						}
					}
					objs = append(objs[:i], objs[i+1:]...)
				}
			case 3: // allocate
				if len(pages) < 12 {
					pages = append(pages, m.AllocatePage())
				}
			}
			for _, pg := range pages {
				if m.FreeSpace(pg) < 0 {
					return false
				}
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneIsIndependent: a clone of the manager over a clone of its graph
// shares no page list, map or free list with the original. Removals
// (which shift a page's list in place), moves, placements and page reuse
// on the clone leave the original as it was.
func TestCloneIsIndependent(t *testing.T) {
	g, m, ty := setup(t, 100)
	var ids []model.ObjectID
	for i := 0; i < 12; i++ {
		ids = append(ids, newObj(t, g, ty, 30))
	}
	var pages []PageID
	for i, id := range ids[:9] {
		if i%3 == 0 {
			pages = append(pages, m.AllocatePage())
		}
		if err := m.Place(id, pages[len(pages)-1]); err != nil {
			t.Fatal(err)
		}
	}
	type pageState struct {
		objs []model.ObjectID
		free int
	}
	state := func(m *Manager) (map[PageID]pageState, map[model.ObjectID]PageID, uint64) {
		ps := map[PageID]pageState{}
		for id := PageID(1); int(id) <= m.NumPages(); id++ {
			ps[id] = pageState{append([]model.ObjectID(nil), m.ObjectsOn(id)...), m.FreeSpace(id)}
		}
		where := map[model.ObjectID]PageID{}
		for _, id := range ids {
			where[id] = m.PageOf(id)
		}
		return ps, where, m.StateDigest()
	}
	wantPages, wantWhere, wantDigest := state(m)

	c := m.Clone(g.Clone())
	for _, id := range ids[:3] {
		if err := c.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Move(ids[4], pages[2]); err == nil {
		t.Fatal("moved onto a full page")
	}
	if err := c.Remove(ids[7]); err != nil {
		t.Fatal(err)
	}
	if err := c.Move(ids[4], pages[2]); err != nil {
		t.Fatal(err)
	}
	reused := c.AllocatePage()
	for _, id := range ids[9:] {
		if err := c.Place(id, reused); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clone: %v", err)
	}

	gotPages, gotWhere, gotDigest := state(m)
	if gotDigest != wantDigest {
		t.Errorf("original digest %x, was %x", gotDigest, wantDigest)
	}
	for id, w := range wantPages {
		if g := gotPages[id]; g.free != w.free || !slices.Equal(g.objs, w.objs) {
			t.Errorf("original page %d: %v (free %d), was %v (free %d)", id, g.objs, g.free, w.objs, w.free)
		}
	}
	for id, w := range wantWhere {
		if gotWhere[id] != w {
			t.Errorf("original object %d on page %d, was on %d", id, gotWhere[id], w)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("original: %v", err)
	}
}
