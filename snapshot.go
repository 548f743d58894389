package oodb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"oodb/internal/model"
)

// Snapshot support: Save serializes the full database — the type lattice,
// every object with its relationships and attribute implementations, and
// the physical page layout — and Load reconstructs it. The physical layout
// matters: it is the clustering algorithm's accumulated work, so a reloaded
// database keeps the locality the policies built.
//
// The format is encoding/gob of the snapshot structure below; it is
// versioned so later releases can migrate.

// snapshotVersion identifies the on-disk format.
const snapshotVersion = 1

// Typed load errors. Callers distinguish "not a snapshot / damaged bytes"
// (ErrCorruptSnapshot) from "a snapshot, but a format this build does not
// read" (ErrSnapshotVersion) with errors.Is.
var (
	// ErrCorruptSnapshot reports undecodable or truncated snapshot bytes,
	// or decoded contents that fail validation.
	ErrCorruptSnapshot = errors.New("checkpoint: corrupt or truncated input")
	// ErrSnapshotVersion reports a well-formed snapshot in an unsupported
	// format version.
	ErrSnapshotVersion = errors.New("checkpoint: unsupported format version")
)

type snapType struct {
	Name     string
	Super    TypeID
	BaseSize int
	Freq     FreqProfile
	Attrs    []AttrDef
}

type snapObject struct {
	ID      ObjectID
	Name    string
	Version int
	Type    TypeID
	Size    int
	Freq    FreqProfile

	Components     []ObjectID
	Composites     []ObjectID
	Ancestor       ObjectID
	Descendants    []ObjectID
	Correspondents []ObjectID
	InheritsFrom   ObjectID
	AttrImpls      []model.AttrImpl

	Page PageID
}

type snapshot struct {
	Format   int
	PageSize int
	NumPages int
	Types    []snapType
	Objects  []snapObject
}

// Save writes the database to w. The buffer pool's transient state (what is
// resident, dirty flags) is deliberately not saved: a reloaded database
// starts with a cold cache, like a restarted server.
func (db *DB) Save(w io.Writer) error {
	snap := snapshot{
		Format:   snapshotVersion,
		PageSize: db.opt.PageSize,
		NumPages: db.store.NumPages(),
	}
	for t := TypeID(1); int(t) <= db.graph.NumTypes(); t++ {
		tp := db.graph.Type(t)
		snap.Types = append(snap.Types, snapType{
			Name: tp.Name, Super: tp.Super, BaseSize: tp.BaseSize,
			Freq: tp.Freq, Attrs: tp.Attrs,
		})
	}
	db.graph.ForEachObject(func(o *Object) {
		impls := make([]model.AttrImpl, len(db.graph.InheritedAttrs(o.Type)))
		for i := range impls {
			impls[i] = o.AttrImpl(i)
		}
		snap.Objects = append(snap.Objects, snapObject{
			ID:   o.ID,
			Name: db.graph.Name(o.ID), Version: int(o.Version), Type: o.Type, Size: int(o.Size),
			Freq:           o.Freq(),
			Components:     o.Components(),
			Composites:     o.Composites(),
			Ancestor:       o.Ancestor,
			Descendants:    o.Descendants(),
			Correspondents: o.Correspondents(),
			InheritsFrom:   o.InheritsFrom,
			AttrImpls:      impls,
			Page:           db.store.PageOf(o.ID),
		})
	})
	return gob.NewEncoder(w).Encode(&snap)
}

// Load reconstructs a database from a Save stream. opt supplies the runtime
// configuration (buffer pool, policies); its PageSize must match the
// snapshot's or be zero (in which case the snapshot's is used).
func Load(r io.Reader, opt Options) (*DB, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("oodb: decoding snapshot: %w: %v", ErrCorruptSnapshot, err)
	}
	if snap.Format != snapshotVersion {
		return nil, fmt.Errorf("oodb: %w: snapshot format %d, this build reads %d",
			ErrSnapshotVersion, snap.Format, snapshotVersion)
	}
	if snap.PageSize <= 0 || snap.NumPages < 0 {
		return nil, fmt.Errorf("oodb: %w: page size %d, page count %d",
			ErrCorruptSnapshot, snap.PageSize, snap.NumPages)
	}
	if opt.PageSize == 0 {
		opt.PageSize = snap.PageSize
	}
	if opt.PageSize != snap.PageSize {
		return nil, fmt.Errorf("oodb: page size %d does not match snapshot's %d",
			opt.PageSize, snap.PageSize)
	}
	db, err := Open(opt)
	if err != nil {
		return nil, err
	}
	for _, st := range snap.Types {
		if _, err := db.graph.DefineType(st.Name, st.Super, st.BaseSize, st.Freq, st.Attrs); err != nil {
			return nil, fmt.Errorf("oodb: %w: restoring type %q: %w", ErrCorruptSnapshot, st.Name, err)
		}
	}
	// Pass 1: recreate objects under their original IDs so references line
	// up; gaps left by deleted objects become tombstones. Each object needs
	// one attribute implementation per inherited attribute of its type.
	for _, so := range snap.Objects {
		if so.Size < math.MinInt32 || so.Size > math.MaxInt32 {
			return nil, fmt.Errorf("oodb: %w: object %d size %d out of range", ErrCorruptSnapshot, so.ID, so.Size)
		}
		o, err := db.graph.RestoreObject(so.ID, so.Name, so.Version, so.Type)
		if err != nil {
			return nil, fmt.Errorf("oodb: %w: restoring object %d: %w", ErrCorruptSnapshot, so.ID, err)
		}
		o.Size = int32(so.Size)
		if err := db.graph.RestoreInheritance(so.ID, so.Freq, so.AttrImpls); err != nil {
			return nil, fmt.Errorf("oodb: %w: restoring object %d: %w", ErrCorruptSnapshot, so.ID, err)
		}
	}
	// Pass 2: relationships (restored as stored — the graph mutators would
	// re-derive side effects like correspondence inheritance), then checked
	// as a whole: every link live and matched by its inverse.
	for _, so := range snap.Objects {
		o := db.graph.Object(so.ID)
		o.Ancestor = so.Ancestor
		o.InheritsFrom = so.InheritsFrom
		if err := db.graph.RestoreRelations(so.ID, so.Components, so.Composites, so.Descendants, so.Correspondents); err != nil {
			return nil, fmt.Errorf("oodb: %w: restoring object %d: %w", ErrCorruptSnapshot, so.ID, err)
		}
	}
	if err := db.graph.CheckRelations(); err != nil {
		return nil, fmt.Errorf("oodb: %w: %w", ErrCorruptSnapshot, err)
	}
	// Pass 3: physical layout.
	for p := 0; p < snap.NumPages; p++ {
		db.store.AllocatePage()
	}
	for _, so := range snap.Objects {
		if so.Page == NilPage {
			continue
		}
		if so.Page > PageID(snap.NumPages) {
			return nil, fmt.Errorf("oodb: %w: object %d on page %d beyond snapshot's %d pages",
				ErrCorruptSnapshot, so.ID, so.Page, snap.NumPages)
		}
		if err := db.store.Place(so.ID, so.Page); err != nil {
			return nil, fmt.Errorf("oodb: replacing object %d on page %d: %w", so.ID, so.Page, err)
		}
	}
	if err := db.store.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("oodb: snapshot inconsistent: %w: %v", ErrCorruptSnapshot, err)
	}
	return db, nil
}
