package oodb

import "fmt"

// Navigation API: the paper observes that "object-oriented applications
// perform more navigation than ad-hoc query during run-time" (Section 3.5)
// and models design work as checkout/checkin of composite objects
// (Section 4.1). These helpers provide those operations over the buffered,
// clustered store.

// Visit is called for every object a traversal reaches, with its depth from
// the start (0 for the start object). Returning false stops the traversal.
type Visit func(o *Object, depth int) bool

// Traverse walks the structure graph from start, following the given
// relationship kinds, to at most maxDepth hops (0 = just the start object).
// Every visited object is read through the buffer manager, so traversals
// exercise — and benefit from — clustering and prefetching. Objects are
// visited breadth-first, once each, in deterministic order.
func (db *DB) Traverse(start ObjectID, kinds []RelKind, maxDepth int, visit Visit) error {
	if visit == nil {
		return fmt.Errorf("oodb: Traverse requires a visit function")
	}
	type item struct {
		id    ObjectID
		depth int
	}
	seen := map[ObjectID]bool{start: true}
	queue := []item{{start, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		o, err := db.Get(it.id)
		if err != nil {
			return err
		}
		if !visit(o, it.depth) {
			return nil
		}
		if it.depth == maxDepth {
			continue
		}
		for _, k := range kinds {
			for _, n := range o.Neighbors(k) {
				if !seen[n] {
					seen[n] = true
					queue = append(queue, item{n, it.depth + 1})
				}
			}
		}
	}
	return nil
}

// Checkout materializes the full configuration hierarchy under root — the
// operation whose cost motivates the paper — returning every object in the
// hierarchy (root first, breadth-first).
func (db *DB) Checkout(root ObjectID) ([]*Object, error) {
	var out []*Object
	err := db.Traverse(root, []RelKind{ConfigDown}, 1<<30, func(o *Object, _ int) bool {
		out = append(out, o)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Checkin records a design iteration the way the paper models it
// (Section 4.1: "a checkin operation invokes some object insertions and
// updating"): it derives a new version of root that shares root's
// components, then attaches the given newly created components to the new
// version. The derived version is returned; it is always numbered
// root's version plus one, so two checkins of one version make two branches
// that share a triple and differ only in ID.
func (db *DB) Checkin(root ObjectID, newComponents ...ObjectID) (*Object, error) {
	old, err := db.Get(root)
	if err != nil {
		return nil, err
	}
	shared := append([]ObjectID(nil), old.Components()...)
	next, err := db.Derive(root)
	if err != nil {
		return nil, err
	}
	for _, c := range shared {
		if err := db.Attach(next.ID, c); err != nil {
			return nil, fmt.Errorf("oodb: checkin sharing component %d: %w", c, err)
		}
	}
	for _, c := range newComponents {
		if err := db.Attach(next.ID, c); err != nil {
			return nil, fmt.Errorf("oodb: checkin attaching %d: %w", c, err)
		}
	}
	return next, nil
}
