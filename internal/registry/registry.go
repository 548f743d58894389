// Package registry is the name → factory table behind the replacement-
// policy, storage-backend and clustering-strategy registries. Registered
// names are part of the CLI surface, so all three share one set of rules:
// lookups fold case and separators, and a name can be claimed only once.
package registry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Registry maps folded names to factories of type F. It is safe for
// concurrent use.
type Registry[F any] struct {
	// pkg, fn and kind word the panic and error texts: the owning package,
	// its Register function, and what is being registered.
	pkg, fn, kind string

	mu    sync.RWMutex
	m     map[string]F // every folded name and alias
	names []string     // each registration's folded primary name, sorted
}

// New returns an empty registry whose messages read "pkg: fn with nil
// factory", "pkg: kind %q registered twice" and "pkg: unknown kind %q".
func New[F any](pkg, fn, kind string) *Registry[F] {
	return &Registry[F]{pkg: pkg, fn: fn, kind: kind, m: map[string]F{}}
}

// Canonical folds case and separators so "Context-sensitive",
// "context_sensitive", and "CONTEXT SENSITIVE" resolve identically.
func Canonical(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	name = strings.ReplaceAll(name, "-", "")
	name = strings.ReplaceAll(name, "_", "")
	name = strings.ReplaceAll(name, " ", "")
	return name
}

// Register adds f under name and any aliases. A nil factory, an empty name
// and a name registered twice all panic: silent replacement would make flag
// behavior depend on package initialization order.
func (r *Registry[F]) Register(name string, f F, aliases ...string) {
	if v := reflect.ValueOf(f); !v.IsValid() || v.Kind() == reflect.Func && v.IsNil() {
		panic(fmt.Sprintf("%s: %s with nil factory", r.pkg, r.fn))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range append([]string{name}, aliases...) {
		key := Canonical(n)
		if key == "" {
			panic(fmt.Sprintf("%s: %s with empty name", r.pkg, r.fn))
		}
		if _, dup := r.m[key]; dup {
			panic(fmt.Sprintf("%s: %s %q registered twice", r.pkg, r.kind, n))
		}
		r.m[key] = f
	}
	r.names = append(r.names, Canonical(name))
	sort.Strings(r.names)
}

// Lookup returns the factory registered under name, or an error listing the
// names that are.
func (r *Registry[F]) Lookup(name string) (F, error) {
	r.mu.RLock()
	f, ok := r.m[Canonical(name)]
	r.mu.RUnlock()
	if !ok {
		return f, fmt.Errorf("%s: unknown %s %q (have %s)",
			r.pkg, r.kind, name, strings.Join(r.Names(), ", "))
	}
	return f, nil
}

// Has reports whether name resolves to a registered factory.
func (r *Registry[F]) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.m[Canonical(name)]
	return ok
}

// Names returns each registration once, under its primary name (canonical
// form, sorted). Aliases resolve through Lookup and Has but are not listed,
// so a sweep over Names runs each implementation once.
func (r *Registry[F]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}
