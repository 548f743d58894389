package storage

import "oodb/internal/registry"

// BackendOptions carries the construction context a storage backend may
// need: the data directory and fsync policy for persistent backends.
type BackendOptions struct {
	// Dir is the data directory for file-backed backends ("" for memory).
	Dir string
	// Fsync selects the WAL sync policy for file-backed backends.
	Fsync FsyncPolicy
}

// BackendFactory wraps (or returns) a storage backend over the in-memory
// manager that owns the authoritative placement state.
type BackendFactory func(m *Manager, opt BackendOptions) (Backend, error)

var backends = registry.New[BackendFactory]("storage", "RegisterBackend", "backend")

// RegisterBackend adds a storage-backend factory under name (and any
// aliases), looked up case- and separator-insensitively. Registering a
// name twice panics.
func RegisterBackend(name string, f BackendFactory, aliases ...string) {
	backends.Register(name, f, aliases...)
}

// NewBackendByName constructs the registered backend called name over m.
// The empty name means "memory".
func NewBackendByName(name string, m *Manager, opt BackendOptions) (Backend, error) {
	if name == "" {
		name = "memory"
	}
	f, err := backends.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(m, opt)
}

// HasBackend reports whether name resolves to a registered backend. The
// empty name resolves to "memory".
func HasBackend(name string) bool { return name == "" || backends.Has(name) }

// IsMemoryBackend reports whether name resolves to the in-memory backend
// (the default), as opposed to a persistent one that needs a data
// directory and a sync policy.
func IsMemoryBackend(name string) bool {
	switch registry.Canonical(name) {
	case "", "memory", "mem":
		return true
	}
	return false
}

// BackendNames returns the registered backend names (canonical form,
// sorted).
func BackendNames() []string { return backends.Names() }

func init() {
	// "memory" is the identity wrapping: the manager itself, no durability.
	RegisterBackend("memory", func(m *Manager, _ BackendOptions) (Backend, error) {
		return m, nil
	}, "mem")
	RegisterBackend("file", func(m *Manager, opt BackendOptions) (Backend, error) {
		return NewFileBackend(m, opt)
	}, "disk")
}
