package buffer

import (
	"math/rand"

	"oodb/internal/registry"
)

// PolicyConfig carries the construction context a replacement policy may
// need: the pool's frame count (for sizing protection windows and priority
// levels) and a lazily created random stream (for stochastic policies).
type PolicyConfig struct {
	// Frames is the buffer-pool capacity the policy will serve.
	Frames int
	// RNG returns the random stream a stochastic policy should draw from.
	// It is called at most once, and only by policies that need randomness,
	// so deterministic replays are unaffected by registering — or choosing —
	// policies that never call it. May be nil for such policies.
	RNG func() *rand.Rand
}

// PolicyFactory builds a replacement policy from its construction context.
type PolicyFactory func(PolicyConfig) Policy

var policies = registry.New[PolicyFactory]("buffer", "RegisterPolicy", "replacement policy")

// RegisterPolicy adds a replacement-policy factory under name (and any
// aliases), looked up case- and separator-insensitively. Registering a name
// twice panics.
func RegisterPolicy(name string, f PolicyFactory, aliases ...string) {
	policies.Register(name, f, aliases...)
}

// NewPolicyByName constructs the registered policy called name.
func NewPolicyByName(name string, cfg PolicyConfig) (Policy, error) {
	f, err := policies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(cfg), nil
}

// HasPolicy reports whether name resolves to a registered policy.
func HasPolicy(name string) bool { return policies.Has(name) }

// PolicyNames returns the registered policy names (one per registration,
// canonical form, sorted).
func PolicyNames() []string { return policies.Names() }

func init() {
	RegisterPolicy("lru", func(PolicyConfig) Policy { return NewLRU() })
	RegisterPolicy("random", func(c PolicyConfig) Policy {
		var rng *rand.Rand
		if c.RNG != nil {
			rng = c.RNG()
		}
		return NewRandom(rng, uint64(c.Frames/4))
	}, "rand")
	RegisterPolicy("clock", func(PolicyConfig) Policy { return NewClock() }, "secondchance")
}
