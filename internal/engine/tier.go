package engine

import (
	"fmt"

	"oodb/internal/ocb"
)

// Scale tiers bundle a coherent set of sizing choices so callers ask for "a
// medium run" instead of hand-tuning ten fields. The default tier is exactly
// the paper's configuration — byte-identical to DefaultConfig — while medium
// and large move to the OCB synthetic workload over a larger object base and
// user population.
const (
	// TierDefault is the paper's 10-user configuration at 5% scale:
	// seconds of wall clock, exact percentile statistics.
	TierDefault = "default"
	// TierMedium is a 100-user OCB run over a 48 MB object base: tens of
	// seconds of wall clock, used by the CI smoke job.
	TierMedium = "medium"
	// TierLarge is the 100k-user OCB run over a multi-GB object base:
	// minutes of wall clock.
	TierLarge = "large"
)

// TierNames lists the scale tiers in size order.
func TierNames() []string { return []string{TierDefault, TierMedium, TierLarge} }

// TierConfig returns the named scale tier's configuration; "" selects the
// default tier.
func TierConfig(name string) (Config, error) {
	c := DefaultConfig(0.05)
	switch name {
	case "", TierDefault:
	case TierMedium:
		c.Workload = WorkloadOCB
		c.OCB = ocb.Params{}
		c.DBBytes = 48 << 20
		c.Buffers = 3000
		c.Users = 100
		c.Disks = 32
		c.Transactions = 4000
	case TierLarge:
		c.Workload = WorkloadOCB
		// ~1M objects: OCB instances averaging ~2 KB over a 2 GB base.
		c.OCB = ocb.Params{BaseSize: 2048, SizeSpread: 512}
		c.DBBytes = 2 << 30
		c.Buffers = 65536
		c.Users = 100_000
		c.Disks = 256
		c.Transactions = 100_000
	default:
		return Config{}, fmt.Errorf("engine: unknown scale tier %q (have %v)", name, TierNames())
	}
	return c, nil
}
