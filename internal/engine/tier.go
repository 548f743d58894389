package engine

import (
	"fmt"
	"sort"

	"oodb/internal/ocb"
	"oodb/internal/sim"
)

// Scale tiers bundle a coherent set of sizing and mechanics choices so
// callers ask for "a medium run" instead of hand-tuning ten fields. The
// default tier is exactly the paper's configuration — byte-identical to
// DefaultConfig — while medium and large move to the OCB synthetic
// workload and turn on the scale machinery (timing-wheel calendar,
// reservoir statistics) that keeps big runs fast and memory bounded.
const (
	// TierDefault is the paper's 10-user configuration at 5% scale:
	// seconds of wall clock, exact percentile statistics, checkpointable.
	TierDefault = "default"
	// TierMedium is a 100-user OCB run over a 48 MB object base: tens of
	// seconds of wall clock, still checkpointable (quiescent points remain
	// frequent at 100 users), used by the CI smoke job.
	TierMedium = "medium"
	// TierLarge is the 100k-user OCB run over a multi-GB object base:
	// minutes of wall clock, timing-wheel calendar, reservoir percentiles.
	// Not checkpointable — with 100k users the probability of a fully
	// quiescent instant (every user thinking) is effectively zero, so rely
	// on determinism and trace replay instead.
	TierLarge = "large"
)

// TierNames lists the scale tiers in size order.
func TierNames() []string { return []string{TierDefault, TierMedium, TierLarge} }

// tierConfigs builds each tier's configuration.
var tierConfigs = map[string]func() Config{
	TierDefault: func() Config {
		return DefaultConfig(0.05)
	},
	TierMedium: func() Config {
		c := DefaultConfig(0.05)
		c.Workload = WorkloadOCB
		c.OCB = ocb.Params{}
		c.DBBytes = 48 << 20
		c.Buffers = 3000
		c.Users = 100
		c.Disks = 32
		c.Transactions = 4000
		c.Calendar = sim.CalendarWheel
		c.StatsReservoir = 4096
		return c
	},
	TierLarge: func() Config {
		c := DefaultConfig(0.05)
		c.Workload = WorkloadOCB
		// ~1M objects: OCB instances averaging ~2 KB over a 2 GB base.
		c.OCB = ocb.Params{BaseSize: 2048, SizeSpread: 512}
		c.DBBytes = 2 << 30
		c.Buffers = 65536
		c.Users = 100_000
		c.Disks = 256
		c.Transactions = 100_000
		c.Calendar = sim.CalendarWheel
		c.StatsReservoir = 4096
		return c
	},
}

// TierConfig returns the named scale tier's configuration; "" selects the
// default tier.
func TierConfig(name string) (Config, error) {
	if name == "" {
		name = TierDefault
	}
	mk, ok := tierConfigs[name]
	if !ok {
		names := TierNames()
		sort.Strings(names)
		return Config{}, fmt.Errorf("engine: unknown scale tier %q (have %v)", name, names)
	}
	return mk(), nil
}

// TierCheckpointable reports whether the named tier reaches quiescent
// points often enough for checkpoint/restore to be practical.
func TierCheckpointable(name string) bool { return name != TierLarge }
