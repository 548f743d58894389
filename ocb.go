package oodb

import (
	"oodb/internal/engine"
	"oodb/internal/ocb"
)

// OCB workload API: the synthetic object-base benchmark generator that runs
// behind the same workload seam as the paper's OCT model.

type (
	// OCBParams parameterizes the OCB-style synthetic object base (hierarchy
	// shape, reference distribution) and its four-operation workload mix.
	// Build one with DefaultOCBParams and override fields; zero fields are
	// filled with defaults at validation time.
	OCBParams = ocb.Params
	// OCBRefDist selects the reference-target distribution (uniform, zipf,
	// clustered).
	OCBRefDist = ocb.RefDist
)

// Workload selector values for SimConfig.Workload.
const (
	WorkloadOCT = engine.WorkloadOCT
	WorkloadOCB = engine.WorkloadOCB
)

// DefaultOCBParams returns the default OCB generator parameters.
func DefaultOCBParams() OCBParams { return ocb.DefaultParams() }

// ParseOCBRefDist parses a reference-distribution name ("uniform", "zipf",
// "clustered").
func ParseOCBRefDist(s string) (OCBRefDist, error) { return ocb.ParseRefDist(s) }
