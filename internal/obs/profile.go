// Package obs holds the CLIs' profiling hook. Run accounting is not here:
// each layer's Stats is its instrumentation, and the drivers' results carry
// every layer's.
package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles backs the command-line -cpuprofile/-memprofile flags: it
// starts a CPU profile into cpuPath and returns stop, which ends it and
// writes a heap profile (taken after a collection) to memPath. Either path
// may be empty; stop reports the first failure and must be called once.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close() // errscan:ok already failing; the profile error wins
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			first = cpu.Close()
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); first == nil {
				first = err
			}
		}
		return first
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close() // errscan:ok already failing; the profile error wins
		return err
	}
	return f.Close()
}
