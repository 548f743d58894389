package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// stopProfiles ends the -cpuprofile/-memprofile output. It runs once: main
// defers flushProfiles, and fatal calls it before os.Exit skips the defer.
var stopProfiles = func() error { return nil }

func flushProfiles() {
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "oodbsim:", err)
	}
}

// startProfiles backs the -cpuprofile/-memprofile flags: it starts a CPU
// profile into cpuPath and returns stop, which ends it and writes a heap
// profile (taken after a collection) to memPath. Either path may be empty;
// stop reports the first failure and must be called once.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
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
