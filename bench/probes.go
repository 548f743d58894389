package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"oodb/internal/buffer"
	"oodb/internal/lock"
	"oodb/internal/model"
	"oodb/internal/ocb"
	"oodb/internal/sim"
	"oodb/internal/storage"
	"oodb/internal/txlog"
	wl "oodb/internal/workload"
)

// Isolated single-layer probes: each calls one layer's exported functions
// directly at a fixed iteration count and reports the median of probeReps
// repetitions. They are what tells "this layer got slower" from "the engine
// around it changed" when an end-to-end number moves.

const probeReps = 5

// medianOf runs one measurement probeReps times and returns the median.
func medianOf(measure func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		x, err := measure()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return medianOfValues(xs), nil
}

// timeIt is medianOf over the ns per iteration of fn, which does iters of them.
func timeIt(iters int, fn func() error) (float64, error) {
	return medianOf(func() (float64, error) {
		t0 := time.Now()
		err := fn()
		return float64(time.Since(t0).Nanoseconds()) / float64(iters), err
	})
}

// parallel runs body on n goroutines and returns the first error.
func parallel(n int, body func(g int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = body(g)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runProbes fills vals with every probe metric. scale divides the iteration
// counts (1 for real runs, smokeDivisor for tests).
func runProbes(vals map[string]float64, o options) error {
	div := 1
	if o.smoke {
		div = smokeDivisor
	}
	probes := []struct {
		name string
		run  func(iters int) (float64, error)
		n    int
	}{
		{"lock.acquire_release_ns", func(n int) (float64, error) { return probeLock(n, 1) }, 400_000},
		{"lock.acquire_release_par_ns", func(n int) (float64, error) { return probeLock(n, o.sessions) }, 400_000},
		{"buffer.hit_ns", func(n int) (float64, error) { return probeConcurrentPool(n, 1, true) }, 1_000_000},
		{"buffer.miss_ns", func(n int) (float64, error) { return probeConcurrentPool(n, 1, false) }, 400_000},
		{"buffer.hit_par_ns", func(n int) (float64, error) { return probeConcurrentPool(n, o.sessions, true) }, 1_000_000},
		{"buffer.serial_hit_ns", func(n int) (float64, error) { return probeSerialPool(n, true) }, 1_000_000},
		{"buffer.serial_miss_ns", func(n int) (float64, error) { return probeSerialPool(n, false) }, 400_000},
		{"sim.heap_event_ns", func(n int) (float64, error) { return probeCalendar(n, sim.CalendarHeap) }, 400_000},
		{"sim.wheel_event_ns", func(n int) (float64, error) { return probeCalendar(n, sim.CalendarWheel) }, 400_000},
		{"txlog.append_ns", probeTxlog, 600_000},
		{"ocb.next_ns", func(n int) (float64, error) { return probeOCBNext(n, o.seed) }, 200_000},
		{"workload.next_ns", func(n int) (float64, error) { return probeOCTNext(n, o.seed) }, 200_000},
		{"storage.fsync_probe_us", func(n int) (float64, error) { return probeFsync(n, o.dir) }, 400},
		{"storage.commit_always_us", func(n int) (float64, error) { return probeCommit(n, o.dir, o.seed) }, 400},
	}
	for _, p := range probes {
		n := p.n / div
		if n < 10 {
			n = 10
		}
		v, err := p.run(n)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		vals[p.name] = v
	}
	return nil
}

// probeLock: one shared-mode acquire plus ReleaseAll per iteration, on
// goroutines that never touch the same object (no conflicts: the cost of
// the table itself).
func probeLock(iters, goroutines int) (float64, error) {
	const objects = 4096
	m := lock.NewManagerSharded(goroutines)
	per := iters / goroutines
	return timeIt(per, func() error {
		return parallel(goroutines, func(g int) error {
			for i := 0; i < per; i++ {
				txn := g*per + i
				obj := model.ObjectID(1 + g*objects + i%objects)
				if err := m.AcquireWait(txn, obj, lock.Shared); err != nil {
					return err
				}
				m.ReleaseAll(txn)
			}
			return nil
		})
	})
}

func lruPolicies(shards, frames int) ([]buffer.Policy, error) {
	ps := make([]buffer.Policy, shards)
	for i := range ps {
		p, err := buffer.NewPolicyByName("lru", buffer.PolicyConfig{Frames: buffer.ShardCapacity(frames, shards, i)})
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// Pool probes: a hit probe cycles through pages that all fit; a miss probe
// cycles through 64x the capacity in order, which LRU never hits.
const (
	probeFrames   = 64
	probeHitPages = 32
	probeMissSpan = 64 * probeFrames
)

func probeConcurrentPool(iters, goroutines int, hit bool) (float64, error) {
	shards := 1
	for shards < goroutines {
		shards <<= 1
	}
	frames := probeFrames * goroutines
	ps, err := lruPolicies(shards, frames)
	if err != nil {
		return 0, err
	}
	pool, err := buffer.NewConcurrentPool(frames, ps)
	if err != nil {
		return 0, err
	}
	span := probeMissSpan
	if hit {
		span = probeHitPages
	}
	per := iters / goroutines
	return timeIt(per, func() error {
		return parallel(goroutines, func(g int) error {
			for i := 0; i < per; i++ {
				if _, err := pool.Access(storage.PageID(1 + g*span + i%span)); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func probeSerialPool(iters int, hit bool) (float64, error) {
	ps, err := lruPolicies(1, probeFrames)
	if err != nil {
		return 0, err
	}
	pool := buffer.NewPool(probeFrames, ps[0])
	span := probeMissSpan
	if hit {
		span = probeHitPages
	}
	return timeIt(iters, func() error {
		for i := 0; i < iters; i++ {
			if _, err := pool.Access(storage.PageID(1 + i%span)); err != nil {
				return err
			}
		}
		return nil
	})
}

// probeCalendar: schedule + dispatch of one event with 10k events pending,
// the population a 10k-user run keeps on the calendar.
func probeCalendar(iters int, kind string) (float64, error) {
	const pending = 10_000
	return timeIt(iters+pending, func() error {
		s, err := sim.NewWithCalendar(1, kind)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(1))
		left := iters
		var fire func()
		fire = func() {
			if left > 0 {
				left--
				s.After(rng.Float64()*8, fire)
			}
		}
		for i := 0; i < pending; i++ {
			s.After(rng.Float64()*8, fire)
		}
		s.RunAll()
		return nil
	})
}

// probeTxlog: one logged update, including its share of the Begin/End of a
// three-update transaction.
func probeTxlog(iters int) (float64, error) {
	m := txlog.NewManager(64 << 10)
	txn := 0
	return timeIt(iters, func() error {
		for i := 0; i < iters/3; i++ {
			txn++
			if err := m.Begin(txn); err != nil {
				return err
			}
			for k := 0; k < 3; k++ {
				if _, err := m.Append(txn, 200, storage.PageID(1+(i+k)%512)); err != nil {
					return err
				}
			}
			if err := m.End(txn); err != nil {
				return err
			}
		}
		return nil
	})
}

// probeBytes is the object volume the generator probes draw over (1 MB:
// ~4.7k OCB objects, generated in milliseconds).
const probeBytes = 1 << 20

var sink int // keeps generator draws from being optimised away

func probeOCBNext(iters int, seed int64) (float64, error) {
	p := ocb.DefaultParams()
	p.RefDist = ocb.DistZipf
	base, err := ocb.Generate(p, probeBytes, 4096, seed)
	if err != nil {
		return 0, err
	}
	gen := ocb.NewGenerator(base, p, rand.New(rand.NewSource(seed)))
	return timeIt(iters, func() error {
		for i := 0; i < iters; i++ {
			sink += int(gen.Next().Target)
		}
		return nil
	})
}

func probeOCTNext(iters int, seed int64) (float64, error) {
	spec := wl.DefaultDBSpec(wl.MedDensity, probeBytes)
	spec.Seed = seed
	db, err := wl.Generate(spec, 4096)
	if err != nil {
		return 0, err
	}
	gen := wl.NewGenerator(db, wl.DefaultParams(wl.MedDensity, 10), rand.New(rand.NewSource(seed)))
	return timeIt(iters, func() error {
		for i := 0; i < iters; i++ {
			sink += int(gen.Next().Target)
		}
		return nil
	})
}

// probeFsync: a raw 64-byte append + Sync in the workloads' data directory,
// in µs. This sandbox's fsync drifts by tens of percent over minutes; when
// ocb-durable moves, this number says whether the device or the code did.
func probeFsync(iters int, dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	buf := make([]byte, 64)
	ns, err := timeIt(iters, func() error {
		for i := 0; i < iters; i++ {
			if _, err := f.Write(buf); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return ns / 1e3, err
}

// probeCommit: the file backend's own begin/place/commit loop at
// fsync=always, in µs per committed transaction.
func probeCommit(iters int, dir string, seed int64) (float64, error) {
	return medianOf(func() (float64, error) { return probeCommitOnce(iters, dir, seed) })
}

func probeCommitOnce(iters int, dir string, seed int64) (us float64, err error) {
	base, err := ocb.Generate(ocb.DefaultParams(), probeBytes, 4096, seed)
	if err != nil {
		return 0, err
	}
	if len(base.Order) < iters {
		return 0, fmt.Errorf("base has %d objects, probe needs %d", len(base.Order), iters)
	}
	d, err := os.MkdirTemp(dir, "commit-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(d)
	fb, err := storage.NewFileBackend(base.Store, storage.BackendOptions{Dir: filepath.Join(d, "db"), Fsync: storage.FsyncAlways})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := fb.Close(); err == nil {
			err = cerr
		}
	}()
	if err := fb.CommitBootstrap(); err != nil {
		return 0, err
	}
	pg := fb.AllocatePage()
	t0 := time.Now()
	for i, id := range base.Order[:iters] {
		if !fb.Fits(base.Graph.Object(id).Size, pg) {
			pg = fb.AllocatePage()
		}
		if err := fb.LogBegin(i); err != nil {
			return 0, err
		}
		if err := fb.Place(id, pg); err != nil {
			return 0, err
		}
		if err := fb.LogCommit(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(iters), nil
}
