package buffer

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"oodb/internal/storage"
)

func benchAccessPattern(b *testing.B, p *Pool) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 80/20 hot/cold mix over 4x the pool size.
		var pg storage.PageID
		if rng.Intn(5) != 0 {
			pg = storage.PageID(1 + rng.Intn(p.Capacity()))
		} else {
			pg = storage.PageID(1 + rng.Intn(4*p.Capacity()))
		}
		if _, err := p.Access(pg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRUAccess(b *testing.B) {
	benchAccessPattern(b, NewPool(1024, NewLRU()))
}

func BenchmarkRandomAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	benchAccessPattern(b, NewPool(1024, NewRandom(rng, 256)))
}

func BenchmarkPoolHit(b *testing.B) {
	p := NewPool(16, NewLRU())
	p.Access(1) //nolint:errcheck
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Access(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentPoolHit: parallel hits on a resident hot set, each
// goroutine on pages of its own, through the pool's locked Access and
// through a view per goroutine.
func BenchmarkConcurrentPoolHit(b *testing.B) {
	const hot, shards = 32, 8 // pages per goroutine, pool shards
	for _, mode := range []string{"eager", "view"} {
		b.Run(mode, func(b *testing.B) {
			ps := make([]Policy, shards)
			for i := range ps {
				ps[i] = NewLRU()
			}
			p, err := NewConcurrentPool(64*hot, ps)
			if err != nil {
				b.Fatal(err)
			}
			var goroutine atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				base := storage.PageID(1 + goroutine.Add(1)*hot)
				access := p.Access
				if mode == "view" {
					v := p.NewView()
					defer v.Drain()
					access = v.Access
				}
				for i := 0; pb.Next(); i++ {
					if _, err := access(base + storage.PageID(i%hot)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
