package sim

import (
	"fmt"

	"oodb/internal/stats"
)

// Station is a first-come-first-served service center with one or more
// identical servers — the building block used to model disks and the CPU.
// Requests queue in arrival order; when a server frees up, the next request
// receives its service time and the completion callback fires.
type Station struct {
	sim     *Sim
	name    string
	servers int
	busy    int

	queue []stationReq

	// Statistics. Wait and service tallies are moments-only: only their
	// means are ever reported, and retaining per-request samples would make
	// station memory O(arrivals) — millions of entries at the large scale
	// tier.
	util     stats.TimeWeighted // busy servers over time
	qlen     stats.TimeWeighted // waiting requests over time
	wait     stats.Tally        // queueing delay per request
	service  stats.Tally        // service time per request
	arrivals int
}

type stationReq struct {
	arrived Time
	service Time
	done    func()
}

// NewStation creates a station with the given number of parallel servers.
func NewStation(s *Sim, name string, servers int) *Station {
	if servers < 1 {
		servers = 1
	}
	st := &Station{sim: s, name: name, servers: servers}
	st.util.Set(0, s.Now())
	st.qlen.Set(0, s.Now())
	return st
}

// Name returns the station name.
func (st *Station) Name() string { return st.name }

// Request enqueues a job requiring the given service time; done runs when
// service completes. Request never blocks the caller.
func (st *Station) Request(service Time, done func()) {
	if service < 0 {
		service = 0
	}
	st.arrivals++
	req := stationReq{arrived: st.sim.Now(), service: service, done: done}
	if st.busy < st.servers {
		st.begin(req)
		return
	}
	st.queue = append(st.queue, req)
	st.qlen.Set(float64(len(st.queue)), st.sim.Now())
}

func (st *Station) begin(req stationReq) {
	st.busy++
	st.util.Set(float64(st.busy), st.sim.Now())
	st.wait.Add(st.sim.Now() - req.arrived)
	st.service.Add(req.service)
	st.sim.After(req.service, func() {
		st.complete(req)
	})
}

func (st *Station) complete(req stationReq) {
	st.busy--
	st.util.Set(float64(st.busy), st.sim.Now())
	if len(st.queue) > 0 {
		next := st.queue[0]
		// Shift rather than re-slice forever to keep memory bounded.
		copy(st.queue, st.queue[1:])
		st.queue = st.queue[:len(st.queue)-1]
		st.qlen.Set(float64(len(st.queue)), st.sim.Now())
		st.begin(next)
	}
	if req.done != nil {
		req.done()
	}
}

// Arrivals returns the number of requests received.
func (st *Station) Arrivals() int { return st.arrivals }

// QueueLen returns the current number of waiting (not in-service) requests.
func (st *Station) QueueLen() int { return len(st.queue) }

// Busy returns the number of busy servers.
func (st *Station) Busy() int { return st.busy }

// Utilization returns the time-averaged fraction of busy servers through now.
func (st *Station) Utilization() float64 {
	return st.util.Mean(st.sim.Now()) / float64(st.servers)
}

// MeanWait returns the average queueing delay experienced so far.
func (st *Station) MeanWait() float64 { return st.wait.Mean() }

// MeanQueueLen returns the time-averaged queue length.
func (st *Station) MeanQueueLen() float64 { return st.qlen.Mean(st.sim.Now()) }

// MeanService returns the average service time of started requests.
func (st *Station) MeanService() float64 { return st.service.Mean() }

// String summarizes the station.
func (st *Station) String() string {
	return fmt.Sprintf("%s: arrivals=%d util=%.3f qlen=%.3f wait=%.4gs",
		st.name, st.arrivals, st.Utilization(), st.MeanQueueLen(), st.MeanWait())
}
