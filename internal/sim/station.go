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

	// Each server has one request slot and one completion func, bound in
	// NewStation: beginning service stores the request in a free server's
	// slot and schedules that server's func, so the calendar never holds a
	// closure made per request. idle lists the free servers.
	slots  []stationReq
	finish []func()
	idle   []int

	// Statistics. The wait tally is moments-only: only its mean is ever
	// reported, and retaining per-request samples would make station memory
	// O(arrivals) — millions of entries at the large scale tier.
	util     stats.TimeWeighted // busy servers over time
	qlen     stats.TimeWeighted // waiting requests over time
	wait     stats.Tally        // queueing delay per request
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
	st := &Station{
		sim: s, name: name, servers: servers,
		slots:  make([]stationReq, servers),
		finish: make([]func(), servers),
		idle:   make([]int, servers),
	}
	for i := range st.finish {
		st.finish[i] = func() { st.complete(i) }
		// Popped from the end, so server 0 serves first.
		st.idle[i] = servers - 1 - i
	}
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
	i := st.idle[len(st.idle)-1]
	st.idle = st.idle[:len(st.idle)-1]
	st.slots[i] = req
	st.sim.After(req.service, st.finish[i])
}

// complete ends server i's service: the server is freed (and the slot
// cleared, so it does not pin the callback), the next queued request
// begins, then the finished request's callback runs.
func (st *Station) complete(i int) {
	req := st.slots[i]
	st.slots[i] = stationReq{}
	st.idle = append(st.idle, i)
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

// Utilization returns the time-averaged fraction of busy servers through now.
func (st *Station) Utilization() float64 {
	return st.util.Mean(st.sim.Now()) / float64(st.servers)
}

// MeanWait returns the average queueing delay experienced so far.
func (st *Station) MeanWait() float64 { return st.wait.Mean() }

// MeanQueueLen returns the time-averaged queue length.
func (st *Station) MeanQueueLen() float64 { return st.qlen.Mean(st.sim.Now()) }

// String summarizes the station.
func (st *Station) String() string {
	return fmt.Sprintf("%s: arrivals=%d util=%.3f qlen=%.3f wait=%.4gs",
		st.name, st.arrivals, st.Utilization(), st.MeanQueueLen(), st.MeanWait())
}
