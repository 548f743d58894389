package experiment

import (
	"sync"

	"oodb/internal/engine"
)

// The harness's scheduler. A run is a pure function of its configuration,
// and most of a run's cost is building its world; the R/W-ratio, prefetch
// and think-time sweeps share one world among many runs. So the scheduler
// groups the runs it owes by world key (engine.Config.WorldKey), builds
// each group's world once as an engine.Template, runs every member but the
// last on a clone of it and the last on the template itself. A group of
// one builds its world and runs on it, exactly as engine.New does.
//
// Options.Workers workers execute the runs, at most that many templates
// are live at once, and the worlds held — templates plus the worlds of
// runs in progress — are at most one more than the workers: a running
// world per worker plus one template. A worker prefers the
// step that frees a template (the last member's take), then a clone of a
// live template, then a new build, so templates die as soon as they can.
// Groups are harness-wide: a member that another batch submits while its
// world's template is live joins that template.

// job is one replication of one configuration and the run it completes.
type job struct {
	cfg engine.Config
	run *inflightRun
	rep int
}

// group is the jobs that build one world, and that world's template once
// it is built.
type group struct {
	key      engine.WorldKey
	jobs     []job // not yet started
	tmpl     *engine.Template
	building bool
	// cloneable records whether tmpl runs its members on clones.
	cloneable bool
	// copying counts clones handed out but not yet copied: the last
	// member waits for them before it takes the template.
	copying sync.WaitGroup
}

// scheduler is the harness's run queue. Its state is guarded by the
// harness's mu.
type scheduler struct {
	wake    *sync.Cond
	groups  []*group // open groups in order of opening
	byKey   map[engine.WorldKey]*group
	live    int // templates built or being built and not yet taken
	worlds  int // templates plus the worlds of runs in progress
	workers int // running worker goroutines
}

func (s *scheduler) init(mu *sync.Mutex) {
	s.wake = sync.NewCond(mu)
	s.byKey = make(map[engine.WorldKey]*group)
}

// add queues jobs, joining each to the open group of its world, and starts
// workers up to Options.Workers. RunConfigs submits only valid
// configurations, so none becomes the configuration a group's template is
// built from.
func (s *scheduler) add(h *Harness, jobs []job) {
	h.mu.Lock()
	for _, j := range jobs {
		k := j.cfg.WorldKey()
		g := s.byKey[k]
		if g == nil {
			g = &group{key: k}
			s.byKey[k] = g
			s.groups = append(s.groups, g)
		}
		g.jobs = append(g.jobs, j)
	}
	for ; s.workers < h.opt.Workers && len(s.groups) > 0; s.workers++ {
		go s.work(h)
	}
	s.wake.Broadcast()
	h.mu.Unlock()
}

// step is one unit of a worker's work.
type step int

const (
	idle  step = iota
	build      // build g's template
	clone      // run j on a clone of g's template
	take       // run j, g's last member, on g's template
)

// next picks a worker's next step: the last member of a group whose
// template is ready; else, while fewer than Workers+1 worlds are held, a
// clone of a ready template or a new template if fewer than Workers are
// live; else idle. A take holds no world the template did not.
func (s *scheduler) next(h *Harness) (step, *group, job) {
	for _, g := range s.groups {
		if g.tmpl != nil && len(g.jobs) == 1 {
			j := g.jobs[0]
			g.jobs = nil
			s.close(g)
			return take, g, j
		}
	}
	if s.worlds > h.opt.Workers {
		return idle, nil, job{}
	}
	for _, g := range s.groups {
		if g.tmpl != nil {
			j := g.jobs[0]
			g.jobs = g.jobs[1:]
			g.copying.Add(1)
			s.worlds++
			return clone, g, j
		}
	}
	for _, g := range s.groups {
		if !g.building && s.live < h.opt.Workers {
			g.building = true
			s.live++
			s.worlds++
			return build, g, g.jobs[0]
		}
	}
	return idle, nil, job{}
}

// close removes g from the open groups: a later job for its world opens a
// new group. A group with a template gives up its live slot.
func (s *scheduler) close(g *group) {
	delete(s.byKey, g.key)
	for i, o := range s.groups {
		if o == g {
			s.groups = append(s.groups[:i], s.groups[i+1:]...)
			break
		}
	}
	if g.tmpl != nil {
		s.live--
		s.wake.Broadcast()
	}
}

// work runs steps until no group is open.
func (s *scheduler) work(h *Harness) {
	h.mu.Lock()
	for len(s.groups) > 0 {
		st, g, j := s.next(h)
		if st == idle {
			s.wake.Wait()
			continue
		}
		h.mu.Unlock()
		if st == build {
			tmpl, err := engine.NewTemplate(j.cfg)
			h.built.Add(1)
			h.mu.Lock()
			if err != nil {
				// Every member builds the same world, so every member
				// fails the same way.
				failed := g.jobs
				g.jobs = nil
				g.building = false
				s.live--
				s.worlds--
				s.close(g)
				h.mu.Unlock()
				for _, j := range failed {
					h.finish(j, engine.Results{}, err)
				}
				h.mu.Lock()
			} else {
				g.tmpl, g.building, g.cloneable = tmpl, false, tmpl.Cloneable()
			}
			s.wake.Broadcast()
			continue
		}
		res, err := s.run(h, st, g, j)
		h.finish(j, res, err)
		h.mu.Lock()
		s.worlds--
		s.wake.Broadcast()
	}
	s.workers--
	h.mu.Unlock()
}

// run executes one job on the world its step names.
func (s *scheduler) run(h *Harness, st step, g *group, j job) (engine.Results, error) {
	h.executed.Add(1)
	var e *engine.Engine
	var err error
	switch st {
	case clone:
		if g.cloneable {
			h.cloned.Add(1)
		} else {
			h.built.Add(1)
		}
		e, err = g.tmpl.Engine(j.cfg)
		g.copying.Done()
	case take:
		g.copying.Wait()
		e, err = g.tmpl.Take(j.cfg)
	}
	if err != nil {
		return engine.Results{}, err
	}
	res, err := e.Run()
	// A file-backed world holds its data directory's files open.
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	return res, err
}
