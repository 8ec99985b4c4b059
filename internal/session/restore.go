package session

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"queryaudit/internal/core"
)

// This file is the restart path. A restart has two steps: BuildJournals
// decodes every snapshot into a Log and checks it, and Install replays
// the Logs into engines and registers them. A caller that must not be
// left half-loaded by a bad file (internal/persist) runs the first step
// for every journal before it changes any state.

// Journal is one analyst's journal, rebuilt from its snapshot and
// checked, ready for Manager.Install.
type Journal struct {
	analyst string
	log     *Log
}

// BuildJournals rebuilds a Log from every snapshot, checking each
// journal's structure and, when the snapshot carries them, its seq and
// digest chain — the checks LogSnapshot.Validate makes, each made once.
// Empty and duplicate analyst ids are refused before any journal is
// decoded. Journals are decoded on GOMAXPROCS goroutines; when several
// fail, the error is the lowest-index one's.
func BuildJournals(snaps []LogSnapshot) ([]Journal, error) {
	seen := make(map[string]bool, len(snaps))
	for _, snap := range snaps {
		if snap.Analyst == "" {
			return nil, errors.New("session: snapshot with empty analyst id")
		}
		if seen[snap.Analyst] {
			return nil, fmt.Errorf("session: duplicate snapshot for analyst %q", snap.Analyst)
		}
		seen[snap.Analyst] = true
	}
	js := make([]Journal, len(snaps))
	errs := make([]error, len(snaps))
	inParallel(len(snaps), func(i int) {
		js[i].analyst = snaps[i].Analyst
		js[i].log, errs[i] = logFromSnapshot(snaps[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("session: analyst %q: %w", snaps[i].Analyst, err)
		}
	}
	return js, nil
}

// inParallel calls f(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns once every call has.
func inParallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Restore rebuilds every snapshot's journal and installs them: it is
// BuildJournals followed by Install, so a snapshot that fails its checks
// changes nothing.
func (m *Manager) Restore(snaps []LogSnapshot) error {
	js, err := BuildJournals(snaps)
	if err != nil {
		return err
	}
	return m.Install(js)
}

// Install makes every journal a session of m, each with a fresh engine
// that has replayed it. It is eager, so a ready-gated server only starts
// answering once every analyst's privacy state is reconstructed; call it
// before serving traffic. An analyst already tracked (the eager default
// session) has its journal and engine replaced.
//
// GOMAXPROCS goroutines build and replay the engines, one journal per
// task, while the calling goroutine registers them in journal order.
// The recency list, the eviction count and the live set therefore end
// as installing one journal at a time leaves them, and at most two
// replayed engines per goroutine wait to be registered. When a replay
// fails, the journals before it stay installed and the error is the
// lowest-index failing journal's.
func (m *Manager) Install(js []Journal) error {
	type replayed struct {
		eng  *core.Engine
		err  error
		took time.Duration
	}
	workers := min(runtime.GOMAXPROCS(0), len(js))
	out := make([]chan replayed, len(js))
	for i := range out {
		out[i] = make(chan replayed, 1)
	}
	// A worker takes a window slot before it claims a journal and the
	// installer frees it once it holds that journal's engine, so claims
	// run at most len(window) journals ahead of registration.
	window := make(chan struct{}, 2*workers)
	stop := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case window <- struct{}{}:
				case <-stop:
					return
				}
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if i >= len(js) {
					return
				}
				start := time.Now()
				m.dsMu.RLock()
				eng, err := m.replayEvents(js[i].analyst, js[i].log.events)
				m.dsMu.RUnlock()
				out[i] <- replayed{eng, err, time.Since(start)}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i, j := range js {
		r := <-out[i]
		<-window
		if r.err == nil {
			r.err = m.installJournal(j, r.eng)
		}
		if r.err != nil {
			return fmt.Errorf("session: restoring %q: %w", j.analyst, r.err)
		}
		if n := len(j.log.events); n > 0 {
			m.obs.ObserveReplay(n, r.took)
		}
	}
	return nil
}

// installJournal makes j the analyst's journal and eng, which has
// replayed it, the session's engine, evicting for capacity first.
func (m *Manager) installJournal(j Journal, eng *core.Engine) error {
	m.wireLog(j.analyst, j.log)
	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	s, err := m.lookupOrCreate(j.analyst)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	if s.eng != nil {
		m.dropEngineLocked(s)
	}
	s.log = j.log
	m.evictForCapacity()
	m.installEngineLocked(s, eng)
	return nil
}
