package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// requestTimeout fails a request the server has not answered in time.
const requestTimeout = 30 * time.Second

// outcome is what one request got back. Times are offsets from the start
// of its phase.
type outcome struct {
	sent, done time.Duration
	status     int
	denied     bool
	answer     float64 // when not denied
	err        error
}

func (o outcome) failed() bool { return o.err != nil || o.status != http.StatusOK }

// client is one keep-alive connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON body and reads the whole response.
func (c *client) post(path, analyst string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if analyst != "" {
		req.Header.Set("X-Analyst-ID", analyst)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// query sends one statement as analyst and classifies the reply.
func (c *client) query(analyst string, body []byte, start time.Time) outcome {
	o := outcome{sent: time.Since(start)}
	status, b, err := c.post("/v1/query", analyst, body)
	o.done, o.status, o.err = time.Since(start), status, err
	if err == nil && status == http.StatusOK {
		o.denied, o.answer, o.err = parseAnswer(b)
	}
	return o
}

// parseAnswer decodes a /v1/query response body.
func parseAnswer(b []byte) (denied bool, answer float64, err error) {
	var r struct {
		Denied bool     `json:"denied"`
		Answer *float64 `json:"answer"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return false, 0, fmt.Errorf("malformed query response %q: %w", b, err)
	}
	if r.Denied {
		return true, 0, nil
	}
	if r.Answer == nil {
		return false, 0, fmt.Errorf("query response %q has neither denial nor answer", b)
	}
	return false, *r.Answer, nil
}

// update sends one /v1/update.
func (c *client) update(index int, value float64) error {
	body, err := json.Marshal(map[string]any{"index": index, "value": value})
	if err != nil {
		return err
	}
	status, b, err := c.post("/v1/update", "", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/update: %d %s", status, b)
	}
	return nil
}

// openResult is the open phase as the generator saw it.
type openResult struct {
	out      []outcome       // by position in the plan's open items
	lateness []time.Duration // dispatcher wake-up delay, for entries it slept for
	elapsed  time.Duration
}

// runOpen replays the open phase: a dispatcher releases each item at its
// due time into its analyst's FIFO queue, and nproc connection workers
// send the earliest-due request whose analyst has nothing in flight. An
// analyst's next request therefore never overtakes the reply to the
// previous one, and one slow analyst holds up no other. An update waits
// until every earlier request has completed, runs alone, and then
// releases the rest: every analyst sees it at the same point.
func runOpen(base string, items []item, pool []statement, nproc int) (openResult, error) {
	res := openResult{out: make([]outcome, len(items))}
	d := &dispatcher{queues: map[string][]int{}, busy: map[string]bool{}}
	d.cond = sync.NewCond(&d.mu)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				it := items[i]
				res.out[i] = c.query(it.Analyst, pool[it.Stmt].body, start)
				d.finish(it.Analyst)
			}
		}()
	}

	uc := newClient(base)
	defer uc.close()
	var err error
	for i, it := range items {
		if wait := it.Due - time.Since(start); wait > 0 {
			sleep(wait)
			res.lateness = append(res.lateness, time.Since(start)-it.Due)
		}
		if !it.Update {
			d.release(it.Analyst, i)
			continue
		}
		d.drain()
		o := outcome{sent: time.Since(start), status: http.StatusOK}
		o.err = uc.update(it.Index, it.Value)
		o.done = time.Since(start)
		res.out[i] = o
		if o.err != nil && err == nil {
			err = fmt.Errorf("update at %v: %w", it.Due, o.err)
		}
	}
	d.close()
	wg.Wait()
	res.elapsed = time.Since(start)
	return res, err
}

// sleep blocks the calling thread for d with nanosleep(2). Go's timers
// wake up to a millisecond late on kernels whose epoll timeouts have
// millisecond resolution, which would add a harness delay of that size to
// every open-phase latency; nanosleep overshoots by tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// dispatcher holds released requests per analyst and hands workers the
// earliest-due one whose analyst is idle.
type dispatcher struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]int // per analyst, item positions in due order
	busy     map[string]bool  // analyst has a request in flight
	ready    readyHeap        // idle analysts with a queued request
	inFlight int              // released and not yet finished
	closed   bool
}

func (d *dispatcher) release(analyst string, i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queues[analyst] = append(d.queues[analyst], i)
	d.inFlight++
	if !d.busy[analyst] && len(d.queues[analyst]) == 1 {
		heap.Push(&d.ready, readyEntry{analyst, i})
	}
	d.cond.Broadcast()
}

// take blocks until a request can be sent; ok is false once the phase is
// over.
func (d *dispatcher) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.ready.Len() == 0 {
		if d.closed {
			return 0, false
		}
		d.cond.Wait()
	}
	e := heap.Pop(&d.ready).(readyEntry)
	q := d.queues[e.analyst]
	d.queues[e.analyst] = q[1:]
	d.busy[e.analyst] = true
	return q[0], true
}

func (d *dispatcher) finish(analyst string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy[analyst] = false
	d.inFlight--
	if q := d.queues[analyst]; len(q) > 0 {
		heap.Push(&d.ready, readyEntry{analyst, q[0]})
	}
	d.cond.Broadcast()
}

// drain waits until every released request has completed.
func (d *dispatcher) drain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.inFlight > 0 {
		d.cond.Wait()
	}
}

func (d *dispatcher) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.cond.Broadcast()
}

// readyEntry is an idle analyst keyed by its oldest queued item; item
// positions follow due order, so the smallest is the earliest due.
type readyEntry struct {
	analyst string
	head    int
}

type readyHeap []readyEntry

func (h readyHeap) Len() int           { return len(h) }
func (h readyHeap) Less(i, j int) bool { return h[i].head < h[j].head }
func (h readyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)        { *h = append(*h, x.(readyEntry)) }
func (h *readyHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// runClosed replays the closed phase: nproc workers, each owning the
// analysts whose number is its index modulo nproc, send their requests
// back to back. It also returns how long every worker was busy: the
// phase up to the first worker running out of requests.
func runClosed(base string, items []item, pool []statement, nproc int) ([]outcome, time.Duration) {
	out := make([]outcome, len(items))
	finished := make([]time.Duration, nproc)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for i, it := range items {
				if it.Part%nproc == w {
					out[i] = c.query(it.Analyst, pool[it.Stmt].body, start)
				}
			}
			finished[w] = time.Since(start)
		}(w)
	}
	wg.Wait()
	busy := finished[0]
	for _, f := range finished[1:] {
		busy = min(busy, f)
	}
	return out, busy
}
