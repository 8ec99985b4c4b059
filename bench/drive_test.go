package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer answers /v1/query after a random delay (a long one for the
// "slow" analyst) and records what the open loop must guarantee.
type fakeServer struct {
	inFlight, maxInFlight atomic.Int64
	mu                    sync.Mutex
	last                  map[string]int // analyst -> last request id seen
	errs                  []string
}

func (f *fakeServer) errorf(format string, args ...any) {
	f.mu.Lock()
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
	f.mu.Unlock()
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	for {
		m := f.maxInFlight.Load()
		if n <= m || f.maxInFlight.CompareAndSwap(m, n) {
			break
		}
	}
	if r.URL.Path == "/v1/update" {
		if n != 1 {
			f.errorf("update ran beside %d other requests", n-1)
		}
		fmt.Fprint(w, `{"ok":true}`)
		return
	}
	var body struct{ SQL string }
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		f.errorf("decode: %v", err)
	}
	id, _ := strconv.Atoi(body.SQL)
	analyst := r.Header.Get("X-Analyst-ID")
	f.mu.Lock()
	if prev, ok := f.last[analyst]; ok && prev >= id {
		f.errs = append(f.errs, fmt.Sprintf("%s: request %d arrived after %d", analyst, id, prev))
	}
	f.last[analyst] = id
	f.mu.Unlock()
	d := time.Duration(rand.Intn(2000)) * time.Microsecond
	if analyst == "slow" {
		d = 150 * time.Millisecond
	}
	time.Sleep(d)
	fmt.Fprint(w, `{"denied":false,"answer":1}`)
}

func TestOpenLoopOrderConcurrencyAndIsolation(t *testing.T) {
	const nproc = 2
	fs := &fakeServer{last: map[string]int{}}
	ts := httptest.NewServer(fs)
	defer ts.Close()

	// 400 requests over ~1.6s from 8 analysts, plus one slow analyst among
	// the first 140, then two update barriers; each statement body carries
	// its request id.
	r := rand.New(rand.NewSource(1))
	var items []item
	var pool []statement
	due := time.Duration(0)
	for i := 0; i < 400; i++ {
		due += time.Duration(r.ExpFloat64() * float64(4*time.Millisecond))
		it := item{Due: due, Stmt: i, Analyst: fmt.Sprintf("a%d", r.Intn(8))}
		if i%20 == 0 && i < 140 {
			it.Analyst = "slow"
		}
		if i == 150 || i == 300 {
			it = item{Due: due, Update: true}
		}
		items = append(items, it)
		pool = append(pool, statement{body: []byte(fmt.Sprintf(`{"sql":"%d"}`, i))})
	}
	res, err := runOpen(ts.URL, items, pool, nproc)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fs.errs {
		t.Error(e)
	}
	if m := fs.maxInFlight.Load(); m > nproc {
		t.Errorf("%d requests in flight at once, want at most %d", m, nproc)
	}
	var fast []float64
	for i, it := range items {
		o := res.out[i]
		if o.failed() {
			t.Fatalf("request %d failed: %v", i, o.err)
		}
		if o.sent < it.Due {
			t.Errorf("request %d sent %v before it was due at %v", i, o.sent, it.Due)
		}
		if i < 140 && it.Analyst != "slow" {
			fast = append(fast, float64(o.done-it.Due)/float64(time.Millisecond))
		}
	}
	// The slow analyst keeps one worker busy for the whole first part; the
	// other analysts must not queue behind it.
	if p90 := percentile(fast, 90); p90 > 50 {
		t.Errorf("other analysts' p90 latency %.1fms: they waited behind the slow analyst", p90)
	}
}
