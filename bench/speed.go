package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark runs on shared machines whose speed drifts: on the
// two-vCPU virtual machine it was calibrated on, a workload's server CPU
// time per request moved by up to 45% from one minute to the next, every
// workload slowing at once. A run therefore also times fixed reference
// work between its rounds, while no server runs, and scales its
// end-to-end timings towards the speed at which that work takes
// refNominalMS, as far as refExponent says they follow it (README.md has
// the measurements). The reference work does the kinds of
// work the server does, none of it with the repository's code: hashing,
// map and slice allocation, JSON and random reads from a large array on
// every CPU, then JSON over HTTP on nproc loopback connections to a child
// process.

// refNominalMS is the reference work's median time on the calibration
// machine; scaled timings read as if every run had that speed.
const refNominalMS = 27.0

// refExponent is how closely the server's figures follow the reference
// work when the machine's speed changes. Over 229 runs on the calibration
// machine, regressing the logarithm of each unscaled end-to-end metric on
// that of the reference time gave slopes from 0.5 (prob-300) to 0.9
// (narrow-300), 0.7 at the median: the reference work, partly bound by
// memory, slows more than the server does when the host is busy. Scaling
// by the full ratio would over-correct and add the reference's own
// variation to every metric.
const refExponent = 0.7

// maxStolen is the share of the machine's CPU time the hypervisor may
// give to other guests during a round before the round is left out of
// the metrics. On the calibration machine about 1% of rounds went above
// it; in them prob-300's latency, whose Monte Carlo decisions wait for
// work on every CPU, was a quarter above its run's median, while the
// other metrics moved by a tenth or less.
const maxStolen = 0.02

// refReps is how many times the reference work is timed between rounds.
const refReps = 5

// referenceSink keeps the compiler from removing the reference work.
var referenceSink atomic.Int64

// refServerEnv makes the benchmark's binary serve the reference work's
// HTTP side instead of running a benchmark.
const refServerEnv = "BENCH_REFERENCE_SERVER"

// refBody is the request the reference work sends, shaped like a query.
var refBody = []byte(`{"sql":"SELECT sum(salary) WHERE age BETWEEN 30 AND 31 AND dept = 'eng'"}`)

// serveReference is the child side of the reference work: an HTTP server
// on a loopback port that answers every request by decoding its JSON body
// and encoding an answer. It prints its address and runs until the parent
// kills it.
func serveReference() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	fmt.Println(ln.Addr())
	fatal(http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			SQL string `json:"sql"`
		}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// A failed write is the client's to see.
		_ = json.NewEncoder(w).Encode(map[string]any{"denied": false, "answer": float64(len(in.SQL)) * 1.5})
	})))
}

// reference times the reference work and keeps every timing.
type reference struct {
	cmd     *exec.Cmd
	done    chan struct{} // closed when the child has exited
	base    string
	clients []*http.Client
	nproc   int
	big     []int64 // the array the random reads touch
	samples []float64
}

// startReference starts the reference server as a child process running
// the benchmark's own binary.
func startReference(nproc int) (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refServerEnv+"=1", "GOMAXPROCS="+strconv.Itoa(nproc))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &reference{cmd: cmd, done: make(chan struct{}), nproc: nproc, big: make([]int64, 4<<20)}
	addr := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(out).ReadString('\n')
		addr <- strings.TrimSpace(line)
		_, _ = io.Copy(io.Discard, out) // until the child exits
		_ = cmd.Wait()
		close(r.done)
	}()
	select {
	case a := <-addr:
		if a == "" {
			r.stop()
			return nil, errors.New("reference server exited before printing its address")
		}
		r.base = "http://" + a
	case <-time.After(readyTimeout):
		r.stop()
		return nil, errors.New("reference server did not start")
	}
	for i := 0; i < nproc; i++ {
		r.clients = append(r.clients, &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	return r, nil
}

// stop kills the reference server and waits for it to exit.
func (r *reference) stop() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	_ = r.cmd.Process.Kill() // already exited is fine
	<-r.done
}

// sample times the reference work refReps times.
func (r *reference) sample() error {
	for i := 0; i < refReps; i++ {
		start := time.Now()
		r.compute()
		if err := r.roundTrips(); err != nil {
			return err
		}
		r.samples = append(r.samples, float64(time.Since(start))/float64(time.Millisecond))
	}
	return nil
}

// factor is how much slower than nominal the machine ran over the
// samples: the median reference time over refNominalMS.
func (r *reference) factor() float64 { return median(r.samples) / refNominalMS }

// compute runs the same CPU and memory work on every CPU at once.
func (r *reference) compute() {
	var wg sync.WaitGroup
	for g := 0; g < r.nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			referenceSink.Add(computeOnce(r.big, int64(g)))
		}(g)
	}
	wg.Wait()
}

type refRow struct {
	Analyst string  `json:"analyst"`
	Seq     int     `json:"seq"`
	Answer  float64 `json:"answer"`
	Denied  bool    `json:"denied"`
}

// computeOnce is one CPU's share of the reference work.
func computeOnce(big []int64, seed int64) int64 {
	var acc int64
	buf := make([]byte, 4096)
	for i := 0; i < 300; i++ {
		s := sha256.Sum256(buf)
		buf[0] = s[0]
		acc += int64(s[1])
	}
	m := map[int][]byte{}
	for i := 0; i < 30000; i++ {
		m[i%3000] = make([]byte, 48+i%200)
	}
	acc += int64(len(m))
	rows := make([]refRow, 1000)
	for i := range rows {
		rows[i] = refRow{Analyst: "analyst-" + strconv.Itoa(i%64), Seq: i, Answer: float64(i) * 1.5, Denied: i%3 == 0}
	}
	b, err := json.Marshal(rows)
	if err == nil {
		var back []refRow
		if json.Unmarshal(b, &back) == nil {
			acc += int64(len(back))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	for i := 0; i < 150000; i++ {
		acc += big[rng.Intn(len(big))]
	}
	return acc
}

// stealSample is the machine's stolen CPU time so far, from /proc/stat.
type stealSample struct {
	ticks int64 // clock ticks (1/100 s), summed over the CPUs
	cpus  int
}

// readSteal reads the steal column of /proc/stat. Where the kernel does
// not report it the sample is zero, and no round is ever left out.
func readSteal() stealSample {
	var s stealSample
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			// A malformed column reads as no steal, like a missing one.
			s.ticks, _ = strconv.ParseInt(f[8], 10, 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			s.cpus++
		}
	}
	return s
}

// stolenShare is the share of the machine's CPU time, between two samples
// wall apart, that the hypervisor gave to other guests.
func stolenShare(a, b stealSample, wall time.Duration) float64 {
	if b.cpus == 0 || wall <= 0 {
		return 0
	}
	return float64(b.ticks-a.ticks) / (wall.Seconds() * 100 * float64(b.cpus))
}

// undisturbed returns the rounds during which the host took at most
// maxStolen of the CPU time, or every round when fewer than two were.
func undisturbed(rounds []round, stolen []float64) []round {
	var kept []round
	for k, r := range rounds {
		if stolen[k] <= maxStolen {
			kept = append(kept, r)
		}
	}
	if len(kept) < 2 {
		return rounds
	}
	return kept
}

// roundTrips sends 100 requests on each connection, the connections in
// parallel.
func (r *reference) roundTrips() error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			for k := 0; k < 100 && errs[i] == nil; k++ {
				errs[i] = roundTrip(c, r.base)
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func roundTrip(c *http.Client, base string) error {
	resp, err := c.Post(base+"/", "application/json", bytes.NewReader(refBody))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reference server: %s", resp.Status)
	}
	return nil
}
