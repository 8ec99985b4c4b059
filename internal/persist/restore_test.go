package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/session"
)

// newFullManager returns a manager whose engines guard xs with the full
// stack: sumfull for sums, maxminfull for max and min.
func newFullManager(tb testing.TB, xs []float64, maxLive int) *session.Manager {
	tb.Helper()
	n := len(xs)
	sp := core.NewEngineSpec(dataset.FromValues(xs))
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(n), nil }, query.Sum)
	sp.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
	m, err := session.NewManager(sp, session.Config{MaxLive: maxLive, NoJanitor: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(m.Close)
	return m
}

// journalFile drives analysts through queries over sets of lo–hi of the
// table's rows, with update barriers after every analyst whose index is
// in updateAfter, and returns the SaveFile bytes of the result.
func journalFile(tb testing.TB, xs []float64, analysts, queries, lo, hi int, updateAfter map[int]bool, seed int64) []byte {
	tb.Helper()
	m := newFullManager(tb, xs, 64)
	rng := randx.New(seed)
	kinds := []query.Kind{query.Sum, query.Sum, query.Max, query.Min}
	for a := 0; a < analysts; a++ {
		for k := 0; k < queries; k++ {
			q := query.New(kinds[rng.Intn(len(kinds))], randx.SubsetSizeBetween(rng, len(xs), lo, hi)...)
			if _, err := m.Ask(fmt.Sprintf("analyst-%04d", a), q); err != nil {
				tb.Fatal(err)
			}
		}
		if updateAfter[a] {
			if err := m.Update(rng.Intn(len(xs)), rng.Float64()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	path := filepath.Join(tb.TempDir(), "sessions.json")
	if _, err := SaveFile(path, m, 3); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestBadLastJournalChangesNothing: a file whose last journal fails its
// digest check is refused before the dataset values or any session of
// the manager change, although every journal before it is sound.
func TestBadLastJournalChangesNothing(t *testing.T) {
	xs := randx.DuplicateFreeDataset(randx.New(4), 40, 0, 1)
	raw := journalFile(t, xs, 6, 3, 2, 40, map[int]bool{2: true}, 8)
	var env envelope[sessionLogsPayload]
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Payload.Dataset == nil {
		t.Fatal("the file holds no dataset values")
	}
	last := &env.Payload.Sessions[len(env.Payload.Sessions)-1]
	flip := "0"
	if last.Digest[0] == '0' {
		flip = "1"
	}
	last.Digest = flip + last.Digest[1:]
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad-last.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newFullManager(t, xs, 0)
	for _, analyst := range []string{session.DefaultAnalyst, "analyst-0000", "someone-else"} {
		if _, err := m.Ask(analyst, query.New(query.Sum, 0, 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	values := m.Dataset().SensitiveState()
	logs, sessions := m.LogSnapshots(), liveness(m)
	live, tracked := m.Live(), m.Tracked()

	if _, _, err := LoadFile(path, m); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("LoadFile accepted a journal with a bad digest: %v", err)
	}
	if got := m.Dataset().SensitiveState(); !reflect.DeepEqual(got, values) {
		t.Fatal("a refused file changed the dataset values")
	}
	if !reflect.DeepEqual(m.LogSnapshots(), logs) || !reflect.DeepEqual(liveness(m), sessions) {
		t.Fatal("a refused file changed the sessions")
	}
	if m.Live() != live || m.Tracked() != tracked {
		t.Fatalf("a refused file changed the session counts: live %d→%d, tracked %d→%d", live, m.Live(), tracked, m.Tracked())
	}
}

// liveness maps every tracked analyst to whether its engine is live.
func liveness(m *session.Manager) map[string]bool {
	out := map[string]bool{}
	for _, info := range m.Sessions() {
		out[info.Analyst] = info.Live
	}
	return out
}

// TestSaveAfterLoadIsByteIdentical: loading a file and saving the
// restored manager writes the same bytes.
func TestSaveAfterLoadIsByteIdentical(t *testing.T) {
	xs := randx.DuplicateFreeDataset(randx.New(6), 60, 0, 1)
	raw := journalFile(t, xs, 12, 4, 2, 60, map[int]bool{3: true, 9: true}, 10)
	path := filepath.Join(t.TempDir(), "sessions.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m := newFullManager(t, xs, 5)
	if _, _, err := LoadFile(path, m); err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(t.TempDir(), "again.json")
	if _, err := SaveFile(again, m, 3); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("saving a loaded file wrote different bytes")
	}
}

// TestLoadsCommittedFile: testdata/sessions_v1.json, a SaveFile file of
// five analysts and two update barriers over a 40-row table, committed
// as an earlier build wrote it, still loads, and saving the restored
// manager writes it byte for byte.
func TestLoadsCommittedFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sessions_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	xs := randx.DuplicateFreeDataset(randx.New(30), 40, 0, 1)
	m := newFullManager(t, xs, 2)
	n, epoch, err := LoadFile(filepath.Join("testdata", "sessions_v1.json"), m)
	if err != nil || n != 6 || epoch != 3 {
		t.Fatalf("loaded %d journals at epoch %d: %v", n, epoch, err)
	}
	path := filepath.Join(t.TempDir(), "again.json")
	if _, err := SaveFile(path, m, epoch); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("saving the loaded file wrote different bytes")
	}
}

// loadFileBench is BenchmarkLoadFile's input, built once per process.
var loadFileBench struct {
	once sync.Once
	xs   []float64
	raw  []byte
}

// BenchmarkLoadFile restores a churn-shaped snapshot: 1024 analysts over
// a 1000-row table, three queries each over 100–600 rows, and two update
// barriers that journal a marker into every session. Each iteration
// loads the file into a fresh manager that keeps 256 engines live.
func BenchmarkLoadFile(b *testing.B) {
	lb := &loadFileBench
	lb.once.Do(func() {
		lb.xs = randx.DuplicateFreeDataset(randx.New(21), 1000, 0, 1)
		lb.raw = journalFile(b, lb.xs, 1024, 3, 100, 600, map[int]bool{400: true, 800: true}, 22)
	})
	path := filepath.Join(b.TempDir(), "sessions.json")
	if err := os.WriteFile(path, lb.raw, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(lb.raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := newFullManager(b, lb.xs, 256)
		b.StartTimer()
		if n, _, err := LoadFile(path, m); err != nil || n != 1025 {
			b.Fatalf("loaded %d journals: %v", n, err)
		}
	}
}
