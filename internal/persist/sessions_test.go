package persist

import (
	"bytes"
	"testing"

	"queryaudit/internal/session"
)

func sampleLogs() []session.LogSnapshot {
	return []session.LogSnapshot{
		{Analyst: "alice", Events: []session.EventSnapshot{
			{Op: "query", Kind: "sum", Indices: []int{0, 1, 2}, Outcome: "answered", Answer: 6},
			{Op: "query", Kind: "sum", Indices: []int{1, 2}, Outcome: "denied"},
			{Op: "update", Index: 1},
			{Op: "query", Kind: "max", Indices: []int{0, 2}, Outcome: "errored"},
		}},
		{Analyst: "bob", Events: nil},
	}
}

// TestSessionLogsRoundTrip: Save → Load preserves every event field.
func TestSessionLogsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	logs := sampleLogs()
	if err := SaveSessionState(&buf, logs, 0); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJournals(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(logs) {
		t.Fatalf("got %d sessions, want %d", len(got), len(logs))
	}
	for i, jr := range got {
		events := jr.Events()
		if jr.Analyst() != logs[i].Analyst || len(events) != len(logs[i].Events) {
			t.Fatalf("session %d: %s with %d events vs %+v", i, jr.Analyst(), len(events), logs[i])
		}
		for j, dec := range events {
			ev, want := session.EncodeEvent(dec), logs[i].Events[j]
			if ev.Op != want.Op || ev.Kind != want.Kind || ev.Outcome != want.Outcome ||
				ev.Answer != want.Answer || ev.Index != want.Index || len(ev.Indices) != len(want.Indices) {
				t.Fatalf("session %d event %d: %+v vs %+v", i, j, ev, want)
			}
		}
	}
}

// TestLoadJournalsRejectsInvalid: wrong kinds, versions, duplicate or
// empty analysts, and structurally invalid events are all refused, and
// so is anything but white space after the envelope.
func TestLoadJournalsRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"wrong kind":    `{"version":1,"kind":"sum-full","payload":{"sessions":[]}}`,
		"wrong version": `{"version":9,"kind":"session-logs","payload":{"sessions":[]}}`,
		"empty analyst": `{"version":1,"kind":"session-logs","payload":{"sessions":[{"analyst":"","events":[]}]}}`,
		"duplicate":     `{"version":1,"kind":"session-logs","payload":{"sessions":[{"analyst":"a"},{"analyst":"a"}]}}`,
		"bad op":        `{"version":1,"kind":"session-logs","payload":{"sessions":[{"analyst":"a","events":[{"op":"zap"}]}]}}`,
		"bad kind":      `{"version":1,"kind":"session-logs","payload":{"sessions":[{"analyst":"a","events":[{"op":"query","kind":"mode","indices":[0],"outcome":"answered"}]}]}}`,
		"bad outcome":   `{"version":1,"kind":"session-logs","payload":{"sessions":[{"analyst":"a","events":[{"op":"query","kind":"sum","indices":[0],"outcome":"maybe"}]}]}}`,
		"empty set":     `{"version":1,"kind":"session-logs","payload":{"sessions":[{"analyst":"a","events":[{"op":"query","kind":"sum","indices":[],"outcome":"answered"}]}]}}`,
		"trailing":      `{"version":1,"kind":"session-logs","payload":{"sessions":[]}} {}`,
		"trailing byte": "{\"version\":1,\"kind\":\"session-logs\",\"payload\":{\"sessions\":[]}}\nx",
	}
	for name, raw := range cases {
		if _, err := LoadJournals([]byte(raw)); err == nil {
			t.Errorf("%s: accepted invalid snapshot", name)
		}
	}
	if js, err := LoadJournals([]byte("{\"version\":1,\"kind\":\"session-logs\",\"payload\":{\"sessions\":[]}}\n \t\r\n")); err != nil || len(js) != 0 {
		t.Errorf("white space after the envelope: %d journals, %v", len(js), err)
	}
}

// TestRejectsGarbage: input that is not a session journal at all — empty,
// malformed JSON, unknown envelopes and the retired per-auditor snapshots —
// is refused by LoadJournals (LoadFile decodes through the same path).
func TestRejectsGarbage(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"version":99,"kind":"sum-full","payload":{}}`,
		`{"version":1,"kind":"who-knows","payload":{}}`,
		`{"version":1,"kind":"max-full","payload":{"n":3,"next_id":2,"preds":[
			{"id":0,"set":[0,1],"value":5,"op":0},
			{"id":1,"set":[1,2],"value":7,"op":0}]}}`,
		`{"version":1,"kind":"max-duplicates","payload":{"n":2,"queries":[{"set":[0,1],"answer":3}]}}`,
	}
	for _, raw := range cases {
		if _, err := LoadJournals([]byte(raw)); err == nil {
			t.Errorf("LoadJournals accepted garbage: %s", raw)
		}
	}
}
