package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFleetFile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const testFleetDoc = `{
	"shards": [
		{"id": "shard-a", "primary": "http://127.0.0.1:9001", "replica": "http://127.0.0.1:9002", "epoch": 2},
		{"id": "shard-b", "primary": "http://127.0.0.1:9003"}
	]
}`

// TestClusterSetup pins the boot-time flag validation: every
// misconfiguration that would let a node serve analysts it does not own
// must fail fast with a message
// naming the offending flag, not surface as 421s or forked timelines
// at request time.
func TestClusterSetup(t *testing.T) {
	good := writeFleetFile(t, testFleetDoc)
	cases := []struct {
		name          string
		config, shard string
		wantErr       string // "" = success expected
	}{
		{name: "unclustered", config: "", shard: ""},
		{name: "clustered", config: good, shard: "shard-a"},
		{name: "shard-id without config", shard: "shard-a", wantErr: "-shard-id requires -cluster-config"},
		{name: "config without shard-id", config: good, wantErr: "requires -shard-id"},
		{name: "shard absent from descriptor", config: good, shard: "shard-z",
			wantErr: "shard-a, shard-b"}, // error must list the descriptor's shards
		{name: "descriptor unreadable", config: filepath.Join(t.TempDir(), "missing.json"), shard: "shard-a",
			wantErr: "missing.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view, fleet, err := clusterSetup(tc.config, tc.shard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tc.config == "" {
					if view != nil || fleet != nil {
						t.Fatal("unclustered setup returned a view")
					}
					return
				}
				if view == nil || fleet == nil {
					t.Fatal("clustered setup returned no view")
				}
				if view.ShardID() != tc.shard {
					t.Fatalf("view shard = %s, want %s", view.ShardID(), tc.shard)
				}
				sp, ok := fleet.Shard(tc.shard)
				if !ok || sp.Epoch != 2 {
					t.Fatalf("fleet shard %s = %+v, %v", tc.shard, sp, ok)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
