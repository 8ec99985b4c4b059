package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"queryaudit/internal/metrics"
)

// metricNamesGolden pins every name /v1/metrics exports, per deployment
// shape, so a refactor of the instrumentation cannot drop or rename a
// series without this file changing with it.
const metricNamesGolden = "testdata/metric_names.golden"

// metricNameConfigs are the deployment shapes whose metric sets the
// golden file records, keyed by the section header each one gets.
var metricNameConfigs = []struct {
	name string
	args func(t *testing.T) []string
}{
	{"auditors full", func(*testing.T) []string { return []string{"-auditors", "full"} }},
	{"auditors prob", func(*testing.T) []string { return []string{"-auditors", "prob", "-mc-workers", "2"} }},
	{"role primary, clustered", func(t *testing.T) []string {
		return []string{"-role", "primary", "-cluster-config", writeFleetFile(t, testFleetDoc), "-shard-id", "shard-a"}
	}},
}

// TestMetricNamesGolden boots one auditserver per configuration and
// compares the sorted `type name` lines of its /v1/metrics with the
// golden file.
func TestMetricNamesGolden(t *testing.T) {
	bin := buildServer(t)
	var got strings.Builder
	for _, c := range metricNameConfigs {
		p := startServer(t, bin, c.args(t)...)
		var snap struct {
			Counters   map[string]int64 `json:"counters"`
			Gauges     map[string]int64 `json:"gauges"`
			Histograms map[string]any   `json:"histograms"`
		}
		if code := getJSON(t, p.url("/v1/metrics"), &snap); code != http.StatusOK {
			t.Fatalf("%s: GET /v1/metrics: status %d", c.name, code)
		}
		p.terminate(t)
		var lines []string
		for name := range snap.Counters {
			lines = append(lines, "counter "+name)
		}
		for name := range snap.Gauges {
			lines = append(lines, "gauge "+name)
		}
		for name := range snap.Histograms {
			lines = append(lines, "histogram "+name)
		}
		sort.Strings(lines)
		fmt.Fprintf(&got, "# %s\n%s\n", c.name, strings.Join(lines, "\n"))
	}
	want, err := os.ReadFile(filepath.FromSlash(metricNamesGolden))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("/v1/metrics names differ from %s\ngot:\n%s", metricNamesGolden, got.String())
	}
}

// docSpan matches a markdown code span.
var docSpan = regexp.MustCompile("`[^`]+`")

// docPlaceholders turn the docs' name placeholders into patterns.
var docPlaceholders = strings.NewReplacer("<kind>", "[a-z]+", "<i>", "[0-9]+", "<shard>", "[a-z0-9_]+", "<route>", "[a-z0-9_]+", "*", "[a-z0-9_]+")

// TestDocumentedMetricsExist: every metric name docs/DEPLOYMENT.md gives
// in a code span, at the span's start or as a PromQL argument, is one
// that an auditserver in the golden file or the router's
// metrics.NewClusterRouterMetrics exports. {a,b} groups are expanded,
// <kind>, <i>, <shard> and a family's * stand for any name part of that
// shape, and a trailing [_route] means both the bare name and its
// per-route forms.
func TestDocumentedMetricsExist(t *testing.T) {
	golden, err := os.ReadFile(filepath.FromSlash(metricNamesGolden))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(golden), "\n") {
		if _, name, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			names = append(names, name)
		}
	}
	reg := metrics.NewRegistry()
	metrics.NewClusterRouterMetrics(reg)
	snap := reg.Snapshot()
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	prefixes := map[string]bool{}
	for _, name := range names {
		p, _, _ := strings.Cut(name, "_")
		prefixes[p] = true
	}
	alts := make([]string, 0, len(prefixes))
	for p := range prefixes {
		alts = append(alts, p)
	}
	sort.Strings(alts)
	// A match followed by "." is a file name (qindex_equiv_test.go).
	docMetric := regexp.MustCompile(`(?:^|\()((?:` + strings.Join(alts, "|") + `)_[a-z0-9_{},<>*]*)(\[_route\])?(\.?)`)

	doc, err := os.ReadFile(filepath.FromSlash("../../docs/DEPLOYMENT.md"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(doc), "\n") {
		for _, span := range docSpan.FindAllString(line, -1) {
			for _, m := range docMetric.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
				if m[3] != "" {
					continue
				}
				for _, name := range expandBraces(m[1]) {
					forms := []string{name}
					if m[2] != "" {
						forms = append(forms, name+"_<route>")
					}
					for _, form := range forms {
						checked++
						re := regexp.MustCompile("^" + docPlaceholders.Replace(form) + "$")
						if !slices.ContainsFunc(names, re.MatchString) {
							t.Errorf("docs/DEPLOYMENT.md:%d: %s is not an exported metric", i+1, form)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no metric names in docs/DEPLOYMENT.md")
	}
}

// expandBraces expands every {a,b,...} group of s.
func expandBraces(s string) []string {
	i := strings.IndexByte(s, '{')
	j := strings.IndexByte(s, '}')
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandBraces(s[:i]+alt+s[j+1:])...)
	}
	return out
}
