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
	{"role primary", func(*testing.T) []string { return []string{"-role", "primary"} }},
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
var docPlaceholders = strings.NewReplacer("<kind>", "[a-z]+", "<i>", "[0-9]+", "<route>", "[a-z0-9_]+", "*", "[a-z0-9_]+")

// TestDocumentedMetricsExist: every metric name docs/DEPLOYMENT.md gives
// in a code span is one that an auditserver in the golden file exports
// (see docMetricsMissing for what counts as a metric name).
func TestDocumentedMetricsExist(t *testing.T) {
	names := goldenMetricNames(t)
	doc, err := os.ReadFile(filepath.FromSlash("../../docs/DEPLOYMENT.md"))
	if err != nil {
		t.Fatal(err)
	}
	missing, checked := docMetricsMissing(string(doc), names)
	for _, m := range missing {
		t.Errorf("docs/DEPLOYMENT.md:%s is not an exported metric", m)
	}
	if checked == 0 {
		t.Fatal("found no metric names in docs/DEPLOYMENT.md")
	}
}

// TestDocMetricsMissingReportsGoneFamily is the scan's negative control:
// a documented metric whose whole family no longer exists is reported,
// next to a live name, which is not.
func TestDocMetricsMissingReportsGoneFamily(t *testing.T) {
	doc := "Alert on `cluster_failovers_total` rising.\nWatch `rate(mc_decisions_total[5m])`.\n"
	missing, checked := docMetricsMissing(doc, goldenMetricNames(t))
	if want := []string{"1: cluster_failovers_total"}; !slices.Equal(missing, want) || checked != 2 {
		t.Fatalf("scan reported %q after %d checks, want %q after 2", missing, checked, want)
	}
}

// goldenMetricNames returns every metric name of the golden file.
func goldenMetricNames(t *testing.T) []string {
	t.Helper()
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
	return names
}

// docMetricsMissing scans doc, markdown text, for metric names in code
// spans, at a span's start or as a PromQL argument, and returns each one
// that matches none of names, as "line: name", with the number of names
// it checked. A name is metric-shaped when its first part is a family
// of names (the text before its first "_") or its last part ends names
// of more than one family (such as _total or _seconds), so a documented
// metric whose whole family is gone is still checked. {a,b} groups are
// expanded, <kind>, <i>, <route> and a family's * stand for any name
// part of that shape, and a trailing [_route] means both the bare name
// and its per-route forms.
func docMetricsMissing(doc string, names []string) (missing []string, checked int) {
	prefixes := map[string]bool{}
	suffixFamilies := map[string]map[string]bool{}
	for _, name := range names {
		p, _, _ := strings.Cut(name, "_")
		prefixes[p] = true
		s := name[strings.LastIndexByte(name, '_')+1:]
		if suffixFamilies[s] == nil {
			suffixFamilies[s] = map[string]bool{}
		}
		suffixFamilies[s][p] = true
	}
	var suffixes []string
	for s, fams := range suffixFamilies {
		if len(fams) > 1 {
			suffixes = append(suffixes, s)
		}
	}
	// A match followed by "." is a file name (qindex_equiv_test.go).
	docName := regexp.MustCompile(`(?:^|\()([a-z][a-z0-9]*_[a-z0-9_{},<>*]*)(\[_route\])?(\.?)`)
	metricShaped := func(name string) bool {
		p, _, _ := strings.Cut(name, "_")
		return prefixes[p] || slices.ContainsFunc(suffixes, func(s string) bool { return strings.HasSuffix(name, "_"+s) })
	}
	for i, line := range strings.Split(doc, "\n") {
		for _, span := range docSpan.FindAllString(line, -1) {
			for _, m := range docName.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
				if m[3] != "" || !metricShaped(m[1]) {
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
							missing = append(missing, fmt.Sprintf("%d: %s", i+1, form))
						}
					}
				}
			}
		}
	}
	return missing, checked
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
