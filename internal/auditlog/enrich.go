package auditlog

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
)

// Dict is the sensitivity dictionary: it maps dataset attributes to
// named sensitivity classes and assigns each class a weight, so the
// enrich stage can score a historical query without consulting the
// dataset itself. Loaded from JSON; DefaultDict covers the built-in
// company schema.
type Dict struct {
	// Classes maps a sensitivity-class name to its weight (higher is
	// more sensitive). Weights are relative, not calibrated.
	Classes map[string]float64 `json:"classes"`
	// Attributes maps a dataset attribute name to its class.
	Attributes map[string]string `json:"attributes"`
	// Kinds maps an aggregation kind ("sum", "max", ...) to a risk
	// factor: order statistics leak bounds on individual records and
	// score above 1, counts leak only cardinality and score below.
	Kinds map[string]float64 `json:"kinds"`
	// DefaultClass is assumed for attributes missing from Attributes
	// (empty means weight 0 — unknown attributes contribute nothing).
	DefaultClass string `json:"default_class,omitempty"`
}

// DefaultDict scores the built-in company schema: the aggregate target
// is sensitive, the narrow demographics (age, zip) are quasi-
// identifiers that carve small query sets, and dept is a broad
// organizational attribute.
func DefaultDict() Dict {
	return Dict{
		Classes: map[string]float64{
			"sensitive":        1.0,
			"quasi-identifier": 0.6,
			"organizational":   0.3,
			"public":           0.1,
		},
		Attributes: map[string]string{
			"salary": "sensitive",
			"age":    "quasi-identifier",
			"zip":    "quasi-identifier",
			"dept":   "organizational",
		},
		Kinds: map[string]float64{
			"sum":    1.0,
			"avg":    1.0,
			"median": 1.1,
			"max":    1.3,
			"min":    1.3,
			"count":  0.2,
		},
	}
}

// LoadDict reads a sensitivity dictionary from a JSON file and
// validates that every attribute's class is defined.
func LoadDict(path string) (Dict, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Dict{}, err
	}
	var d Dict
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Dict{}, fmt.Errorf("auditlog: %s: %w", path, err)
	}
	if len(d.Classes) == 0 {
		return Dict{}, fmt.Errorf("auditlog: %s: dictionary defines no classes", path)
	}
	attrs := make([]string, 0, len(d.Attributes))
	//auditlint:allow detrand keys are sorted immediately below
	for attr := range d.Attributes {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		if _, ok := d.Classes[d.Attributes[attr]]; !ok {
			return Dict{}, fmt.Errorf("auditlog: %s: attribute %q names undefined class %q", path, attr, d.Attributes[attr])
		}
	}
	if d.DefaultClass != "" {
		if _, ok := d.Classes[d.DefaultClass]; !ok {
			return Dict{}, fmt.Errorf("auditlog: %s: default_class %q is undefined", path, d.DefaultClass)
		}
	}
	return d, nil
}

// attrWeight looks up one attribute's sensitivity weight.
func (d Dict) attrWeight(attr string) float64 {
	if class, ok := d.Attributes[attr]; ok {
		return d.Classes[class]
	}
	if d.DefaultClass != "" {
		return d.Classes[d.DefaultClass]
	}
	return 0
}

// kindFactor looks up one aggregation kind's risk factor (1 when the
// dictionary is silent about the kind).
func (d Dict) kindFactor(kind string) float64 {
	if f, ok := d.Kinds[kind]; ok {
		return f
	}
	return 1
}

// Risk is the enrichment verdict for one entry:
//
//	Score = AttrScore × KindFactor × BreadthFactor
//
// AttrScore sums the sensitivity weights of every attribute the query
// touches (aggregate target plus predicate attributes). BreadthFactor
// is 1 + log2(N / |Q|): a query pinning down one record out of N scores
// ~1+log2(N), a full-population aggregate scores 1. When breadth is
// unknown (external log without a resolver) it stays 1, so external and
// journal scores remain comparable on the shared factors.
type Risk struct {
	Attrs         []string `json:"attrs,omitempty"`
	AttrScore     float64  `json:"attr_score"`
	Kind          string   `json:"kind,omitempty"`
	KindFactor    float64  `json:"kind_factor"`
	Breadth       int      `json:"breadth"`
	BreadthFactor float64  `json:"breadth_factor"`
	Score         float64  `json:"score"`
}

// Enriched is one entry joined with its risk verdict — the enriched
// ndjson record the enrich stage emits.
type Enriched struct {
	Entry
	Risk Risk `json:"risk"`
	// Error records why an entry could not be scored (unparseable SQL);
	// such entries keep Score 0 and are counted by the report.
	Error string `json:"error,omitempty"`
}

// Enricher scores entries against a dictionary. Records is the dataset
// size N used by the breadth factor. Sensitive names the aggregate
// target attribute; SQL optionally resolves external-log statements to
// their query sets so breadth is known for those entries too
// (predicates touch only immutable public attributes, so one shared
// resolver is safe, and the replay can reuse its statement memo).
type Enricher struct {
	Dict      Dict
	Records   int
	Sensitive string
	SQL       *core.SQLResolver
}

// Enrich scores every entry, preserving stream order.
func (en *Enricher) Enrich(entries []Entry) []Enriched {
	out := make([]Enriched, 0, len(entries))
	for _, e := range entries {
		enr := Enriched{Entry: e}
		if e.Op == OpQuery {
			risk, err := en.Score(e)
			enr.Risk = risk
			if err != nil {
				enr.Error = err.Error()
			}
		}
		out = append(out, enr)
	}
	return out
}

// Score computes one query entry's risk.
func (en *Enricher) Score(e Entry) (Risk, error) {
	var r Risk
	attrs := []string{}
	r.Kind = e.Kind
	r.Breadth = len(e.Indices)
	if e.SQL != "" {
		stmt, err := core.Parse(e.SQL)
		if err != nil {
			return Risk{}, err
		}
		if r.Kind == "" {
			r.Kind = stmt.Agg.String()
		}
		attrs = append(attrs, stmt.Target)
		attrs = append(attrs, predAttrs(stmt.Preds)...)
		// Resolved against the statement's own target, so breadth is
		// known even where the replay rejects the target. An empty
		// selection is an error and leaves breadth 0.
		if r.Breadth == 0 && en.SQL != nil {
			if q, err := en.SQL.ResolveSQL(stmt.Target, e.SQL); err == nil {
				r.Breadth = len(q.Set)
			}
		}
	} else if en.Sensitive != "" {
		// Journal entries carry no statement text; the aggregate target
		// is the only attribute the record names.
		attrs = append(attrs, en.Sensitive)
	}
	sort.Strings(attrs)
	for i, a := range attrs {
		if i > 0 && attrs[i-1] == a {
			continue
		}
		r.Attrs = append(r.Attrs, a)
		r.AttrScore += en.Dict.attrWeight(a)
	}
	r.KindFactor = en.Dict.kindFactor(r.Kind)
	r.BreadthFactor = 1
	if r.Breadth > 0 && en.Records >= r.Breadth {
		r.BreadthFactor = 1 + math.Log2(float64(en.Records)/float64(r.Breadth))
	}
	r.Score = r.AttrScore * r.KindFactor * r.BreadthFactor
	return r, nil
}

// predAttrs collects the attribute names a predicate tree touches.
func predAttrs(preds []dataset.Predicate) []string {
	var attrs []string
	for _, p := range preds {
		attrs = append(attrs, predicateAttrs(p)...)
	}
	return attrs
}

// predicateAttrs walks one predicate.
func predicateAttrs(p dataset.Predicate) []string {
	switch v := p.(type) {
	case dataset.RangePred:
		return []string{v.Attr}
	case dataset.EqPred:
		return []string{v.Attr}
	case dataset.AndPred:
		return predAttrs(v)
	case dataset.OrPred:
		return predAttrs(v)
	default:
		return nil
	}
}

// WriteEnriched emits the enriched stream as ndjson, one record per
// line in stream order.
func WriteEnriched(w io.Writer, enriched []Enriched) error {
	enc := json.NewEncoder(w)
	for _, e := range enriched {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
