package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// benchmarkJSON is the driver's declaration at the repository root.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const benchmarkPath = "../BENCHMARK.json"

func catalogueJSON() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 8,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
}

// TestCatalogueMatchesBenchmarkJSON: every workload and metric the
// harness declares is in BENCHMARK.json with the same unit, direction
// and bound, and the other way round.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	want := catalogueJSON()
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", benchmarkPath, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs from the catalogue; regenerate with: go test ./bench -run TestCatalogueMatchesBenchmarkJSON -update\n got: %+v\nwant: %+v", benchmarkPath, got, want)
	}
}

// TestCatalogueWithinContract holds the catalogue to the limits the
// driver enforces before it makes a single run.
func TestCatalogueWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	c := catalogueJSON()
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	for _, w := range c.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	hasSetup := false
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want within (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range c.PerLayer {
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDef{}, c.EndToEnd...), c.PerLayer...) {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want exactly bench", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", c.RunSeconds)
	}
}
