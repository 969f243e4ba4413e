package main

import (
	"encoding/json"
	"io"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestBenchSmoke runs the whole harness small: every workload for one
// 100 ms round plus the traced phase, in this process, on a shrunk
// cache and a 14-country campaign stripe. It asserts what does not
// depend on the box: every answer verified, every validity check
// passed, and exactly the catalogue's metrics emitted.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestBenchSmoke(t *testing.T) {
	rep, err := run(runConfig{
		Workloads: workloadNames(), Seed: 1, Rounds: 1,
		Segment: 100 * time.Millisecond, Warmup: 10 * time.Millisecond,
		Measure: true, Trace: true,
		segment: runSegment, log: io.Discard,
		stack: stackConfig{CacheEntries: 8192}, stripe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range rep.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d failed, invalid: %v", w.Workload, w.Correct, w.Failed, w.Attempted, w.Invalid)
		}
		for traced, want := range map[bool][]string{false: names(endToEnd), true: names(perLayer())} {
			line, err := contractLine(rep, w, traced)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: contract line %s: %v", w.Workload, line, err)
			}
			if !reflect.DeepEqual(sortedKeys(got.Metrics), want) {
				t.Errorf("%s traced=%v: emits %v, catalogue has %v", w.Workload, traced, sortedKeys(got.Metrics), want)
			}
			for name, m := range got.Metrics {
				if m.Value == nil || m.Unit == "" {
					t.Errorf("%s: %s has no value or unit", w.Workload, name)
				}
			}
		}
		for _, m := range endToEnd {
			if v := w.EndToEnd[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end %s = %g, want > 0", w.Workload, m.Name, v)
			}
		}
		for _, path := range servingPaths {
			if v := rep.Ladder[path+".trace.coverage_ratio"].Value; v < 0.9 || v > 1.1 {
				t.Errorf("%s: %s.trace.coverage_ratio = %g, want within 10%% of 1", w.Workload, path, v)
			}
		}
		if w.Workload == wCampaign && w.CSVHash == "" {
			t.Error("campaign reported no CSV hash")
		}
	}
}
