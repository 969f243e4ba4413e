package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestAllExtensionsGenerate(t *testing.T) {
	s := sharedSuite(t)
	reports, err := s.AllExtensions()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("extensions = %d, want 5", len(reports))
	}
	for _, r := range reports {
		if len(r.Lines) == 0 {
			t.Errorf("%s has no lines", r.ID)
		}
	}
	checkIDs(t, IDs(true)[len(IDs(false)):], reports)
}

func TestExtensionDoTShape(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.ExtensionDoT()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, want := range []string{"Do53", "DoT", "DoH", "blocked"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
}

func TestExtensionCacheShape(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.ExtensionCache()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "do53-distributed") || !strings.Contains(joined, "doh-centralized") {
		t.Errorf("cache report incomplete:\n%s", joined)
	}
}

func TestExtensionWebloadCoversCountries(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.ExtensionWebload()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, code := range []string{"SE", "BR", "TD"} {
		if !strings.Contains(joined, code) {
			t.Errorf("webload report missing %s", code)
		}
	}
	if len(rep.Lines) != 9 {
		t.Errorf("lines = %d, want 3 countries x 3 protocols", len(rep.Lines))
	}
}

func TestExtensionTLS12Positive(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.ExtensionTLS12()
	if err != nil {
		t.Fatal(err)
	}
	// The paired extra cost must be positive.
	var last string
	for _, l := range rep.Lines {
		if strings.Contains(l, "paired extra cost") {
			last = l
		}
	}
	if last == "" {
		t.Fatal("no paired-extra-cost line")
	}
	fields := strings.Fields(last)
	for _, f := range fields {
		if strings.HasPrefix(f, "+") || strings.HasPrefix(f, "-") {
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(f, "+"), ""), 64)
			if err == nil {
				if v <= 0 {
					t.Errorf("TLS 1.2 extra cost = %f ms, want positive", v)
				}
				return
			}
		}
	}
	t.Errorf("could not parse extra cost from %q", last)
}

func TestExtensionRegionsShape(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.ExtensionRegions()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, want := range []string{"AF=", "EU=", "cross-region spread"} {
		if !strings.Contains(joined, want) {
			t.Errorf("regions report missing %q:\n%s", want, joined)
		}
	}
	// The paper's claim: every provider shows substantial regional
	// variance (contradicting continent-level smoothing).
	for _, l := range rep.Lines {
		if !strings.Contains(l, "spread:") {
			continue
		}
		var spread float64
		if _, err := fmt.Sscanf(l[strings.Index(l, "spread:"):], "spread: %fx", &spread); err != nil {
			t.Fatalf("unparseable spread line %q: %v", l, err)
		}
		if spread < 1.3 {
			t.Errorf("spread %.2f too small in %q; all providers vary regionally", spread, l)
		}
	}
}

func TestWriteFigureData(t *testing.T) {
	s := sharedSuite(t)
	dir := t.TempDir()
	if err := s.WriteFigureData(dir, 50); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"figure4_cdf.csv", "figure6_cdf.csv", "figure9_cdf.csv",
		"figure3_counts.csv", "figure7_deltas.csv",
	} {
		data, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Count(string(data), "\n")
		if lines < 5 {
			t.Errorf("%s has only %d lines", name, lines)
		}
	}
	// Figure 4 has 9 series.
	data, err := os.ReadFile(dir + "/figure4_cdf.csv")
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n")[1:] {
		if name, _, ok := strings.Cut(line, ","); ok && name != "" {
			series[name] = true
		}
	}
	if len(series) != 9 {
		t.Errorf("figure 4 series = %d, want 9 (4 providers x 2 + do53)", len(series))
	}
}
