package repro

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/experiments"
)

// TestEndToEndStudy runs a reduced campaign through the complete
// pipeline — collection, analysis, every table and figure, the
// extension experiments, and the dataset export/import round trip —
// asserting the cross-cutting invariants that individual package
// tests cannot see.
func TestEndToEndStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end study skipped in -short mode")
	}
	cfg := campaign.DefaultConfig(4242)
	cfg.ClientScale = 0.3
	suite, err := experiments.NewSuiteContext(context.Background(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	reports, err := suite.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 13 {
		t.Fatalf("reports = %d, want 13", len(reports))
	}
	ext, err := suite.AllExtensions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 5 {
		t.Fatalf("extensions = %d, want 5", len(ext))
	}

	// The rendered study must mention every provider and pass basic
	// sanity greps.
	var all strings.Builder
	for _, rep := range append(reports, ext...) {
		all.WriteString(rep.String())
	}
	text := all.String()
	for _, want := range []string{"cloudflare", "google", "nextdns", "quad9", "Do53"} {
		if !strings.Contains(text, want) {
			t.Errorf("study output missing %q", want)
		}
	}

	// Export -> import -> regenerate: data-derived artifacts must be
	// byte-identical (Tables 1-2 rerun simulations and are exempt).
	var mainCSV, atlasCSV bytes.Buffer
	if err := suite.Dataset.WriteCSV(&mainCSV); err != nil {
		t.Fatal(err)
	}
	if err := suite.Dataset.WriteAtlasCSV(&atlasCSV); err != nil {
		t.Fatal(err)
	}
	ds2, err := campaign.ReadCSV(&mainCSV, &atlasCSV)
	if err != nil {
		t.Fatal(err)
	}
	suite2 := &experiments.Suite{
		Config:     cfg,
		Dataset:    ds2,
		Analysis:   analysis.New(ds2, 4),
		MinClients: 4,
	}
	// Table 3's discard-counter footer is pipeline state the release
	// intentionally omits (the paper's dataset wouldn't carry it
	// either): the imported footer says so instead of printing 0, and
	// only the data rows are compared.
	t3a, err := suite.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t3b, err := suite2.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(t3a.Lines)-1; i++ {
		if t3a.Lines[i] != t3b.Lines[i] {
			t.Errorf("Table 3 row %d differs: %q vs %q", i, t3a.Lines[i], t3b.Lines[i])
		}
	}
	if n := suite.Dataset.DiscardedMismatch; n == 0 {
		t.Error("the campaign discarded no clients, so an import's 0 would be right")
	} else if got, want := t3a.Lines[len(t3a.Lines)-1], fmt.Sprintf("discarded country mismatches: %d (", n); !strings.HasPrefix(got, want) {
		t.Errorf("Table 3 ends %q, want %q", got, want)
	}
	if got, want := t3b.Lines[len(t3b.Lines)-1], "discarded country mismatches: not in a CSV release"; got != want {
		t.Errorf("imported Table 3 ends %q, want %q", got, want)
	}

	for _, gen := range []struct {
		name string
		a, b func() (*experiments.Report, error)
	}{
		{"Table 4", suite.Table4, suite2.Table4},
		{"Figure 4", suite.Figure4, suite2.Figure4},
		{"Figure 6", suite.Figure6, suite2.Figure6},
		{"Figure 9", suite.Figure9, suite2.Figure9},
	} {
		ra, err := gen.a()
		if err != nil {
			t.Fatalf("%s original: %v", gen.name, err)
		}
		rb, err := gen.b()
		if err != nil {
			t.Fatalf("%s imported: %v", gen.name, err)
		}
		if ra.String() != rb.String() {
			t.Errorf("%s differs after export/import round trip:\n%s\nvs\n%s", gen.name, ra, rb)
		}
	}
}
