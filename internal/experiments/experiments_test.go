package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
)

var (
	once     sync.Once
	shared   *Suite
	buildErr error
)

func sharedSuite(t *testing.T) *Suite {
	t.Helper()
	once.Do(func() {
		cfg := campaign.DefaultConfig(777)
		cfg.ClientScale = 0.35
		shared, buildErr = NewSuiteContext(context.Background(), cfg, 4)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return shared
}

func TestAllReportsGenerate(t *testing.T) {
	s := sharedSuite(t)
	reports, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 13 {
		t.Fatalf("reports = %d, want 13 (Tables 1-6 + Figures 3-9)", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if r.ID == "" || r.Title == "" || len(r.Lines) == 0 {
			t.Errorf("empty report: %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate report %s", r.ID)
		}
		seen[r.ID] = true
		if !strings.Contains(r.String(), r.ID) {
			t.Errorf("String() missing ID for %s", r.ID)
		}
	}
	for _, want := range []string{"Table 1", "Table 4", "Table 6", "Figure 3", "Figure 9"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
	checkIDs(t, IDs(false), reports)
}

// checkIDs holds the IDs worldstudy -only accepts to the reports that
// render, in order.
func checkIDs(t *testing.T, ids []string, reports []*Report) {
	t.Helper()
	if len(ids) != len(reports) {
		t.Fatalf("IDs = %q for %d reports", ids, len(reports))
	}
	for i, r := range reports {
		if ids[i] != r.ID {
			t.Errorf("IDs[%d] = %q, report %d is %q", i, ids[i], i, r.ID)
		}
	}
}

func TestTable1WithinTolerance(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	// 6 countries + header.
	if len(rep.Lines) != 7 {
		t.Fatalf("lines = %d", len(rep.Lines))
	}
	for _, code := range []string{"IE", "BR", "SE", "IT", "IN", "US"} {
		found := false
		for _, l := range rep.Lines {
			if strings.HasPrefix(l, code) {
				found = true
			}
		}
		if !found {
			t.Errorf("Table 1 missing %s", code)
		}
	}
}

func TestTable3CountsConsistent(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < 6 {
		t.Fatalf("lines = %d", len(rep.Lines))
	}
	for _, name := range []string{"cloudflare", "google", "nextdns", "quad9", "Do53"} {
		found := false
		for _, l := range rep.Lines {
			if strings.Contains(l, name) {
				found = true
			}
		}
		if !found {
			t.Errorf("Table 3 missing %s row", name)
		}
	}
}

func TestTable4RendersORs(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, want := range []string{"Bandwidth: Slow", "Resolver: NextDNS", "global median multipliers"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
	if !strings.Contains(joined, "x") {
		t.Error("Table 4 has no odds ratios")
	}
}

func TestTable6HasAllProviders(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, p := range []string{"cloudflare", "google", "nextdns", "quad9"} {
		if !strings.Contains(joined, p) {
			t.Errorf("Table 6 missing %s section", p)
		}
	}
}

func TestFigure4QuantilesOrdered(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	// 4 providers x 2 series + Do53.
	if len(rep.Lines) != 9 {
		t.Fatalf("lines = %d, want 9", len(rep.Lines))
	}
}

func TestFigure6Quad9Outlier(t *testing.T) {
	s := sharedSuite(t)
	rep, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	var quad9Line string
	for _, l := range rep.Lines {
		if strings.HasPrefix(l, "quad9") {
			quad9Line = l
		}
	}
	if quad9Line == "" {
		t.Fatal("no quad9 line")
	}
}

func TestReportsDeterministic(t *testing.T) {
	cfg := campaign.DefaultConfig(99)
	cfg.Countries = []string{"BR", "IT", "ZA", "TH", "PL", "CO", "EG", "VN"}
	cfg.ClientScale = 0.3
	s1, err := NewSuiteContext(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSuiteContext(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if r1.String() != r2.String() {
		t.Errorf("Figure 4 not deterministic:\n%s\nvs\n%s", r1, r2)
	}
}

// A campaign this small analyzes a handful of countries, so some of
// Table 4's dummies are constant in its rows: the report says which in
// place of a made-up odds ratio of 1, and the rest render.
func TestSmallStudyReportsAliasedCovariates(t *testing.T) {
	cfg := campaign.DefaultConfig(777)
	cfg.ClientScale = 0.05
	s, err := NewSuiteContext(context.Background(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.ID == "Table 4" && !strings.Contains(rep.String(), "is a linear combination of the intercept") {
			t.Errorf("Table 4 at scale 0.05 does not name its aliased covariate:\n%s", rep)
		}
	}
}
