package campaign

import (
	"strings"
	"testing"

	"repro/internal/anycast"
	"repro/internal/world"
)

// smallConfig runs a fast campaign over a handful of countries.
func smallConfig(countries ...string) Config {
	cfg := DefaultConfig(1234)
	cfg.Countries = countries
	cfg.ClientScale = 0.2
	return cfg
}

func TestRunSmallCampaign(t *testing.T) {
	ds, err := Run(smallConfig("BR", "IT", "NG", "US"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Clients) == 0 {
		t.Fatal("no clients collected")
	}
	byCountry := ds.ClientsByCountry()
	for _, code := range []string{"BR", "IT", "NG", "US"} {
		if len(byCountry[code]) == 0 {
			t.Errorf("no clients in %s", code)
		}
	}
	for _, c := range ds.Clients {
		if c.DoH.Len() != 4 {
			t.Fatalf("client %s has %d provider results", c.ClientID, c.DoH.Len())
		}
		for _, pid := range anycast.ProviderIDs() {
			res, _ := c.DoH.Get(pid)
			if !res.Valid {
				continue
			}
			if res.TDoHMs <= 0 || res.TDoHRMs <= 0 {
				t.Errorf("%s/%s: non-positive estimates %+v", c.ClientID, pid, res)
			}
			if res.TDoHRMs >= res.TDoHMs {
				t.Errorf("%s/%s: TDoHR %.1f >= TDoH %.1f", c.ClientID, pid, res.TDoHRMs, res.TDoHMs)
			}
			if res.PoPID == "" {
				t.Errorf("%s/%s: no PoP recorded", c.ClientID, pid)
			}
			if res.PoPDistanceKm < res.NearestPoPDistanceKm {
				t.Errorf("%s/%s: used PoP closer than nearest", c.ClientID, pid)
			}
		}
		if !strings.HasSuffix(c.Prefix, "/24") {
			t.Errorf("prefix %q not a /24", c.Prefix)
		}
		if c.NSDistanceKm < 0 {
			t.Errorf("NS distance %f", c.NSDistanceKm)
		}
	}
}

func TestDo53ValidityByCountry(t *testing.T) {
	ds, err := Run(smallConfig("BR", "US"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ds.Clients {
		switch c.CountryCode {
		case "BR":
			if !c.Do53Valid {
				t.Errorf("BR client %s has no Do53", c.ClientID)
			}
		case "US":
			if c.Do53Valid {
				t.Errorf("US client %s has Do53 despite the Super Proxy limitation", c.ClientID)
			}
		}
	}
	// The remedy supplies the Atlas median for the US.
	if _, ok := ds.AtlasDo53Ms["US"]; !ok {
		t.Error("no Atlas Do53 for US")
	}
	med, ok := ds.CountryDo53Ms("US")
	if !ok || med <= 0 {
		t.Errorf("CountryDo53Ms(US) = %f, %v", med, ok)
	}
	medBR, ok := ds.CountryDo53Ms("BR")
	if !ok || medBR <= 0 {
		t.Errorf("CountryDo53Ms(BR) = %f, %v", medBR, ok)
	}
	if _, ok := ds.CountryDo53Ms("FJ"); ok {
		t.Error("CountryDo53Ms invented data for an unmeasured country")
	}
}

func TestAnalyzedCountriesThreshold(t *testing.T) {
	cfg := smallConfig("BR", "IT", "KI") // Kiribati has weight 4 -> under 10 clients
	cfg.ClientScale = 1.0
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analyzed := ds.AnalyzedCountries(10, nil)
	has := func(code string) bool {
		for _, c := range analyzed {
			if c == code {
				return true
			}
		}
		return false
	}
	if !has("BR") || !has("IT") {
		t.Errorf("analyzed = %v, missing BR/IT", analyzed)
	}
	if has("KI") {
		t.Error("Kiribati passed the 10-client bar with weight 4")
	}
}

func TestExcludedCountriesNeverAnalyzed(t *testing.T) {
	cfg := smallConfig("CN", "BR")
	cfg.ClientScale = 100 // even with many clients...
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range ds.AnalyzedCountries(10, nil) {
		if code == "CN" {
			t.Error("China in the analyzed set (paper: excluded, DoH dropped)")
		}
	}
}

func TestCampaignDeterministicBySeed(t *testing.T) {
	run := func() *Dataset {
		ds, err := Run(smallConfig("SE", "ZA"))
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := run(), run()
	if len(a.Clients) != len(b.Clients) {
		t.Fatalf("client counts differ: %d vs %d", len(a.Clients), len(b.Clients))
	}
	for i := range a.Clients {
		ca, cb := a.Clients[i], b.Clients[i]
		if ca.ClientID != cb.ClientID || ca.Do53Ms != cb.Do53Ms {
			t.Fatalf("client %d differs: %+v vs %+v", i, ca, cb)
		}
		if ca.DoH != cb.DoH {
			t.Fatalf("client %d DoH results differ", i)
		}
	}
}

func TestMismatchDiscardRateSmall(t *testing.T) {
	cfg := smallConfig("DE", "FR", "PL", "BR", "MX")
	cfg.ClientScale = 1.0
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := len(ds.Clients) + ds.DiscardedMismatch
	rate := float64(ds.DiscardedMismatch) / float64(total)
	if rate > 0.05 {
		t.Errorf("mismatch discard rate %.3f, want small (paper: 0.0088)", rate)
	}
}

func TestClientCountsBoundedByConfig(t *testing.T) {
	cfg := smallConfig("US")
	cfg.ClientScale = 10 // would exceed the cap without clamping
	if n := clientsIn(cfg, world.MustByCode("US")); n != MaxClients {
		t.Fatalf("US provisions %d clients at scale %g, want the cap, %d", n, cfg.ClientScale, MaxClients)
	}
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ds.Clients) + ds.DiscardedMismatch; n > MaxClients {
		t.Errorf("US clients = %d, want <= %d", n, MaxClients)
	}
}

func TestParallelismDoesNotChangeResults(t *testing.T) {
	// The dataset must be a pure function of the configuration: one
	// worker and eight workers produce identical records.
	base := smallConfig("BR", "IT", "ZA", "TH", "PL", "EG", "US", "SE")
	base.Parallel = 1
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 8
	parallel, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Clients) != len(parallel.Clients) {
		t.Fatalf("client counts differ: %d vs %d", len(serial.Clients), len(parallel.Clients))
	}
	for i := range serial.Clients {
		a, b := serial.Clients[i], parallel.Clients[i]
		if a.ClientID != b.ClientID || a.Do53Ms != b.Do53Ms || a.Prefix != b.Prefix {
			t.Fatalf("client %d differs across worker counts:\n%+v\n%+v", i, a, b)
		}
		if a.DoH != b.DoH {
			t.Fatalf("client %d DoH results differ across worker counts", i)
		}
	}
	if serial.DiscardedMismatch != parallel.DiscardedMismatch {
		t.Errorf("discards differ: %d vs %d", serial.DiscardedMismatch, parallel.DiscardedMismatch)
	}
}

func TestCountrySeedsIndependent(t *testing.T) {
	// Adding a country must not change another country's records.
	only := smallConfig("BR")
	rBR, err := Run(only)
	if err != nil {
		t.Fatal(err)
	}
	both := smallConfig("BR", "IT")
	rBoth, err := Run(both)
	if err != nil {
		t.Fatal(err)
	}
	var brOnly, brBoth []ClientRecord
	for _, c := range rBR.Clients {
		if c.CountryCode == "BR" {
			brOnly = append(brOnly, c)
		}
	}
	for _, c := range rBoth.Clients {
		if c.CountryCode == "BR" {
			brBoth = append(brBoth, c)
		}
	}
	if len(brOnly) != len(brBoth) {
		t.Fatalf("BR client counts differ: %d vs %d", len(brOnly), len(brBoth))
	}
	for i := range brOnly {
		if brOnly[i].Do53Ms != brBoth[i].Do53Ms {
			t.Fatalf("BR client %d differs when IT is added", i)
		}
	}
}

// CountryDo53Ms is the median of a country's valid client values, or
// the Atlas remedy where there is one.
func TestCountryDo53MsTable(t *testing.T) {
	client := func(code string, ms float64, valid bool) ClientRecord {
		return ClientRecord{CountryCode: code, Do53Ms: ms, Do53Valid: valid}
	}
	ds := &Dataset{
		Clients: []ClientRecord{
			client("BR", 30, true), client("BR", 10, true), client("BR", 20, true),
			client("BR", 999, false), // invalid values never count
			client("IT", 40, true), client("IT", 10, true), client("IT", 30, true), client("IT", 20, true),
			client("US", 5, true), // the remedy wins over client data
			client("FJ", 7, false),
		},
		AtlasDo53Ms: map[string]float64{"US": 23.5, "DE": 18.25},
	}
	for _, c := range []struct {
		code string
		want float64
		ok   bool
	}{
		{"BR", 20, true},    // odd count: the middle value
		{"IT", 25, true},    // even count: mean of the middle two
		{"US", 23.5, true},  // Atlas-remedied, with client data present
		{"DE", 18.25, true}, // Atlas-remedied, no clients at all
		{"FJ", 0, false},    // only invalid values
		{"ZZ", 0, false},    // no clients
	} {
		got, ok := ds.CountryDo53Ms(c.code)
		if got != c.want || ok != c.ok {
			t.Errorf("CountryDo53Ms(%s) = %v, %v; want %v, %v", c.code, got, ok, c.want, c.ok)
		}
	}
}

// table builds a per-provider table from a map literal.
func table[T any](m map[anycast.ProviderID]T) anycast.PerProvider[T] {
	var t anycast.PerProvider[T]
	for pid, v := range m {
		t.Set(pid, v)
	}
	return t
}
