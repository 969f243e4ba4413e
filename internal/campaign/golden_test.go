package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
)

// goldenDataset is a hand-built fixture pinning the CSV export format,
// including the invalid-Do53 contract: a client in a Super-Proxy
// country still exports its rows, with do53_ms rendered as 0.0000 and
// do53_valid=false. Consumers MUST filter on do53_valid, never on the
// value (0.0 is also a syntactically fine latency). See
// docs/resolver.md for the filtering contract.
func goldenDataset() *Dataset {
	return &Dataset{
		Clients: []ClientRecord{
			{
				ClientID:     "exit-BR-000001",
				CountryCode:  "BR",
				Prefix:       "177.32.10.0/24",
				Pos:          geo.Point{Lat: -10.5, Lon: -52.25},
				NSDistanceKm: 6800.5,
				Do53Ms:       142.25,
				Do53Valid:    true,
				DoH: table(map[anycast.ProviderID]DoHResult{
					anycast.Cloudflare: {
						TDoHMs: 210.125, TDoHRMs: 95.5,
						PoPID: "cf-gru", PoPCountry: "BR",
						PoPDistanceKm: 850.25, NearestPoPDistanceKm: 850.25,
						Valid: true,
					},
					// Invalid provider result: the estimator discarded
					// every run, so the row must be omitted entirely.
					anycast.Google: {Valid: false},
				}),
			},
			{
				// Do53-only client: every DoH result invalid, but the
				// Do53 baseline is valid — exports as one provider-less
				// row (empty provider and DoH columns). These clients
				// used to be dropped from the export entirely, silently
				// shrinking the Do53 baseline on every round-trip.
				ClientID:     "exit-CL-000003",
				CountryCode:  "CL",
				Prefix:       "190.110.20.0/24",
				Pos:          geo.Point{Lat: -33.45, Lon: -70.6667},
				NSDistanceKm: 7920.125,
				Do53Ms:       88.5,
				Do53Valid:    true,
				DoH: table(map[anycast.ProviderID]DoHResult{
					anycast.Cloudflare: {Valid: false},
					anycast.Google:     {Valid: false},
				}),
			},
			{
				ClientID:     "exit-US-000002",
				CountryCode:  "US",
				Prefix:       "73.158.4.0/24",
				Pos:          geo.Point{Lat: 39.0, Lon: -95.5},
				NSDistanceKm: 1500.75,
				// Super-Proxy country: Do53 invalid, value left zero.
				Do53Ms:    0,
				Do53Valid: false,
				DoH: table(map[anycast.ProviderID]DoHResult{
					anycast.Quad9: {
						TDoHMs: 55.0625, TDoHRMs: 21.5,
						PoPID: "q9-iad", PoPCountry: "US",
						PoPDistanceKm: 1450.5, NearestPoPDistanceKm: 320.125,
						Valid: true,
					},
				}),
			},
		},
		AtlasDo53Ms: map[string]float64{"US": 23.4375, "DE": 18.125},
		Seed:        1,
	}
}

// TestWriteCSVGolden pins the export byte-for-byte. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/campaign/ -run Golden
//
// and review the diff: the format is a published-data contract.
func TestWriteCSVGolden(t *testing.T) {
	ds := goldenDataset()
	var main, atlas bytes.Buffer
	if err := ds.WriteCSV(&main); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteAtlasCSV(&atlas); err != nil {
		t.Fatal(err)
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/export_golden.csv", main.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/atlas_golden.csv", atlas.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	wantMain, err := os.ReadFile("testdata/export_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(main.Bytes(), wantMain) {
		t.Errorf("main export drifted from golden file:\ngot:\n%s\nwant:\n%s", main.String(), wantMain)
	}
	wantAtlas, err := os.ReadFile("testdata/atlas_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(atlas.Bytes(), wantAtlas) {
		t.Errorf("atlas export drifted from golden file:\ngot:\n%s\nwant:\n%s", atlas.String(), wantAtlas)
	}
}

// TestWriteCSVInvalidDo53Contract spells out the invalid-row contract
// the golden file encodes, so a failure names the rule and not just a
// byte diff.
func TestWriteCSVInvalidDo53Contract(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenDataset().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Invalid Do53 exports as a zero value, flagged false. The value
	// alone is indistinguishable from a real (if absurd) measurement —
	// the flag column is the only safe filter.
	if !strings.Contains(out, ",0.0000,false,quad9,") {
		t.Errorf("invalid-Do53 row not exported as 0.0000,false:\n%s", out)
	}
	// Valid Do53 carries its value and a true flag.
	if !strings.Contains(out, ",142.2500,true,cloudflare,") {
		t.Errorf("valid-Do53 row mis-exported:\n%s", out)
	}
	// Invalid provider results are omitted entirely: google had no
	// plausible run, so no google row may exist.
	if strings.Contains(out, "google") {
		t.Errorf("invalid provider result exported:\n%s", out)
	}
	// A client with a valid Do53 baseline and no valid DoH exports as a
	// provider-less row: metadata columns filled, all DoH columns empty.
	if !strings.Contains(out, ",88.5000,true,,,,,,,\n") {
		t.Errorf("Do53-only client not exported as a provider-less row:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 4 { // header + cloudflare row + CL provider-less row + quad9 row
		t.Errorf("export has %d lines, want 4", lines)
	}

	// Round trip keeps the flag, so filtering survives re-import.
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got.Clients {
		if c.CountryCode == "US" && c.Do53Valid {
			t.Error("invalid Do53 flag lost in round trip")
		}
		if c.CountryCode == "BR" && (!c.Do53Valid || c.Do53Ms != 142.25) {
			t.Errorf("valid Do53 mangled in round trip: %+v", c)
		}
	}
	// CountryDo53Ms must honour the contract: no US value without the
	// Atlas remedy table.
	if _, ok := got.CountryDo53Ms("US"); ok {
		t.Error("CountryDo53Ms used an invalid Do53 value")
	}
	if med, ok := got.CountryDo53Ms("BR"); !ok || med != 142.25 {
		t.Errorf("CountryDo53Ms(BR) = %v, %v", med, ok)
	}
}

// stripeConfig is the benchmark's stripe: the first of 16 shards of the
// world (14 countries), campaign seed 2021, all five strategies.
func stripeConfig(t *testing.T) Config {
	t.Helper()
	countries, err := ShardCountries(nil, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2021)
	cfg.Transports = fiveTransportConfig().Transports
	cfg.Countries = countries
	return cfg
}

// TestExportHashPinned pins every byte the campaign exports for the
// benchmark's stripe (14 countries, seed 2021, all five strategies) —
// the DoT, DoQ and smart columns included, which the hand-built goldens
// above do not reach. The hash was recorded before the extension
// transports moved onto one session model; it moves only with the order
// of draws from the simulator's random stream, the estimator, the race
// rule or the CSV format, none of which a refactor may touch.
func TestExportHashPinned(t *testing.T) {
	const want = "840369e9c0948b6fa6b033599d2230e7d3f2f8b3465c1397e167158494c259cb"
	ds, err := Run(stripeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := ds.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSmartCSV(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("WriteCSV + WriteSmartCSV hash to %s, want %s", got, want)
	}
}
