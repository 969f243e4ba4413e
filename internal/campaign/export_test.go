package campaign

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/anycast"
)

func TestCSVRoundTrip(t *testing.T) {
	ds, err := Run(smallConfig("BR", "IT", "US"))
	if err != nil {
		t.Fatal(err)
	}
	var main, atlas bytes.Buffer
	if err := ds.WriteCSV(&main); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := ds.WriteAtlasCSV(&atlas); err != nil {
		t.Fatalf("WriteAtlasCSV: %v", err)
	}

	got, err := ReadCSV(bytes.NewReader(main.Bytes()), bytes.NewReader(atlas.Bytes()))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got.Clients) != len(ds.Clients) {
		t.Fatalf("clients = %d, want %d", len(got.Clients), len(ds.Clients))
	}
	for i := range ds.Clients {
		want, have := ds.Clients[i], got.Clients[i]
		if want.ClientID != have.ClientID || want.CountryCode != have.CountryCode ||
			want.Prefix != have.Prefix || want.Do53Valid != have.Do53Valid {
			t.Fatalf("client %d differs: %+v vs %+v", i, want, have)
		}
		if diff := want.Do53Ms - have.Do53Ms; diff > 0.001 || diff < -0.001 {
			t.Fatalf("client %d Do53 differs: %f vs %f", i, want.Do53Ms, have.Do53Ms)
		}
		for _, pid := range anycast.ProviderIDs() {
			w, _ := want.DoH.Get(pid)
			h, _ := have.DoH.Get(pid)
			if !w.Valid {
				continue
			}
			if w.PoPID != h.PoPID || abs(w.TDoHMs-h.TDoHMs) > 0.001 || abs(w.TDoHRMs-h.TDoHRMs) > 0.001 {
				t.Fatalf("client %d %s differs: %+v vs %+v", i, pid, w, h)
			}
		}
	}
	if len(got.AtlasDo53Ms) != len(ds.AtlasDo53Ms) {
		t.Fatalf("atlas medians = %d, want %d", len(got.AtlasDo53Ms), len(ds.AtlasDo53Ms))
	}
	for code, v := range ds.AtlasDo53Ms {
		if abs(got.AtlasDo53Ms[code]-v) > 0.001 {
			t.Errorf("atlas %s = %f, want %f", code, got.AtlasDo53Ms[code], v)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestCSVHeaderValidation(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("bogus,header\n"), nil); err == nil {
		t.Fatal("bad header accepted")
	}
	shuffled := "country,client_id," + strings.Join(csvHeader[2:], ",") + "\n"
	if _, err := ReadCSV(strings.NewReader(shuffled), nil); err == nil {
		t.Fatal("shuffled header accepted")
	}
	if _, err := ReadCSV(strings.NewReader(""), nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestCSVBadRows(t *testing.T) {
	head := strings.Join(csvHeader, ",") + "\n"
	badNum := head + "c1,BR,10.0.0.0/24,notanumber,0,0,1,true,cloudflare,1,1,p,BR,1,1\n"
	if _, err := ReadCSV(strings.NewReader(badNum), nil); err == nil {
		t.Fatal("non-numeric latitude accepted")
	}
	badBool := head + "c1,BR,10.0.0.0/24,0,0,0,1,maybe,cloudflare,1,1,p,BR,1,1\n"
	if _, err := ReadCSV(strings.NewReader(badBool), nil); err == nil {
		t.Fatal("bad boolean accepted")
	}

	// The smart side table: the winner column feeds Dataset.SmartWins
	// and the times feed the sketch, so neither may be taken on trust.
	good := head + "c1,BR,10.0.0.0/24,0,0,0,1,true,cloudflare,1,1,p,BR,1,1\n"
	smartHead := strings.Join(smartCSVHeader, ",") + "\n"
	for name, c := range map[string]struct {
		row string
		ok  bool
	}{
		"a candidate wins":           {"c1,cloudflare,doq,12.5,3.25\n", true},
		"winner the race never runs": {"c1,cloudflare,do53,12.5,3.25\n", false},
		"winner not a transport":     {"c1,cloudflare,carrier-pigeon,12.5,3.25\n", false},
		"NaN first-query time":       {"c1,cloudflare,doh,NaN,3.25\n", false},
		"infinite steady state":      {"c1,cloudflare,doh,12.5,+Inf\n", false},
		"negative first-query time":  {"c1,cloudflare,doh,-12.5,3.25\n", false},
	} {
		ds, err := ReadCSV(strings.NewReader(good), nil)
		if err != nil {
			t.Fatal(err)
		}
		err = ds.ReadSmartCSV(strings.NewReader(smartHead + c.row))
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: %v", name, err)
		case !c.ok && err == nil:
			t.Errorf("%s: accepted (SmartWins %v)", name, ds.SmartWins)
		case !c.ok && !strings.Contains(err.Error(), "line 2"):
			t.Errorf("%s: error does not name the line: %v", name, err)
		}
	}
}

// TestCSVRoundTripDo53OnlyClient pins bugfix #1: a client whose DoH
// results are all invalid but whose Do53 baseline is valid must
// survive the WriteCSV/ReadCSV round-trip. The pre-fix WriteCSV
// skipped such clients entirely (it only emitted provider rows), so
// every export/import cycle silently shrank the Do53 baseline —
// exactly the loss a sharded merge would multiply by shard count.
func TestCSVRoundTripDo53OnlyClient(t *testing.T) {
	ds := &Dataset{
		Clients: []ClientRecord{
			{
				ClientID: "c-doh", CountryCode: "BR", Prefix: "10.0.0.0/24",
				Do53Ms: 50, Do53Valid: true,
				DoH: table(map[anycast.ProviderID]DoHResult{
					anycast.Cloudflare: {TDoHMs: 100, TDoHRMs: 40, PoPID: "p", PoPCountry: "BR", Valid: true},
				}),
			},
			{
				ClientID: "c-do53-only", CountryCode: "BR", Prefix: "10.0.1.0/24",
				Do53Ms: 77.25, Do53Valid: true,
				DoH: table(map[anycast.ProviderID]DoHResult{
					anycast.Cloudflare: {Valid: false},
				}),
			},
		},
		AtlasDo53Ms: map[string]float64{},
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clients) != 2 {
		t.Fatalf("round trip kept %d clients, want 2 (Do53-only client dropped)", len(got.Clients))
	}
	var found bool
	for _, c := range got.Clients {
		if c.ClientID != "c-do53-only" {
			continue
		}
		found = true
		if !c.Do53Valid || c.Do53Ms != 77.25 {
			t.Errorf("Do53-only client mangled: %+v", c)
		}
		if c.DoH.Len() != 0 {
			t.Errorf("Do53-only client grew DoH results: %+v", c.DoH)
		}
	}
	if !found {
		t.Fatal("Do53-only client missing after round trip")
	}
	// And the round trip is stable: exporting the reimported dataset
	// reproduces the same bytes.
	var again bytes.Buffer
	if err := got.WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("second export differs:\nfirst:\n%s\nsecond:\n%s", buf.String(), again.String())
	}
}

// TestReadCSVDuplicateMetadataMismatch pins bugfix #2: repeated rows
// for one client must carry identical metadata columns. The pre-fix
// reader silently kept the first row's values, so a corrupt merge
// (two sources disagreeing on a client's geography or Do53 baseline)
// imported without complaint.
func TestReadCSVDuplicateMetadataMismatch(t *testing.T) {
	head := strings.Join(csvHeader, ",") + "\n"
	base := "c1,BR,10.0.0.0/24,1.0000,2.0000,3.0000,50.0000,true,cloudflare,100,40,p,BR,1,1\n"
	cases := map[string]string{
		"do53 value":  "c1,BR,10.0.0.0/24,1.0000,2.0000,3.0000,51.0000,true,google,100,40,p,BR,1,1\n",
		"do53 flag":   "c1,BR,10.0.0.0/24,1.0000,2.0000,3.0000,50.0000,false,google,100,40,p,BR,1,1\n",
		"country":     "c1,US,10.0.0.0/24,1.0000,2.0000,3.0000,50.0000,true,google,100,40,p,BR,1,1\n",
		"latitude":    "c1,BR,10.0.0.0/24,1.5000,2.0000,3.0000,50.0000,true,google,100,40,p,BR,1,1\n",
		"prefix":      "c1,BR,10.9.0.0/24,1.0000,2.0000,3.0000,50.0000,true,google,100,40,p,BR,1,1\n",
		"ns distance": "c1,BR,10.0.0.0/24,1.0000,2.0000,9.0000,50.0000,true,google,100,40,p,BR,1,1\n",
	}
	for field, dup := range cases {
		if _, err := ReadCSV(strings.NewReader(head+base+dup), nil); err == nil {
			t.Errorf("mismatching duplicate %s accepted", field)
		}
	}
	// Identical metadata on repeated rows stays fine (the normal
	// multi-provider layout).
	same := "c1,BR,10.0.0.0/24,1.0000,2.0000,3.0000,50.0000,true,google,100,40,p,BR,1,1\n"
	ds, err := ReadCSV(strings.NewReader(head+base+same), nil)
	if err != nil {
		t.Fatalf("consistent duplicate rejected: %v", err)
	}
	if len(ds.Clients) != 1 || ds.Clients[0].DoH.Len() != 2 {
		t.Fatalf("consistent duplicate misparsed: %+v", ds.Clients)
	}
}

// TestReadCSVRejectsCorruptMergeShapes covers the remaining strictness
// the merge path relies on: duplicated providers and malformed
// provider-less rows fail loudly instead of importing garbage.
func TestReadCSVRejectsCorruptMergeShapes(t *testing.T) {
	head := strings.Join(csvHeader, ",") + "\n"
	meta := "c1,BR,10.0.0.0/24,1.0000,2.0000,3.0000,50.0000,true,"
	provider := meta + "cloudflare,100,40,p,BR,1,1\n"
	bareRow := meta + ",,,,,,\n"
	cases := map[string]string{
		"duplicate provider":            provider + provider,
		"provider-less after provider":  provider + bareRow,
		"provider after provider-less":  bareRow + provider,
		"duplicate provider-less":       bareRow + bareRow,
		"provider-less with DoH column": meta + ",100,,,,,\n",
	}
	for shape, body := range cases {
		if _, err := ReadCSV(strings.NewReader(head+body), nil); err == nil {
			t.Errorf("%s accepted", shape)
		}
	}
	// A lone provider-less row is the valid Do53-only layout.
	ds, err := ReadCSV(strings.NewReader(head+bareRow), nil)
	if err != nil {
		t.Fatalf("valid provider-less row rejected: %v", err)
	}
	if len(ds.Clients) != 1 || ds.Clients[0].DoH.Len() != 0 || !ds.Clients[0].Do53Valid {
		t.Fatalf("provider-less row misparsed: %+v", ds.Clients)
	}
}

func TestCSVAnalysisEquivalence(t *testing.T) {
	// Analyses over the exported-and-reimported dataset must match
	// analyses over the original.
	ds, err := Run(smallConfig("BR", "IT", "ZA", "TH"))
	if err != nil {
		t.Fatal(err)
	}
	var main, atlas bytes.Buffer
	if err := ds.WriteCSV(&main); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteAtlasCSV(&atlas); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&main, &atlas)
	if err != nil {
		t.Fatal(err)
	}
	origMed, ok1 := ds.CountryDo53Ms("BR")
	gotMed, ok2 := got.CountryDo53Ms("BR")
	if !ok1 || !ok2 || abs(origMed-gotMed) > 0.01 {
		t.Errorf("BR Do53 median: %f vs %f", origMed, gotMed)
	}
	if len(ds.AnalyzedCountries(3, nil)) != len(got.AnalyzedCountries(3, nil)) {
		t.Error("analyzed country sets differ after round trip")
	}
}

// A provider outside the catalogue is refused by both readers, with its
// line: WriteCSV and WriteSmartCSV write the catalogue's providers only,
// so a row for any other would import and then vanish on the next export.
func TestReadersRejectUnknownProvider(t *testing.T) {
	head := strings.Join(csvHeader, ",") + "\n"
	good := "c1,BR,10.0.0.0/24,0,0,0,1,true,cloudflare,1,1,p,BR,1,1\n"
	foo := "c1,BR,10.0.0.0/24,0,0,0,1,true,foo,1,1,p,BR,1,1\n"
	if _, err := ReadCSV(strings.NewReader(head+good+foo), nil); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("ReadCSV of a row for provider foo: err = %v, want one naming line 3", err)
	}

	ds, err := ReadCSV(strings.NewReader(head+good), nil)
	if err != nil {
		t.Fatal(err)
	}
	smart := strings.Join(smartCSVHeader, ",") + "\n" +
		"c1,cloudflare,doh,12.5,3.25\n" +
		"c1,foo,doh,12.5,3.25\n"
	if err := ds.ReadSmartCSV(strings.NewReader(smart)); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("ReadSmartCSV of a row for provider foo: err = %v, want one naming line 3", err)
	}
}

// ReadCSV holds every number column to what the campaign can produce: a
// position on the globe, and times and distances that are finite and
// not negative. NaN and the infinities parse as floats, so each must be
// refused by the range, not the parser.
func TestReadCSVRejectsInvalidNumbers(t *testing.T) {
	head := strings.Join(csvHeader, ",") + "\n"
	good := []string{"c1", "BR", "10.0.0.0/24", "-10.5", "-52.25", "6800.5", "142.25", "true",
		"cloudflare", "210.125", "95.5", "p", "BR", "850.25", "850.25"}
	if _, err := ReadCSV(strings.NewReader(head+strings.Join(good, ",")+"\n"), nil); err != nil {
		t.Fatalf("the valid row: %v", err)
	}
	for _, c := range []struct{ col, val string }{
		{"lat", "NaN"},
		{"lat", "90.5"},
		{"lat", "-Inf"},
		{"lon", "-180.5"},
		{"lon", "NaN"},
		{"ns_distance_km", "-1"},
		{"ns_distance_km", "+Inf"},
		{"do53_ms", "NaN"},
		{"do53_ms", "-0.5"},
		{"tdoh_ms", "-1"},
		{"tdoh_ms", "Inf"},
		{"tdohr_ms", "NaN"},
		{"tdohr_ms", "-2"},
		{"pop_distance_km", "-3"},
		{"pop_distance_km", "NaN"},
		{"nearest_pop_km", "+Inf"},
	} {
		row := slices.Clone(good)
		row[slices.Index(csvHeader, c.col)] = c.val
		_, err := ReadCSV(strings.NewReader(head+strings.Join(row, ",")+"\n"), nil)
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), c.col) {
			t.Errorf("%s = %s: err = %v, want one naming line 2 and the column", c.col, c.val, err)
		}
	}
}
