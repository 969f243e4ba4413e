package campaign

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/resolver"
	"repro/internal/world"
)

// fuzzColumns are the strategy columns FuzzCSVRoundTrip's mask turns
// on, bit i for fuzzColumns[i]. DoH is always measured: the main table
// is its export, and the smart table finds its clients there.
var fuzzColumns = []resolver.Kind{resolver.Do53, resolver.DoT, resolver.DoQ, resolver.Smart}

// exportTables writes ds's main, Atlas and smart tables.
func exportTables(t *testing.T, ds *Dataset) (main, atlas, smart []byte) {
	t.Helper()
	var m, a, s bytes.Buffer
	if err := ds.WriteCSV(&m); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteAtlasCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSmartCSV(&s); err != nil {
		t.Fatal(err)
	}
	return m.Bytes(), a.Bytes(), s.Bytes()
}

// FuzzCSVRoundTrip holds the release format to its properties on
// campaigns the fuzzer shapes — a seed, one to three countries (count
// picks how many of a, b, c index the world's list) and a set of
// strategy columns: an export read back exports the same bytes, the
// main table through ReadCSV and the smart table through ReadSmartCSV
// on top of it, and the campaign run as two shards on one journal and
// recombined by a run over it exports what the unsharded run exports.
func FuzzCSVRoundTrip(f *testing.F) {
	var codes []string
	for _, ct := range world.All() {
		codes = append(codes, ct.Code)
	}
	f.Fuzz(func(t *testing.T, seed int64, count, a, b, c, mask uint8) {
		var countries []string
		for _, i := range []uint8{a, b, c}[:1+int(count)%3] {
			if code := codes[int(i)%len(codes)]; !slices.Contains(countries, code) {
				countries = append(countries, code)
			}
		}
		cfg := DefaultConfig(seed)
		cfg.Countries = countries
		cfg.ClientScale = 0.02 // at most 5 clients a country
		cfg.Transports = []resolver.Kind{resolver.DoH}
		for i, kind := range fuzzColumns {
			if mask>>i&1 == 1 {
				cfg.Transports = append(cfg.Transports, kind)
			}
		}
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		main, atlas, smart := exportTables(t, ds)

		back, err := ReadCSV(bytes.NewReader(main), bytes.NewReader(atlas))
		if err != nil {
			t.Fatalf("%v %v: ReadCSV of its own export: %v", countries, cfg.Transports, err)
		}
		if err := back.ReadSmartCSV(bytes.NewReader(smart)); err != nil {
			t.Fatalf("%v %v: ReadSmartCSV of its own export: %v", countries, cfg.Transports, err)
		}
		main2, atlas2, smart2 := exportTables(t, back)
		if !bytes.Equal(main2, main) || !bytes.Equal(atlas2, atlas) {
			t.Errorf("%v %v: WriteCSV(ReadCSV(WriteCSV(ds))) differs from WriteCSV(ds)", countries, cfg.Transports)
		}
		if !bytes.Equal(smart2, smart) {
			t.Errorf("%v %v: the smart table differs after a round trip", countries, cfg.Transports)
		}

		joined := recombine(t, cfg, 2, false)
		mmain, matlas, msmart := exportTables(t, joined)
		if !bytes.Equal(mmain, main) || !bytes.Equal(matlas, atlas) || !bytes.Equal(msmart, smart) {
			t.Errorf("%v %v: the recombined 2-way shard exports differently from the unsharded run", countries, cfg.Transports)
		}
	})
}
