package campaign

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
)

// The release tables as encoding/csv's Writer rendered them, one
// []string per row and strconv per number: the oracle the in-place
// appenders are held to.

func oracleFloat(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

func oracleCSV(ds *Dataset) []byte {
	var out bytes.Buffer
	cw := csv.NewWriter(&out)
	cw.Write(csvHeader)
	for _, c := range ds.Clients {
		meta := []string{c.ClientID, c.CountryCode, c.Prefix, oracleFloat(c.Pos.Lat), oracleFloat(c.Pos.Lon),
			oracleFloat(c.NSDistanceKm), oracleFloat(c.Do53Ms), strconv.FormatBool(c.Do53Valid)}
		wrote := false
		for _, pid := range anycast.ProviderIDs() {
			res, ok := c.DoH.Get(pid)
			if !ok || !res.Valid {
				continue
			}
			cw.Write(append(slices.Clip(meta), string(pid), oracleFloat(res.TDoHMs), oracleFloat(res.TDoHRMs),
				res.PoPID, res.PoPCountry, oracleFloat(res.PoPDistanceKm), oracleFloat(res.NearestPoPDistanceKm)))
			wrote = true
		}
		if !wrote && c.Do53Valid {
			cw.Write(append(meta, make([]string, len(csvHeader)-clientMetaCols)...))
		}
	}
	cw.Flush()
	return out.Bytes()
}

func oracleAtlasCSV(ds *Dataset) []byte {
	var out bytes.Buffer
	cw := csv.NewWriter(&out)
	cw.Write([]string{"country", "do53_median_ms"})
	var codes []string
	for code := range ds.AtlasDo53Ms {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		cw.Write([]string{code, oracleFloat(ds.AtlasDo53Ms[code])})
	}
	cw.Flush()
	return out.Bytes()
}

func oracleSmartCSV(ds *Dataset) []byte {
	var out bytes.Buffer
	cw := csv.NewWriter(&out)
	cw.Write(smartCSVHeader)
	for _, c := range ds.Clients {
		for _, pid := range anycast.ProviderIDs() {
			if res, ok := c.Smart.Get(pid); ok && res.Valid {
				cw.Write([]string{c.ClientID, string(pid), res.Winner, oracleFloat(res.TSmartMs), oracleFloat(res.TSmartRMs)})
			}
		}
	}
	cw.Flush()
	return out.Bytes()
}

// hostileStrings are fields encoding/csv quotes, or nearly does: a
// comma, a quote, CR, LF, a leading Unicode space (space, tab, U+00A0,
// U+0085), `\.` alone, and their harmless neighbours.
var hostileStrings = []string{
	"", "plain", "a,b", `say "hi"`, `"`, "cr\rx", "lf\nx", "\r\n", " lead", "trail ", "in side",
	"\tlead", "\u00a0nbsp", "x\u00a0", "\u0085nel", `\.`, `\.x`, `x\.`, "é", "\x80bad",
}

// hostileFloats are numbers at strconv's edges: signed zeros, tiny
// negatives, ties, carries, subnormals, huge and non-finite values.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), -1e-9, 0.03125, 0.09375, 1.0 / 64, 9.99995, 99999.99995, -2.5e-5,
	5e-324, 1<<49 - 1, 1 << 49, -(1 << 52), math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	142.25, 6800.5, 0.00005, 0.00015,
}

// hostileDataset is a hand-built dataset of n clients whose strings and
// numbers cycle through the hostile tables: provider rows, provider-less
// Do53 rows, clients with no row at all, and smart rows.
func hostileDataset(n int) *Dataset {
	ds := &Dataset{AtlasDo53Ms: map[string]float64{}}
	str := func(i int) string { return hostileStrings[i%len(hostileStrings)] }
	num := func(i int) float64 { return hostileFloats[i%len(hostileFloats)] }
	for i, code := range hostileStrings {
		ds.AtlasDo53Ms[code] = num(i)
	}
	for i := 0; i < n; i++ {
		c := ClientRecord{
			ClientID: str(i), CountryCode: str(i + 1), Prefix: str(i + 2),
			Pos:          geo.Point{Lat: num(i), Lon: num(i + 1)},
			NSDistanceKm: num(i + 2), Do53Ms: num(i + 3), Do53Valid: i%3 != 0,
		}
		for j, pid := range anycast.ProviderIDs() {
			k := i + 7*j
			// Every fourth client has no valid DoH: a provider-less row
			// when its Do53 is valid, no row when it is not.
			c.DoH.Set(pid, DoHResult{
				TDoHMs: num(k), TDoHRMs: num(k + 1), PoPID: str(k), PoPCountry: str(k + 3),
				PoPDistanceKm: num(k + 2), NearestPoPDistanceKm: num(k + 3),
				Valid: i%4 != 0 && k%5 != 0,
			})
			c.Smart.Set(pid, SmartResult{TSmartMs: num(k + 4), TSmartRMs: num(k + 5), Winner: str(k + 5), Valid: k%3 != 0})
		}
		ds.Clients = append(ds.Clients, c)
	}
	return ds
}

// TestWriteCSVMatchesEncodingCSV holds the three in-place tables to
// encoding/csv's Writer, byte for byte, on hostile datasets: the
// largest spills the main and smart tables' buffers many times.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	for _, n := range []int{0, 1, 7, 400} {
		ds := hostileDataset(n)
		main, atlas, smart := exportTables(t, ds)
		for _, table := range []struct {
			name      string
			got, want []byte
		}{
			{"main", main, oracleCSV(ds)},
			{"atlas", atlas, oracleAtlasCSV(ds)},
			{"smart", smart, oracleSmartCSV(ds)},
		} {
			if !bytes.Equal(table.got, table.want) {
				i := 0
				for i < min(len(table.got), len(table.want)) && table.got[i] == table.want[i] {
					i++
				}
				t.Errorf("%d clients: %s table differs from encoding/csv's at byte %d of %d (want %d):\ngot  %q\nwant %q",
					n, table.name, i, len(table.got), len(table.want),
					table.got[max(i-40, 0):min(i+40, len(table.got))], table.want[max(i-40, 0):min(i+40, len(table.want))])
			}
		}
	}
}

// TestExportAllocsIndependentOfClients holds each table's export to at
// most two allocations whatever its size: the benchmark's stripe and
// that stripe three times over allocate the same count.
func TestExportAllocsIndependentOfClients(t *testing.T) {
	one, err := Run(stripeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	three := &Dataset{
		Clients:     slices.Concat(one.Clients, one.Clients, one.Clients),
		AtlasDo53Ms: one.AtlasDo53Ms,
	}
	for _, table := range []struct {
		name  string
		write func(*Dataset, io.Writer) error
	}{
		{"main", (*Dataset).WriteCSV},
		{"atlas", (*Dataset).WriteAtlasCSV},
		{"smart", (*Dataset).WriteSmartCSV},
	} {
		allocs := func(ds *Dataset) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := table.write(ds, io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		a1, a3 := allocs(one), allocs(three)
		t.Logf("%s table: %.0f allocations for %d clients, %.0f for %d", table.name, a1, len(one.Clients), a3, len(three.Clients))
		if a1 != a3 || a3 > 2 {
			t.Errorf("%s table allocates %.0f times for %d clients and %.0f for %d, want the same count and at most 2",
				table.name, a1, len(one.Clients), a3, len(three.Clients))
		}
	}
}
