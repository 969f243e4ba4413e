package campaign

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/anycast"
	"repro/internal/dnswire"
	"repro/internal/geo"
	"repro/internal/resolver"
)

// The paper releases its measurement dataset; this file provides the
// same facility: a flat CSV with one row per (client, provider)
// measurement plus the client's Do53 value, and a side table with the
// Atlas Do53 medians for the 11 Super-Proxy countries. ReadCSV
// reconstructs a Dataset, so analyses can run on published data
// without re-running a campaign.
//
// A client whose DoH measurements are all invalid but whose Do53
// baseline is valid exports as a single provider-less row (empty
// provider and DoH columns): dropping such clients — the pre-fix
// behavior — silently shrank the Do53 baseline on every round-trip,
// an error a sharded export/merge pipeline would amplify once per
// shard. ReadCSV also cross-checks that repeated rows for one client
// carry identical metadata instead of silently keeping the first,
// so a corrupt merge fails loudly at import.

// csvHeader is the column layout of the main export.
var csvHeader = []string{
	"client_id", "country", "prefix24", "lat", "lon", "ns_distance_km",
	"do53_ms", "do53_valid",
	"provider", "tdoh_ms", "tdohr_ms",
	"pop_id", "pop_country", "pop_distance_km", "nearest_pop_km",
}

// clientMetaCols are the column indices (and count) of the per-client
// metadata every row repeats; ReadCSV requires repeated rows to agree
// on all of them.
const clientMetaCols = 8

// formatFloats renders up to four values as the export's fixed
// four-decimal fields. The fields are slices of one string built in buf
// and cut from chunks — they are dead once the row is written — so rows
// cost an allocation per chunk, not one each; buf is returned for the
// next row.
func formatFloats(buf []byte, chunks *dnswire.StringChunks, fields *[4]string, vals ...float64) []byte {
	var ends [4]int
	buf = buf[:0]
	for i, v := range vals {
		buf = strconv.AppendFloat(buf, v, 'f', 4, 64)
		ends[i] = len(buf)
	}
	s := chunks.Cut(buf)
	start := 0
	for i := range vals {
		fields[i] = s[start:ends[i]]
		start = ends[i]
	}
	return buf
}

// WriteCSV writes one row per (client, provider) measurement, plus one
// provider-less row for each client with a valid Do53 baseline but no
// valid DoH result, so the Do53 sample survives the round-trip.
func (ds *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	var (
		buf    []byte
		chunks dnswire.StringChunks
		f      [4]string
		row    = make([]string, len(csvHeader))

		providers = anycast.ProviderIDs()
	)
	for i := range ds.Clients {
		c := &ds.Clients[i]
		// The metadata columns are filled once per client; the provider
		// rows below overwrite only the columns after them.
		buf = formatFloats(buf, &chunks, &f, c.Pos.Lat, c.Pos.Lon, c.NSDistanceKm, c.Do53Ms)
		row[0], row[1], row[2] = c.ClientID, c.CountryCode, c.Prefix
		row[3], row[4], row[5], row[6] = f[0], f[1], f[2], f[3]
		row[7] = strconv.FormatBool(c.Do53Valid)
		wrote := false
		for _, pid := range providers {
			res, ok := c.DoH.Get(pid)
			if !ok || !res.Valid {
				continue
			}
			buf = formatFloats(buf, &chunks, &f, res.TDoHMs, res.TDoHRMs, res.PoPDistanceKm, res.NearestPoPDistanceKm)
			row[8], row[9], row[10] = string(pid), f[0], f[1]
			row[11], row[12], row[13], row[14] = res.PoPID, res.PoPCountry, f[2], f[3]
			if err := cw.Write(row); err != nil {
				return err
			}
			wrote = true
		}
		if !wrote && c.Do53Valid {
			for i := clientMetaCols; i < len(row); i++ {
				row[i] = ""
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAtlasCSV writes the Super-Proxy-country Do53 medians.
func (ds *Dataset) WriteAtlasCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"country", "do53_median_ms"}); err != nil {
		return err
	}
	// Deterministic order.
	var codes []string
	for code := range ds.AtlasDo53Ms {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		if err := cw.Write([]string{code, strconv.FormatFloat(ds.AtlasDo53Ms[code], 'f', 4, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// smartCSVHeader is the column layout of the smart-strategy side
// table. The main export's csvHeader is pinned (published datasets
// must keep importing byte-identically), so the derived fifth strategy
// column ships as its own table, like the Atlas medians do.
var smartCSVHeader = []string{"client_id", "provider", "winner", "tsmart_ms", "tsmartr_ms"}

// WriteSmartCSV writes the derived smart-strategy side table: one row
// per (client, provider) with a valid smart result, in the dataset's
// client order and the canonical provider order — deterministic, so a
// merged sharded dataset exports byte-identically to an unsharded one.
func (ds *Dataset) WriteSmartCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(smartCSVHeader); err != nil {
		return err
	}
	var (
		buf    []byte
		chunks dnswire.StringChunks
		f      [4]string
		row    = make([]string, len(smartCSVHeader))

		providers = anycast.ProviderIDs()
	)
	for i := range ds.Clients {
		c := &ds.Clients[i]
		for _, pid := range providers {
			res, ok := c.Smart.Get(pid)
			if !ok || !res.Valid {
				continue
			}
			buf = formatFloats(buf, &chunks, &f, res.TSmartMs, res.TSmartRMs)
			row[0], row[1], row[2], row[3], row[4] = c.ClientID, string(pid), res.Winner, f[0], f[1]
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSmartCSV attaches a smart side table to a dataset previously
// loaded with ReadCSV: each row's result lands on its client, and the
// SmartWins accounting is recomputed from the winner column. Rows
// naming an unknown client or a provider outside the catalogue,
// repeating a (client, provider) pair, crediting a transport the race
// never launches or carrying an impossible time are corruption and
// fail loudly.
func (ds *Dataset) ReadSmartCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("campaign: reading smart CSV header: %w", err)
	}
	if len(header) != len(smartCSVHeader) {
		return fmt.Errorf("campaign: smart CSV has %d columns, want %d", len(header), len(smartCSVHeader))
	}
	for i, col := range smartCSVHeader {
		if header[i] != col {
			return fmt.Errorf("campaign: smart CSV column %d is %q, want %q", i, header[i], col)
		}
	}
	byID := make(map[string]int, len(ds.Clients))
	for i := range ds.Clients {
		byID[ds.Clients[i].ClientID] = i
	}
	lineNo := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		lineNo++
		if err != nil {
			return fmt.Errorf("campaign: smart CSV line %d: %w", lineNo, err)
		}
		idx, ok := byID[row[0]]
		if !ok {
			return fmt.Errorf("campaign: smart CSV line %d: unknown client %s", lineNo, row[0])
		}
		pid := anycast.ProviderID(row[1])
		if !anycast.Known(pid) {
			return fmt.Errorf("campaign: smart CSV line %d: unknown provider %q", lineNo, row[1])
		}
		c := &ds.Clients[idx]
		if _, dup := c.Smart.Get(pid); dup {
			return fmt.Errorf("campaign: smart CSV line %d: duplicate provider %s for client %s", lineNo, pid, row[0])
		}
		winner := resolver.Kind(row[2])
		if !smartCandidate(winner) {
			return fmt.Errorf("campaign: smart CSV line %d: winner %q is not a transport the race launches", lineNo, row[2])
		}
		tsmart, err1 := strconv.ParseFloat(row[3], 64)
		tsmartr, err2 := strconv.ParseFloat(row[4], 64)
		if err := firstErr(err1, err2); err != nil {
			return fmt.Errorf("campaign: smart CSV line %d: %w", lineNo, err)
		}
		// NaN fails both comparisons.
		if !(tsmart >= 0 && tsmartr >= 0) || math.IsInf(tsmart, 1) || math.IsInf(tsmartr, 1) {
			return fmt.Errorf("campaign: smart CSV line %d: times %s, %s ms are not finite and non-negative", lineNo, row[3], row[4])
		}
		c.Smart.Set(pid, SmartResult{TSmartMs: tsmart, TSmartRMs: tsmartr, Winner: row[2], Valid: true})
		if ds.SmartWins == nil {
			ds.SmartWins = make(map[resolver.Kind]int)
		}
		ds.SmartWins[winner]++
	}
	return nil
}

// ReadCSV reconstructs a dataset from the main export and an optional
// Atlas export (nil allowed). It reads both current exports (which may
// contain provider-less rows for Do53-only clients) and older ones
// (which never do), and rejects the corruption a bad shard merge
// introduces: repeated client rows with mismatching metadata, a
// provider measured twice for one client, or a provider-less row
// coexisting with provider rows. A provider outside the catalogue (which
// WriteCSV would never write back), a position off the globe, and a
// time or distance that is negative, infinite or NaN are rejected too,
// each with its line number.
func ReadCSV(main io.Reader, atlas io.Reader) (*Dataset, error) {
	cr := csv.NewReader(main)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("campaign: reading CSV header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("campaign: CSV has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, fmt.Errorf("campaign: CSV column %d is %q, want %q", i, header[i], col)
		}
	}
	ds := &Dataset{AtlasDo53Ms: make(map[string]float64)}
	byID := map[string]int{}      // client id -> index in ds.Clients
	meta := map[string][]string{} // client id -> first-seen metadata columns
	bare := map[string]bool{}     // client id -> had a provider-less row
	lineNo := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		lineNo++
		if err != nil {
			return nil, fmt.Errorf("campaign: CSV line %d: %w", lineNo, err)
		}
		idx, ok := byID[row[0]]
		if !ok {
			lat, err1 := floatIn(row, 3, -90, 90)
			lon, err2 := floatIn(row, 4, -180, 180)
			nsDist, err3 := nonNegative(row, 5)
			do53, err4 := nonNegative(row, 6)
			valid, err5 := strconv.ParseBool(row[7])
			if err := firstErr(err1, err2, err3, err4, err5); err != nil {
				return nil, fmt.Errorf("campaign: CSV line %d: %w", lineNo, err)
			}
			ds.Clients = append(ds.Clients, ClientRecord{
				ClientID: row[0], CountryCode: row[1], Prefix: row[2],
				Pos:          geo.Point{Lat: lat, Lon: lon},
				NSDistanceKm: nsDist,
				Do53Ms:       do53, Do53Valid: valid,
			})
			idx = len(ds.Clients) - 1
			byID[row[0]] = idx
			meta[row[0]] = append([]string(nil), row[:clientMetaCols]...)
		} else {
			// Repeated client: every row must repeat the same metadata.
			// Silently keeping the first — the pre-fix behavior — would
			// let a corrupt merge (two shards disagreeing on a client's
			// geography or Do53 baseline) import without complaint.
			for i, v := range meta[row[0]] {
				if row[i] != v {
					return nil, fmt.Errorf("campaign: CSV line %d: client %s column %s is %q, earlier rows say %q",
						lineNo, row[0], csvHeader[i], row[i], v)
				}
			}
		}
		if row[8] == "" {
			// Provider-less row: a client with a valid Do53 baseline and
			// no valid DoH. All DoH columns must be empty, and the row
			// must be the client's only one.
			for i := 9; i < len(row); i++ {
				if row[i] != "" {
					return nil, fmt.Errorf("campaign: CSV line %d: provider-less row has non-empty column %s", lineNo, csvHeader[i])
				}
			}
			if bare[row[0]] {
				return nil, fmt.Errorf("campaign: CSV line %d: duplicate provider-less row for client %s", lineNo, row[0])
			}
			if ds.Clients[idx].DoH.Len() > 0 {
				return nil, fmt.Errorf("campaign: CSV line %d: provider-less row for client %s, which also has provider rows", lineNo, row[0])
			}
			bare[row[0]] = true
			continue
		}
		if bare[row[0]] {
			return nil, fmt.Errorf("campaign: CSV line %d: provider row for client %s after a provider-less row", lineNo, row[0])
		}
		pid := anycast.ProviderID(row[8])
		if !anycast.Known(pid) {
			return nil, fmt.Errorf("campaign: CSV line %d: unknown provider %q", lineNo, row[8])
		}
		if _, dup := ds.Clients[idx].DoH.Get(pid); dup {
			return nil, fmt.Errorf("campaign: CSV line %d: duplicate provider %s for client %s", lineNo, pid, row[0])
		}
		tdoh, err1 := nonNegative(row, 9)
		tdohr, err2 := nonNegative(row, 10)
		popDist, err3 := nonNegative(row, 13)
		nearest, err4 := nonNegative(row, 14)
		if err := firstErr(err1, err2, err3, err4); err != nil {
			return nil, fmt.Errorf("campaign: CSV line %d: %w", lineNo, err)
		}
		ds.Clients[idx].DoH.Set(pid, DoHResult{
			TDoHMs: tdoh, TDoHRMs: tdohr,
			PoPID: row[11], PoPCountry: row[12],
			PoPDistanceKm: popDist, NearestPoPDistanceKm: nearest,
			Valid: true,
		})
	}

	if atlas != nil {
		ar := csv.NewReader(atlas)
		if _, err := ar.Read(); err != nil && err != io.EOF {
			return nil, fmt.Errorf("campaign: reading Atlas CSV header: %w", err)
		}
		for {
			row, err := ar.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("campaign: Atlas CSV: %w", err)
			}
			if len(row) != 2 {
				return nil, fmt.Errorf("campaign: Atlas CSV row has %d columns", len(row))
			}
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				return nil, fmt.Errorf("campaign: Atlas CSV value %q: %w", row[1], err)
			}
			ds.AtlasDo53Ms[row[0]] = v
		}
	}
	ds.KeptClients = len(ds.Clients)
	return ds, nil
}

// floatIn parses column i of a main-table row as a number in [lo, hi].
// NaN fails both comparisons.
func floatIn(row []string, i int, lo, hi float64) (float64, error) {
	v, err := strconv.ParseFloat(row[i], 64)
	if err == nil && !(v >= lo && v <= hi) {
		err = fmt.Errorf("%s is %s, want a number in [%g, %g]", csvHeader[i], row[i], lo, hi)
	}
	return v, err
}

// nonNegative parses column i of a main-table row as a time or a
// distance: finite and not negative.
func nonNegative(row []string, i int) (float64, error) {
	v, err := strconv.ParseFloat(row[i], 64)
	if err == nil && !(v >= 0 && v <= math.MaxFloat64) {
		err = fmt.Errorf("%s is %s, want a finite number >= 0", csvHeader[i], row[i])
	}
	return v, err
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
