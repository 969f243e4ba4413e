package campaign

import (
	"strings"
	"testing"

	"repro/internal/anycast"
	"repro/internal/proxynet"
	"repro/internal/resolver"
)

func TestDefaultTransports(t *testing.T) {
	cfg := DefaultConfig(1)
	want := []resolver.Kind{resolver.Do53, resolver.DoH}
	if len(cfg.Transports) != len(want) {
		t.Fatalf("DefaultConfig transports = %v, want %v", cfg.Transports, want)
	}
	for i := range want {
		if cfg.Transports[i] != want[i] {
			t.Fatalf("DefaultConfig transports = %v, want %v", cfg.Transports, want)
		}
	}
}

func TestNormalizeTransports(t *testing.T) {
	tests := []struct {
		name    string
		in      []resolver.Kind
		want    []resolver.Kind
		wantErr string
	}{
		{name: "empty means default", in: nil, want: DefaultTransports()},
		{name: "dedupe preserves order", in: []resolver.Kind{resolver.DoH, resolver.Do53, resolver.DoH},
			want: []resolver.Kind{resolver.DoH, resolver.Do53}},
		{name: "all three", in: []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT},
			want: []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT}},
		{name: "full five", in: []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT, resolver.DoQ, resolver.Smart},
			want: []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT, resolver.DoQ, resolver.Smart}},
		{name: "unknown rejected", in: []resolver.Kind{"doq2"}, wantErr: "doq2"},
		{name: "smart needs encrypted", in: []resolver.Kind{resolver.Do53, resolver.Smart}, wantErr: "encrypted"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := normalizeTransports(tt.in)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestRunRejectsUnknownTransport(t *testing.T) {
	cfg := smallConfig("US")
	cfg.Transports = []resolver.Kind{"doq2"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown transport")
	}
}

func TestTransportStatsAccounted(t *testing.T) {
	cfg := smallConfig("BR", "US")
	cfg.Transports = []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT}
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Transports) != 3 {
		t.Fatalf("Transports has %d entries, want 3: %v", len(ds.Transports), ds.Transports)
	}
	for _, kind := range cfg.Transports {
		stats, ok := ds.Transports[kind]
		if !ok {
			t.Fatalf("no stats for %s", kind)
		}
		if stats.Queries == 0 {
			t.Errorf("%s: zero queries", kind)
		}
		if stats.Discards < 0 || stats.Discards > stats.Queries {
			t.Errorf("%s: discards %d out of range [0, %d]", kind, stats.Discards, stats.Queries)
		}
	}
	if ds.Transports[resolver.Do53].Blocked != 0 || ds.Transports[resolver.DoH].Blocked != 0 {
		t.Error("Do53/DoH must never be counted as blocked")
	}
	// DoT results must be populated when the transport is requested.
	var dotResults, blocked int
	for _, c := range ds.Clients {
		for _, pid := range anycast.ProviderIDs() {
			res, ok := c.Sessions[proxynet.DoT].Get(pid)
			if !ok {
				continue
			}
			dotResults++
			if res.Valid && (res.FirstMs <= 0 || res.ReusedMs <= 0) {
				t.Fatalf("client %s: valid DoT result with non-positive timings: %+v", c.ClientID, res)
			}
			if res.Blocked {
				blocked++
			}
		}
	}
	if dotResults == 0 {
		t.Fatal("no DoT results collected despite dot in Transports")
	}
	if got := ds.Transports[resolver.DoT].Blocked; got == 0 && blocked > 0 {
		t.Errorf("client records saw %d blocked DoT sessions but transport stats counted 0", blocked)
	}
}

func TestTransportStatsDeterministic(t *testing.T) {
	run := func() map[resolver.Kind]TransportStats {
		cfg := smallConfig("BR", "NG")
		cfg.Transports = []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT}
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds.Transports
	}
	a, b := run(), run()
	for _, kind := range resolver.Kinds() {
		if a[kind] != b[kind] {
			t.Errorf("%s stats differ across same-seed runs: %+v vs %+v", kind, a[kind], b[kind])
		}
	}
}

func TestTransportSubsetSkipsMeasurements(t *testing.T) {
	// BR, not US: Do53 is unmeasurable in the Super Proxy's own country.
	cfg := smallConfig("BR")
	cfg.Transports = []resolver.Kind{resolver.Do53}
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Transports[resolver.DoH]; ok {
		t.Error("DoH stats present though transport not requested")
	}
	for _, c := range ds.Clients {
		if !c.Do53Valid {
			t.Errorf("client %s: Do53 invalid in BR", c.ClientID)
		}
		if c.DoH.Len() != 0 {
			t.Errorf("client %s: DoH measured though not requested", c.ClientID)
		}
		if c.Sessions[proxynet.DoT].Len() != 0 {
			t.Errorf("client %s: DoT measured though not requested", c.ClientID)
		}
	}
}
