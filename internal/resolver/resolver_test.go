package resolver

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dnswire"
)

func TestParseKind(t *testing.T) {
	tests := []struct {
		in      string
		want    Kind
		wantErr bool
	}{
		{"do53", Do53, false},
		{"doh", DoH, false},
		{"dot", DoT, false},
		{"doq", DoQ, false},
		{"smart", Smart, false},
		{"DoH", DoH, false},
		{"  dot ", DoT, false},
		{"doq2", "", true},
		{"", "", true},
	}
	for _, tt := range tests {
		got, err := ParseKind(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseKind(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseKind(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Errorf("Kinds() returned invalid kind %q", k)
		}
	}
	if Kind("doq2").Valid() {
		t.Error("unknown kind reported valid")
	}
}

func TestTimingBreakdown(t *testing.T) {
	timing := Timing{
		DNSLookup:    1 * time.Millisecond,
		Connect:      2 * time.Millisecond,
		TLSHandshake: 3 * time.Millisecond,
		RoundTrip:    4 * time.Millisecond,
		Total:        10 * time.Millisecond,
	}
	b := timing.Breakdown()
	want := map[string]time.Duration{
		"dns_lookup":    1 * time.Millisecond,
		"connect":       2 * time.Millisecond,
		"tls_handshake": 3 * time.Millisecond,
		"round_trip":    4 * time.Millisecond,
		"total":         10 * time.Millisecond,
	}
	if len(b) != len(want) {
		t.Fatalf("Breakdown has %d keys, want %d", len(b), len(want))
	}
	for k, v := range want {
		if b[k] != v {
			t.Errorf("Breakdown[%q] = %v, want %v", k, b[k], v)
		}
	}
	if got := timing.AttemptCount(); got != 1 {
		t.Errorf("AttemptCount() = %d on a bare transport's timing, want 1", got)
	}
	timing.Attempts = 3
	if got := timing.AttemptCount(); got != 3 {
		t.Errorf("AttemptCount() = %d, want 3", got)
	}
}

func TestUpstreamAdapter(t *testing.T) {
	u := UpstreamAdapter{R: &stub{}}
	resp, err := u.Resolve(context.Background(), Query("u.a.com.", dnswire.TypeA))
	if err != nil || resp == nil {
		t.Fatalf("Resolve: %v", err)
	}
	if _, err := (UpstreamAdapter{R: &stub{errs: []error{errWire}}}).Resolve(
		context.Background(), Query("u.a.com.", dnswire.TypeA)); !errors.Is(err, errWire) {
		t.Fatalf("err = %v, want %v", err, errWire)
	}
}
