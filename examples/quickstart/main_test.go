package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end: both unique names are
// answered by the wildcard, the first query pays the handshakes and the
// second rides the reused connection, and both reached the
// authoritative server.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"query 1 uuid-cold.a.com. -> DoH1 (cold",
		"  uuid-cold.a.com. 60 IN A 198.51.100.80\n",
		"query 2 uuid-warm.a.com. -> DoHR (warm",
		"  uuid-warm.a.com. 60 IN A 198.51.100.80\n",
		"authoritative server saw 2 queries",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}
