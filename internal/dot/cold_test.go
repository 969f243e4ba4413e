package dot

import (
	"context"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/tlsutil"
)

// TestColdDoTExchangeAllocBudget is TestColdExchangeAllocBudget's twin
// (internal/dohclient) for DoT: one query on a fresh TCP + TLS 1.3
// connection to a Server on tlsutil's certificate, client and server
// counted together.
func TestColdDoTExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	srv := testServer(t)
	c := &Client{Addr: srv.Addr(), TLSConfig: tlsutil.InsecureClientConfig()}
	defer c.Close()
	q := dnswire.NewQuery(0x4242, "cold.a.com.", dnswire.TypeA)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exchange := func() {
		resp, timing, err := c.Exchange(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if timing.Reused {
			t.Fatal("a cold exchange reused a connection")
		}
		dnswire.PutMessage(resp)
		c.Close()
	}
	exchange() // the answer is cached from here on; warm the pools
	// Measured: 839 (911 with the ECDSA P-256 leaf). The gate leaves 2 %.
	const budget = 855
	n := testing.AllocsPerRun(100, exchange)
	t.Logf("cold DoT exchange, client and server: %.1f allocs", n)
	if n > budget {
		t.Errorf("cold DoT exchange: %.1f allocs, budget %d", n, budget)
	}
}
