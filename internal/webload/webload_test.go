package webload

import (
	"math/rand"
	"strings"
	"testing"
)

func TestRunBasics(t *testing.T) {
	out, err := Run(DefaultConfig(1, "DE"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("outcomes = %d", len(out))
	}
	byProto := map[Protocol]Outcome{}
	for _, o := range out {
		byProto[o.Protocol] = o
		if o.MedianDNSMs <= 0 || o.MedianPageMs <= o.MedianDNSMs {
			t.Errorf("%s: dns=%f page=%f", o.Protocol, o.MedianDNSMs, o.MedianPageMs)
		}
		if o.DNSShare <= 0 || o.DNSShare >= 1 {
			t.Errorf("%s: share = %f", o.Protocol, o.DNSShare)
		}
		if !strings.Contains(o.String(), string(o.Protocol)) {
			t.Errorf("String() = %q", o.String())
		}
	}
	// Cold DoH pays the handshake; warm does not.
	if byProto[DoHCold].MedianDNSMs <= byProto[DoHWarm].MedianDNSMs {
		t.Errorf("cold DoH %.0f <= warm DoH %.0f",
			byProto[DoHCold].MedianDNSMs, byProto[DoHWarm].MedianDNSMs)
	}
}

func TestDNSIsSmallShareOfPageLoad(t *testing.T) {
	// The paper's related work (Hounsel et al.): DNS is a small part
	// of web loading on decent connections. In a well-connected
	// country the DNS share should stay under a third for every
	// protocol.
	out, err := Run(DefaultConfig(2, "SE"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if o.DNSShare > 0.34 {
			t.Errorf("%s: DNS share %.2f in Sweden, want < 0.34", o.Protocol, o.DNSShare)
		}
	}
}

func TestPoorConnectivityInflatesShare(t *testing.T) {
	se, err := Run(DefaultConfig(3, "SE"))
	if err != nil {
		t.Fatal(err)
	}
	td, err := Run(DefaultConfig(3, "TD"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range se {
		if td[i].MedianDNSMs <= se[i].MedianDNSMs {
			t.Errorf("%s: Chad DNS %.0f <= Sweden %.0f",
				se[i].Protocol, td[i].MedianDNSMs, se[i].MedianDNSMs)
		}
	}
}

func TestBadResolverCountryFavorsWarmDoH(t *testing.T) {
	// In a country with pathological default resolvers (Indonesia in
	// the paper), warm DoH should beat Do53 on page DNS time even
	// with cache hits in both paths.
	cfg := DefaultConfig(4, "ID")
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[Protocol]Outcome{}
	for _, o := range out {
		byProto[o.Protocol] = o
	}
	if byProto[DoHWarm].MedianDNSMs >= byProto[Do53].MedianDNSMs {
		t.Errorf("warm DoH %.0f >= Do53 %.0f in Indonesia",
			byProto[DoHWarm].MedianDNSMs, byProto[Do53].MedianDNSMs)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(DefaultConfig(5, "XX")); err == nil {
		t.Error("unknown country accepted")
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Run(DefaultConfig(6, "BR"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(6, "BR"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs", i)
		}
	}
}

func TestSplitWavesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 2*meanDomains; n++ {
		out := splitWaves(n, rng)
		if len(out) == 0 || len(out) > waves || out[0] != 1 {
			t.Fatalf("splitWaves(%d) = %v, want the primary domain first and at most %d waves", n, out, waves)
		}
		sum := 0
		for _, w := range out {
			if w < 1 {
				t.Fatalf("splitWaves(%d) = %v has an empty wave", n, out)
			}
			sum += w
		}
		if sum != n {
			t.Fatalf("splitWaves(%d) = %v sums to %d", n, out, sum)
		}
	}
}
