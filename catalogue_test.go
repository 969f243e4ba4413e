package repro

import (
	"context"
	"crypto/tls"
	"fmt"
	"net/netip"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/authserver"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/proxynet"
	"repro/internal/resolver"
	"repro/internal/serve"
	"repro/internal/smart"
	"repro/internal/tlsutil"
)

// TestMetricCatalogue holds docs/observability.md's name table to the
// names the code registers, both ways. It files every live component in
// one registry — the serve engine as a DoT front over a policy stack
// with a registry, a breaker and an instrumented cache, a smart racer
// over that front and an authoritative server, a DoH handler under
// cmd/dohsrv's prefix, a RealProxy — resolves a
// few queries through them, and adds the names a small chaotic
// campaign publishes, the ones cmd/dohsrv's source
// files (package main, so read as text) and every name an accounting
// identity reads, which a misspelling would read as 0. Every such name
// must match a row of the table, and every name the table lists must be
// among them.
// In the table, <kind>, <provider>, <code> and <n> stand for a
// transport, a provider slug, a country code and a listener index.
func TestMetricCatalogue(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()

	zone := authserver.NewZone("a.com.")
	if err := zone.SetSOA("ns1.a.com.", "hostmaster.a.com.", 1); err != nil {
		t.Fatal(err)
	}
	if err := zone.Add(dnswire.ResourceRecord{
		Name: "*.a.com.", TTL: 60, Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")},
	}); err != nil {
		t.Fatal(err)
	}
	auth := authserver.NewServer(zone)
	if err := auth.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer auth.Shutdown(context.Background())

	answers := cache.New(cache.Config{})
	answers.Instrument(reg, "cache")
	policy := &resolver.Metrics{}
	stack := resolver.WithCache(resolver.Apply(resolver.NewDo53(auth.Addr(), nil), resolver.Policy{
		Kind: resolver.Do53, Registry: reg, Metrics: policy, Breaker: &resolver.BreakerPolicy{},
	}), answers, reg, resolver.Do53)
	tlsCfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	front := dot.NewServer(resolver.UpstreamAdapter{R: stack}, tlsCfg)
	front.Registry = reg
	if err := front.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer front.Shutdown(context.Background())

	racer, err := smart.New(smart.Config{Registry: reg, Candidates: []smart.Candidate{
		{Kind: resolver.DoT, Resolver: resolver.NewDoT(&dot.Client{
			Addr: front.Addr(), TLSConfig: &tls.Config{InsecureSkipVerify: true},
		})},
		{Kind: resolver.Do53, Resolver: resolver.NewDo53(auth.Addr(), nil)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer racer.Close()
	dohserver.NewHandler(nil).Instrument(reg, "dohsrv") // as cmd/dohsrv files it
	proxy := &proxynet.RealProxy{Obs: reg}
	if err := proxy.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	for i := 0; i < 4; i++ {
		name := dnswire.Name(fmt.Sprintf("q%d.a.com.", i%2))
		if _, _, err := racer.Resolve(ctx, resolver.Query(name, dnswire.TypeA)); err != nil {
			t.Fatalf("resolve %s: %v", name, err)
		}
		if _, _, err := stack.Resolve(ctx, resolver.Query(name, dnswire.TypeA)); err != nil {
			t.Fatalf("resolve %s through the stack: %v", name, err)
		}
	}
	resolver.PublishPolicyMetrics(reg, resolver.Do53, policy)

	cfg := campaign.DefaultConfig(2021)
	cfg.Countries, cfg.ClientScale = []string{"BR"}, 0.2
	cfg.Transports = []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT, resolver.DoQ, resolver.Smart}
	cfg.Chaos = proxynet.Chaos{ConnResetProb: 0.05}
	ds, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	names := map[string]bool{}
	for _, snap := range []obs.Snapshot{reg.Snapshot(), ds.Obs} {
		for _, c := range snap.Counters {
			names[c.Name] = true
		}
		for _, g := range snap.Gauges {
			names[g.Name] = true
		}
		for _, h := range snap.Histograms {
			names[h.Name] = true
		}
	}
	src, err := os.ReadFile("cmd/dohsrv/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`"(dohsrv_[a-z_]+)"`).FindAllStringSubmatch(string(src), -1) {
		names[m[1]] = true
	}
	for _, id := range slices.Concat(serve.Identities, smart.Identities) {
		for _, name := range slices.Concat(id.Left, id.Right) {
			names[name] = true
		}
	}

	patterns := catalogue(t)
	used := map[string]bool{}
	var sorted []string
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		matched := false
		for p, re := range patterns {
			if re.MatchString(name) {
				matched, used[p] = true, true
			}
		}
		if !matched {
			t.Errorf("%s is registered or in an identity, but no row of docs/observability.md lists it", name)
		}
	}
	for p := range patterns {
		if !used[p] {
			t.Errorf("docs/observability.md lists %s, which nothing registered", p)
		}
	}
}

// catalogue reads the names column of docs/observability.md's metric
// table: every backquoted name, its {a,b} alternatives expanded, as an
// anchored pattern keyed by its expanded spelling.
func catalogue(t *testing.T) map[string]*regexp.Regexp {
	t.Helper()
	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	if i := strings.Index(section, "## Metric name catalogue"); i >= 0 {
		section = section[i:]
	}
	if i := strings.Index(section[1:], "\n## "); i >= 0 {
		section = section[:i+1]
	}
	placeholder := strings.NewReplacer(
		"<kind>", "[a-z0-9]+", "<provider>", "[a-z0-9]+", "<code>", "[A-Za-z]{2}", "<n>", "[0-9]+")
	token := regexp.MustCompile("`([a-z0-9_<>{},]+)`")
	patterns := map[string]*regexp.Regexp{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		for _, m := range token.FindAllStringSubmatch(cells[3], -1) {
			for _, name := range expand(m[1]) {
				patterns[name] = regexp.MustCompile("^" + placeholder.Replace(name) + "$")
			}
		}
	}
	if len(patterns) == 0 {
		t.Fatal("docs/observability.md: no metric table found")
	}
	return patterns
}

// expand spells out every {a,b} alternative in s.
func expand(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expand(s[:open]+alt+s[end+1:])...)
	}
	return out
}
