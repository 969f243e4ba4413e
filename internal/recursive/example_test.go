package recursive

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/authserver"
	"repro/internal/dnswire"
)

// ExampleIterative resolves one cache-busting name down the tree
// root → com → a.com, glue at each cut. On the plain walk every zone
// learns the full name; with MinimizeQNames (RFC 7816) each ancestor
// learns one more label only. Behind New's cache, as the paper's public
// resolvers run, the repeat never leaves the resolver.
func ExampleIterative() {
	h, err := newHierarchy()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer h.close()
	zones := []struct {
		name string
		srv  *authserver.Server
	}{{".", h.root}, {"com.", h.com}, {"a.com.", h.acom}}
	q := dnswire.NewQuery(1, "uuid-4f2a.a.com.", dnswire.TypeA)

	// resolve sends q through up and returns, per zone, the names that
	// zone was asked about meanwhile.
	resolve := func(up Upstream) [][]string {
		var before []int
		for _, z := range zones {
			before = append(before, len(z.srv.QueryLog()))
		}
		if _, err := up.Resolve(context.Background(), q); err != nil {
			fmt.Println(err)
			return nil
		}
		asked := make([][]string, len(zones))
		for i, z := range zones {
			for _, e := range z.srv.QueryLog()[before[i]:] {
				asked[i] = append(asked[i], string(e.Name))
			}
		}
		return asked
	}

	for _, walk := range []struct {
		title    string
		minimize bool
	}{{"plain walk", false}, {"with MinimizeQNames", true}} {
		it := h.iterative()
		it.MinimizeQNames = walk.minimize
		fmt.Println(walk.title + ":")
		for i, names := range resolve(it) {
			fmt.Printf("  %-6s saw %s\n", zones[i].name, strings.Join(names, " "))
		}
	}

	res := New(nil)
	res.SetDefault(h.iterative())
	for _, title := range []string{"first", "repeat"} {
		n := 0
		for _, names := range resolve(res) {
			n += len(names)
		}
		fmt.Printf("%s query through the cache: %d upstream queries\n", title, n)
	}
	st := res.Cache().Stats()
	fmt.Printf("cache: %d hit, %d miss\n", st.Hits, st.Misses)

	// Output:
	// plain walk:
	//   .      saw uuid-4f2a.a.com.
	//   com.   saw uuid-4f2a.a.com.
	//   a.com. saw uuid-4f2a.a.com.
	// with MinimizeQNames:
	//   .      saw com.
	//   com.   saw a.com.
	//   a.com. saw uuid-4f2a.a.com.
	// first query through the cache: 3 upstream queries
	// repeat query through the cache: 0 upstream queries
	// cache: 1 hit, 1 miss
}
