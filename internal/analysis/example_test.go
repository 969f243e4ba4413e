package analysis_test

import (
	"fmt"

	"repro/internal/analysis"
)

// ExampleRow_DoHNMs shows the connection-reuse amortization the paper's
// DoH10/DoH100 notation describes: the first query pays the
// handshakes, the rest ride the warm connection.
func ExampleRow_DoHNMs() {
	r := analysis.Row{
		DoH1Ms: 400, // first query
		DoHRMs: 250, // reused connection
	}
	fmt.Println(r.DoHNMs(10), "ms average over 10 queries")
	// Output: 265 ms average over 10 queries
}
