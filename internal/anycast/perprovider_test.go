package anycast

import (
	"encoding/json"
	"testing"
)

type result struct {
	Ms    float64
	PoP   string
	Valid bool
}

// The table answers like the map it replaces: Get reports presence, Len
// counts the providers set, All walks them in catalogue order and stops
// when told to.
func TestPerProviderTable(t *testing.T) {
	var tab PerProvider[result]
	if _, ok := tab.Get(Google); ok || tab.Len() != 0 {
		t.Fatal("the zero table is not empty")
	}
	tab.Set(Quad9, result{Ms: 3})
	tab.Set(Google, result{Ms: 1})
	tab.Set(Quad9, result{Ms: 4})
	if got, ok := tab.Get(Quad9); !ok || got.Ms != 4 {
		t.Errorf("Get(Quad9) = %+v, %v; want the second Set", got, ok)
	}
	if _, ok := tab.Get(Cloudflare); ok {
		t.Error("Get reports a provider never set")
	}
	if _, ok := tab.Get("foo"); ok {
		t.Error("Get reports a provider outside the catalogue")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	var order []ProviderID
	tab.All()(func(pid ProviderID, _ result) bool {
		order = append(order, pid)
		return true
	})
	if len(order) != 2 || order[0] != Google || order[1] != Quad9 {
		t.Errorf("All walks %v, want [google quad9]", order)
	}
	calls := 0
	tab.All()(func(ProviderID, result) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("All called yield %d times after it returned false, want 1", calls)
	}
	cp := tab
	cp.Set(Cloudflare, result{Ms: 9})
	if _, ok := tab.Get(Cloudflare); ok {
		t.Error("a copy of the table shares storage with the original")
	}
	defer func() {
		if recover() == nil {
			t.Error("Set on a provider outside the catalogue did not panic")
		}
	}()
	tab.Set("foo", result{})
}

// The table's JSON is the map's, byte for byte (an empty table is the
// nil map's null), and it decodes what the map encoded, {} included.
func TestPerProviderJSONIsTheMaps(t *testing.T) {
	m := map[ProviderID]result{
		Quad9:      {Ms: 1.5, PoP: "q9-<iad>", Valid: true},
		Cloudflare: {Ms: 0.25, PoP: "cf-gru"},
		NextDNS:    {},
		Google:     {Ms: 2, Valid: true},
	}
	var tab PerProvider[result]
	for pid, v := range m {
		tab.Set(pid, v)
	}
	for _, c := range []struct {
		name  string
		table any
		m     any
	}{
		{"full", struct{ T PerProvider[result] }{tab}, struct{ T map[ProviderID]result }{m}},
		{"empty", struct{ T PerProvider[result] }{}, struct{ T map[ProviderID]result }{}},
	} {
		got, err := json.Marshal(c.table)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: table encodes to %s, the map to %s", c.name, got, want)
		}
	}

	for _, enc := range []string{`null`, `{}`} {
		back := tab
		if err := json.Unmarshal([]byte(enc), &back); err != nil || back.Len() != 0 {
			t.Errorf("decoding %s: %v, %d providers left", enc, err, back.Len())
		}
	}
	enc, _ := json.Marshal(tab)
	var back PerProvider[result]
	if err := json.Unmarshal(enc, &back); err != nil || back != tab {
		t.Errorf("round trip: %v, %+v", err, back)
	}
	if err := json.Unmarshal([]byte(`{"foo":{}}`), &back); err == nil {
		t.Error("a provider outside the catalogue decoded")
	}
}
