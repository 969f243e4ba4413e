package geo

import (
	"math"
	"testing"
	"testing/quick"
)

var (
	newYork  = Point{40.7128, -74.0060}
	london   = Point{51.5074, -0.1278}
	sydney   = Point{-33.8688, 151.2093}
	nairobi  = Point{-1.2921, 36.8219}
	saoPaulo = Point{-23.5505, -46.6333}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b Point
		km   float64
		tol  float64
	}{
		{newYork, london, 5570, 60},
		{london, sydney, 16994, 170},
		{nairobi, saoPaulo, 9280, 150},
		{newYork, newYork, 0, 0.001},
	}
	for _, tc := range cases {
		got := DistanceKm(tc.a, tc.b)
		if math.Abs(got-tc.km) > tc.tol {
			t.Errorf("DistanceKm(%v, %v) = %.0f, want %.0f ± %.0f", tc.a, tc.b, got, tc.km, tc.tol)
		}
	}
}

// TestDistanceMilesConversion holds KmPerMile, the constant the analysis
// layer divides by, to a known distance: New York to London is about
// 3,460 statute miles.
func TestDistanceMilesConversion(t *testing.T) {
	if mi := DistanceKm(newYork, london) / KmPerMile; math.Abs(mi-3460) > 40 {
		t.Errorf("New York to London = %.0f miles, want 3460 ± 40", mi)
	}
}

func TestDistanceProperties(t *testing.T) {
	clamp := func(x float64, lo, hi float64) float64 {
		return lo + math.Mod(math.Abs(x), hi-lo)
	}
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clamp(lat1, -90, 90), clamp(lon1, -180, 180)}
		b := Point{clamp(lat2, -90, 90), clamp(lon2, -180, 180)}
		dAB := DistanceKm(a, b)
		dBA := DistanceKm(b, a)
		// Symmetry, non-negativity, and half-circumference bound.
		return dAB >= 0 && math.Abs(dAB-dBA) < 1e-6 && dAB <= math.Pi*EarthRadiusKm+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestNearest(t *testing.T) {
	cands := []Point{london, sydney, nairobi}
	idx, d := Nearest(newYork, cands)
	if idx != 0 {
		t.Errorf("Nearest = %d, want 0 (London)", idx)
	}
	if math.Abs(d-5570) > 60 {
		t.Errorf("distance = %.0f", d)
	}
	if idx, d := Nearest(newYork, nil); idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty candidates: %d, %f", idx, d)
	}
}

func TestJitterStaysWithinRadius(t *testing.T) {
	f := func(u, v float64) bool {
		u = math.Mod(math.Abs(u), 1)
		v = math.Mod(math.Abs(v), 1)
		p := Jitter(nairobi, 200, u, v)
		return p.Valid() && DistanceKm(nairobi, p) <= 201
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestJitterZeroDeviates(t *testing.T) {
	p := Jitter(london, 100, 0, 0)
	if DistanceKm(london, p) > 0.001 {
		t.Errorf("zero deviates moved the point by %.3f km", DistanceKm(london, p))
	}
}

func TestPointValid(t *testing.T) {
	for _, p := range []Point{{91, 0}, {0, 181}, {-91, 0}, {0, -181}, {math.NaN(), 0}} {
		if p.Valid() {
			t.Errorf("%v reported valid", p)
		}
	}
	if !(Point{0, 0}).Valid() || !london.Valid() {
		t.Error("valid point reported invalid")
	}
}

func TestAntipodalDistance(t *testing.T) {
	a := Point{0, 0}
	b := Point{0, 180}
	d := DistanceKm(a, b)
	half := math.Pi * EarthRadiusKm
	if math.Abs(d-half) > 1 {
		t.Errorf("antipodal distance = %.1f, want %.1f", d, half)
	}
	// North to South pole.
	d2 := DistanceKm(Point{90, 0}, Point{-90, 0})
	if math.Abs(d2-half) > 1 {
		t.Errorf("pole-to-pole = %.1f, want %.1f", d2, half)
	}
}
