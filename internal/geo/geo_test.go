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
	cands := []Site{london.Site(), sydney.Site(), nairobi.Site()}
	idx, d := Nearest(newYork.Site(), cands)
	if idx != 0 {
		t.Errorf("Nearest = %d, want 0 (London)", idx)
	}
	if math.Abs(d-5570) > 60 {
		t.Errorf("distance = %.0f", d)
	}
	if idx, d := Nearest(newYork.Site(), nil); idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty candidates: %d, %f", idx, d)
	}
}

// haversineInline is DistanceKm as it was written before Site existed,
// both cosines taken inline: the reference the precomputed form must
// reproduce bit for bit.
func haversineInline(a, b Point) float64 {
	lat1, lon1 := radians(a.Lat), radians(a.Lon)
	lat2, lon2 := radians(b.Lat), radians(b.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Every distance the campaign exports and every PoP weight it samples
// from is a haversine, so the precomputed form must not move a single
// bit: over a grid that takes in both poles, both sides of the
// antimeridian, antipodal pairs and identical points, Site.DistanceKm
// and DistanceKm equal the inline formula by math.Float64bits.
func TestSiteDistanceBitIdentical(t *testing.T) {
	var pts []Point
	lats := []float64{-90, -89.9999, -66.5, -45, -23.4, -1e-9, 0, 1e-9, 12.3456, 45, 60.1, 89.9999, 90}
	lons := []float64{-180, -179.9999, -120.5, -90, -45.25, 0, 33.3, 90, 135.75, 179.9999, 180}
	for _, lat := range lats {
		for _, lon := range lons {
			pts = append(pts, Point{lat, lon})
		}
	}
	check := func(a, b Point) {
		t.Helper()
		want := math.Float64bits(haversineInline(a, b))
		if got := math.Float64bits(a.Site().DistanceKm(b.Site())); got != want {
			t.Fatalf("Site(%v).DistanceKm(%v) = %x, inline haversine %x", a, b, got, want)
		}
		if got := math.Float64bits(DistanceKm(a, b)); got != want {
			t.Fatalf("DistanceKm(%v, %v) = %x, inline haversine %x", a, b, got, want)
		}
	}
	for _, a := range pts {
		antipode := Point{-a.Lat, normalizeLon(a.Lon + 180)}
		check(a, a)
		check(a, antipode)
		check(antipode, a)
		for _, b := range pts {
			check(a, b)
		}
	}
	if d := DistanceKm(Point{0, 179.9999}, Point{0, -179.9999}); d > 0.1 {
		t.Errorf("across the antimeridian: %.4f km, want about 0.02", d)
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
