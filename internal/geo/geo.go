// Package geo provides the geodesic math used throughout the study:
// great-circle distances between clients, resolvers, PoPs, and the
// authoritative name server, plus nearest-point selection. The paper
// reports distances in miles; both units are exposed.
package geo

import (
	"fmt"
	"math"
)

// Earth radius constants.
const (
	EarthRadiusKm    = 6371.0
	KmPerMile        = 1.609344
	EarthRadiusMiles = EarthRadiusKm / KmPerMile
)

// Point is a latitude/longitude pair in degrees.
type Point struct {
	Lat float64
	Lon float64
}

// String formats the point for logs.
func (p Point) String() string { return fmt.Sprintf("(%.4f, %.4f)", p.Lat, p.Lon) }

// Valid reports whether the point is within coordinate bounds.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }

// Site is a Point in the form the haversine reads: latitude and
// longitude in radians and the cosine of the latitude. A position
// measured against many others (a PoP against every client, a client
// against every PoP) is converted once.
type Site struct {
	lat, lon, cosLat float64
}

// Site converts p for repeated distance computations.
func (p Point) Site() Site {
	lat := radians(p.Lat)
	return Site{lat: lat, lon: radians(p.Lon), cosLat: math.Cos(lat)}
}

// DistanceKm returns the great-circle (haversine) distance in
// kilometers between a and b; it is the one body of the formula, so it
// is bit-equal to the package-level DistanceKm of the two Points.
func (a Site) DistanceKm(b Site) float64 {
	dLat := b.lat - a.lat
	dLon := b.lon - a.lon
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + a.cosLat*b.cosLat*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// DistanceKm returns the great-circle (haversine) distance in
// kilometers between a and b.
func DistanceKm(a, b Point) float64 { return a.Site().DistanceKm(b.Site()) }

// Nearest returns the index of the site in candidates closest to from
// and the distance in km. It returns (-1, +Inf) for an empty slice.
func Nearest(from Site, candidates []Site) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, c := range candidates {
		if d := from.DistanceKm(c); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

func normalizeLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// Jitter displaces p by up to maxKm kilometers using the two unit
// deviates u, v in [0,1); used to scatter synthetic clients around a
// country's centroid.
func Jitter(p Point, maxKm float64, u, v float64) Point {
	// Random bearing and distance.
	bearing := 2 * math.Pi * u
	dist := maxKm * math.Sqrt(v) // area-uniform within the disc
	angDist := dist / EarthRadiusKm
	lat1 := radians(p.Lat)
	lon1 := radians(p.Lon)
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(angDist) +
		math.Cos(lat1)*math.Sin(angDist)*math.Cos(bearing))
	lon2 := lon1 + math.Atan2(math.Sin(bearing)*math.Sin(angDist)*math.Cos(lat1),
		math.Cos(angDist)-math.Sin(lat1)*math.Sin(lat2))
	out := Point{Lat: lat2 * 180 / math.Pi, Lon: normalizeLon(lon2 * 180 / math.Pi)}
	if out.Lat > 90 {
		out.Lat = 90
	}
	if out.Lat < -90 {
		out.Lat = -90
	}
	return out
}
