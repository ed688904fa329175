// Package geo provides the spatial substrate for context-aware ad targeting:
// geographic points, great-circle distance, bounding boxes and a uniform grid
// index. All coordinates are WGS-84 degrees.
package geo

import (
	"errors"
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used by Haversine distance.
const EarthRadiusKm = 6371.0088

// Point is a geographic coordinate in degrees.
type Point struct {
	Lat float64 // latitude in [-90, 90]
	Lng float64 // longitude in [-180, 180]
}

// ErrInvalidCoordinate reports a latitude or longitude outside its legal range.
var ErrInvalidCoordinate = errors.New("geo: coordinate out of range")

// Validate returns ErrInvalidCoordinate if p lies outside the legal
// latitude/longitude ranges or contains NaN/Inf.
func (p Point) Validate() error {
	if math.IsNaN(p.Lat) || math.IsNaN(p.Lng) || math.IsInf(p.Lat, 0) || math.IsInf(p.Lng, 0) {
		return fmt.Errorf("%w: non-finite (%v, %v)", ErrInvalidCoordinate, p.Lat, p.Lng)
	}
	if p.Lat < -90 || p.Lat > 90 {
		return fmt.Errorf("%w: latitude %v", ErrInvalidCoordinate, p.Lat)
	}
	if p.Lng < -180 || p.Lng > 180 {
		return fmt.Errorf("%w: longitude %v", ErrInvalidCoordinate, p.Lng)
	}
	return nil
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.5f, %.5f)", p.Lat, p.Lng)
}

// DistanceKm returns the Haversine great-circle distance to q in kilometres.
func (p Point) DistanceKm(q Point) float64 {
	lat1 := p.Lat * math.Pi / 180
	lat2 := q.Lat * math.Pi / 180
	dLat := (q.Lat - p.Lat) * math.Pi / 180
	dLng := (q.Lng - p.Lng) * math.Pi / 180

	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLng*sinLng
	// Clamp to guard against floating-point drift slightly above 1.
	if a > 1 {
		a = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(a))
}

// Rect is an axis-aligned bounding box in degrees. A Rect never wraps the
// antimeridian; callers needing wrap-around split their query into two rects.
type Rect struct {
	MinLat, MinLng float64
	MaxLat, MaxLng float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinLat: math.Min(a.Lat, b.Lat),
		MinLng: math.Min(a.Lng, b.Lng),
		MaxLat: math.Max(a.Lat, b.Lat),
		MaxLng: math.Max(a.Lng, b.Lng),
	}
}

// Contains reports whether p lies inside r (inclusive bounds).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lng >= r.MinLng && p.Lng <= r.MaxLng
}

// Intersects reports whether r and s share any area (touching edges count).
func (r Rect) Intersects(s Rect) bool {
	return r.MinLat <= s.MaxLat && s.MinLat <= r.MaxLat &&
		r.MinLng <= s.MaxLng && s.MinLng <= r.MaxLng
}

// Valid reports whether r has non-negative extent and legal coordinates.
func (r Rect) Valid() bool {
	if r.MinLat > r.MaxLat || r.MinLng > r.MaxLng {
		return false
	}
	return (Point{r.MinLat, r.MinLng}).Validate() == nil &&
		(Point{r.MaxLat, r.MaxLng}).Validate() == nil
}

// Circle is a spherical cap target region: all points within RadiusKm of
// Center. It is the natural shape of an ad's geographic target ("within 25 km
// of the stadium").
type Circle struct {
	Center   Point
	RadiusKm float64
}

// kmPerDegreeLat is the length of one degree of latitude along a meridian.
const kmPerDegreeLat = EarthRadiusKm * math.Pi / 180

// Contains reports whether p lies within the circle. No great-circle distance
// is shorter than the two points' difference in latitude, so a point that far
// off in latitude alone is outside without any trigonometry — which is most
// ads of a catalogue for any one user, and ranking tests them all. The margin
// keeps the shortcut from disagreeing with the haversine's rounding.
func (c Circle) Contains(p Point) bool {
	if math.Abs(p.Lat-c.Center.Lat)*kmPerDegreeLat > c.RadiusKm*(1+1e-9) {
		return false
	}
	return c.Center.DistanceKm(p) <= c.RadiusKm
}

// Bounds returns a bounding rectangle that is guaranteed to contain the
// circle. The rectangle is conservative (may be larger than the tight bound)
// near the poles, which only costs extra candidate checks, never misses.
func (c Circle) Bounds() Rect {
	dLat := (c.RadiusKm / EarthRadiusKm) * 180 / math.Pi
	// Longitude degrees shrink with cos(lat); use the worst (largest |lat|)
	// edge of the circle for a conservative bound.
	maxAbsLat := math.Min(90, math.Max(math.Abs(c.Center.Lat-dLat), math.Abs(c.Center.Lat+dLat)))
	cosLat := math.Cos(maxAbsLat * math.Pi / 180)
	var dLng float64
	if cosLat < 1e-9 {
		dLng = 180 // circle touches a pole: all longitudes possible
	} else {
		dLng = dLat / cosLat
		if dLng > 180 {
			dLng = 180
		}
	}
	return Rect{
		MinLat: math.Max(-90, c.Center.Lat-dLat),
		MaxLat: math.Min(90, c.Center.Lat+dLat),
		MinLng: math.Max(-180, c.Center.Lng-dLng),
		MaxLng: math.Min(180, c.Center.Lng+dLng),
	}
}

// Proximity maps distance from the circle's centre to a relevance value in
// [0, 1]: 1 at the centre, decaying linearly to 0 at the radius, 0 outside.
// This is the GeoProx term of the ad scoring function.
func (c Circle) Proximity(p Point) float64 {
	if c.RadiusKm <= 0 {
		if c.Center.DistanceKm(p) == 0 {
			return 1
		}
		return 0
	}
	d := c.Center.DistanceKm(p)
	if d >= c.RadiusKm {
		return 0
	}
	return 1 - d/c.RadiusKm
}
