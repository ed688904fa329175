package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Point
		ok   bool
	}{
		{"origin", Point{0, 0}, true},
		{"north pole", Point{90, 0}, true},
		{"south pole", Point{-90, 0}, true},
		{"dateline east", Point{0, 180}, true},
		{"dateline west", Point{0, -180}, true},
		{"lat too big", Point{90.001, 0}, false},
		{"lat too small", Point{-90.001, 0}, false},
		{"lng too big", Point{0, 180.5}, false},
		{"lng too small", Point{0, -181}, false},
		{"nan lat", Point{math.NaN(), 0}, false},
		{"inf lng", Point{0, math.Inf(1)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate(%v) = %v, want ok=%v", tt.p, err, tt.ok)
			}
		})
	}
}

func TestDistanceKmKnownPairs(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Point
		wantKm float64
		tolKm  float64
	}{
		{"same point", Point{1.3, 103.8}, Point{1.3, 103.8}, 0, 1e-9},
		{"singapore to kuala lumpur", Point{1.3521, 103.8198}, Point{3.1390, 101.6869}, 309, 5},
		{"london to paris", Point{51.5074, -0.1278}, Point{48.8566, 2.3522}, 344, 5},
		{"pole to pole", Point{90, 0}, Point{-90, 0}, math.Pi * EarthRadiusKm, 1},
		{"quarter meridian", Point{0, 0}, Point{90, 0}, math.Pi * EarthRadiusKm / 2, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.DistanceKm(tt.b)
			if math.Abs(got-tt.wantKm) > tt.tolKm {
				t.Fatalf("DistanceKm = %v, want %v ± %v", got, tt.wantKm, tt.tolKm)
			}
		})
	}
}

// clampPoint maps arbitrary float64 pairs into valid coordinates so quick
// can exercise the full domain.
func clampPoint(lat, lng float64) Point {
	wrap := func(v, lim float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, lim)
	}
	return Point{Lat: wrap(lat, 90), Lng: wrap(lng, 180)}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2 float64) bool {
		a := clampPoint(lat1, lng1)
		b := clampPoint(lat2, lng2)
		d1 := a.DistanceKm(b)
		d2 := b.DistanceKm(a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequalityProperty(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2, lat3, lng3 float64) bool {
		a := clampPoint(lat1, lng1)
		b := clampPoint(lat2, lng2)
		c := clampPoint(lat3, lng3)
		return a.DistanceKm(c) <= a.DistanceKm(b)+b.DistanceKm(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectContainsAndIntersects(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	if !r.Contains(Point{5, 5}) {
		t.Error("center should be contained")
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) {
		t.Error("corners should be contained (inclusive)")
	}
	if r.Contains(Point{10.01, 5}) {
		t.Error("outside point contained")
	}
	cases := []struct {
		s    Rect
		want bool
	}{
		{NewRect(Point{5, 5}, Point{15, 15}), true},
		{NewRect(Point{10, 10}, Point{20, 20}), true}, // touching corner
		{NewRect(Point{11, 11}, Point{20, 20}), false},
		{NewRect(Point{-5, -5}, Point{-1, -1}), false},
		{NewRect(Point{2, 2}, Point{3, 3}), true}, // fully inside
	}
	for i, c := range cases {
		if got := r.Intersects(c.s); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.s.Intersects(r); got != c.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
}

func TestRectValid(t *testing.T) {
	if !worldRect.Valid() {
		t.Error("world rect should be valid")
	}
	if (Rect{MinLat: 5, MaxLat: 1, MinLng: 0, MaxLng: 1}).Valid() {
		t.Error("inverted rect should be invalid")
	}
	if (Rect{MinLat: -100, MaxLat: 0, MinLng: 0, MaxLng: 1}).Valid() {
		t.Error("out-of-range rect should be invalid")
	}
}

func TestCircleContainsAndProximity(t *testing.T) {
	c := Circle{Center: Point{1.3521, 103.8198}, RadiusKm: 50}
	if !c.Contains(c.Center) {
		t.Error("center must be contained")
	}
	if c.Proximity(c.Center) != 1 {
		t.Errorf("Proximity(center) = %v, want 1", c.Proximity(c.Center))
	}
	far := Point{3.1390, 101.6869} // ~316 km away
	if c.Contains(far) {
		t.Error("far point should be outside")
	}
	if got := c.Proximity(far); got != 0 {
		t.Errorf("Proximity(far) = %v, want 0", got)
	}
	// A point at roughly half the radius should give proximity near 0.5.
	near := Point{1.3521, 103.8198 + 25.0/111.0} // ≈25 km east at the equator
	got := c.Proximity(near)
	if got < 0.4 || got > 0.6 {
		t.Errorf("Proximity(half radius) = %v, want ≈0.5", got)
	}
}

func TestCircleZeroRadius(t *testing.T) {
	c := Circle{Center: Point{10, 10}, RadiusKm: 0}
	if got := c.Proximity(Point{10, 10}); got != 1 {
		t.Errorf("zero-radius proximity at center = %v, want 1", got)
	}
	if got := c.Proximity(Point{10, 10.1}); got != 0 {
		t.Errorf("zero-radius proximity off center = %v, want 0", got)
	}
}

// TestCircleContainsIsTheHaversineTest: the latitude shortcut in Contains
// never changes the answer, at the rim least of all — points are taken due
// north, south, east and west of the centre at the radius and a hair either
// side of it, and at random.
func TestCircleContainsIsTheHaversineTest(t *testing.T) {
	f := func(lat, lng, radius, dLat, dLng float64) bool {
		center := clampPoint(lat, lng)
		r := math.Mod(math.Abs(radius), 500)
		if math.IsNaN(r) {
			r = 10
		}
		c := Circle{Center: center, RadiusKm: r}
		ps := []Point{clampPoint(center.Lat+math.Mod(dLat, 6), center.Lng+math.Mod(dLng, 6))}
		for _, scale := range []float64{1 - 1e-7, 1 - 1e-12, 1, 1 + 1e-12, 1 + 1e-7} {
			for i := 0; i < 4; i++ {
				ps = append(ps, offset(center, r*scale, float64(i)*math.Pi/2))
			}
			deg := r * scale / kmPerDegreeLat
			ps = append(ps, Point{center.Lat + deg, center.Lng}, Point{center.Lat - deg, center.Lng})
		}
		for _, p := range ps {
			if p.Validate() != nil {
				continue
			}
			if c.Contains(p) != (c.Center.DistanceKm(p) <= c.RadiusKm) {
				t.Logf("circle %+v point %+v: Contains %v, distance %v", c, p, c.Contains(p), c.Center.DistanceKm(p))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCircleBoundsContainsCircleProperty(t *testing.T) {
	f := func(lat, lng, radius, bearingSeed float64) bool {
		center := clampPoint(lat, lng)
		r := math.Mod(math.Abs(radius), 500) // up to 500 km
		if math.IsNaN(r) {
			r = 10
		}
		c := Circle{Center: center, RadiusKm: r}
		b := c.Bounds()
		// Sample points on the circle edge in several bearings; each must be
		// inside the bounding rect (when coordinates remain in range).
		for i := 0; i < 8; i++ {
			theta := bearingSeed + float64(i)*math.Pi/4
			p := offset(center, r*0.999, theta)
			if p.Validate() != nil {
				continue
			}
			if !c.Contains(p) {
				continue // spherical offset approximation overshoot; skip
			}
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// offset moves approximately distKm from p along a bearing (flat-earth local
// approximation, adequate for test sampling at sub-500 km scales away from
// the poles).
func offset(p Point, distKm, bearing float64) Point {
	dLat := distKm / 111.0 * math.Cos(bearing)
	cosLat := math.Cos(p.Lat * math.Pi / 180)
	if math.Abs(cosLat) < 1e-6 {
		cosLat = 1e-6
	}
	dLng := distKm / 111.0 * math.Sin(bearing) / cosLat
	return Point{Lat: p.Lat + dLat, Lng: p.Lng + dLng}
}
