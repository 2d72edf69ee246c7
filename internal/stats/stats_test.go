package stats

import (
	"math"
	"testing"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 10", g)
	}
	if g := GeoMean([]float64{3, 3, 3}); math.Abs(g-3) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 3", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean must reject non-positive values")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestNormalizeTo(t *testing.T) {
	got := NormalizeTo([]float64{2, 6}, []float64{2, 3})
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("NormalizeTo = %v", got)
	}
}
