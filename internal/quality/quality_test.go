package quality

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("identical signals: %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("rmse = %v", got)
	}
	if RMSE(nil, nil) != 0 {
		t.Fatal("empty inputs")
	}
}

func TestRMSEPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic (harness bug)")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestNRMSE(t *testing.T) {
	want := []float64{0, 50, 100}
	got := []float64{0, 50, 90}
	// RMSE = sqrt(100/3), peak = 100.
	exp := 100 * math.Sqrt(100.0/3) / 100
	if v := NRMSE(got, want); math.Abs(v-exp) > 1e-9 {
		t.Fatalf("NRMSE = %v, want %v", v, exp)
	}
	if NRMSE(want, want) != 0 {
		t.Fatal("exact output has zero error")
	}
	// Zero reference falls back to a unit denominator.
	if v := NRMSE([]float64{1}, []float64{0}); v != 100 {
		t.Fatalf("zero-reference NRMSE = %v", v)
	}
}

func TestNRMSEScaleInvariance(t *testing.T) {
	f := func(base uint16, noise uint8) bool {
		w := []float64{float64(base) + 1, float64(base) + 2, float64(base) + 100}
		g := []float64{w[0] + float64(noise), w[1], w[2]}
		a := NRMSE(g, w)
		// Scaling both signals by 8 must not change the relative error.
		ws := []float64{w[0] * 8, w[1] * 8, w[2] * 8}
		gs := []float64{g[0] * 8, g[1] * 8, g[2] * 8}
		return math.Abs(NRMSE(gs, ws)-a) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("even median")
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("empty median is NaN")
	}
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 {
		t.Fatal("median must not mutate its input")
	}
}

func TestMeanGeoMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if v := GeoMean([]float64{1, 4}); v != 2 {
		t.Fatalf("geomean = %v", v)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Fatal("geomean of non-positive values is NaN")
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(GeoMean(nil)) {
		t.Fatal("empty aggregates are NaN")
	}
}

func TestWritePGM(t *testing.T) {
	var buf bytes.Buffer
	px := []float64{0, 128, 300, -5}
	if err := WritePGM(&buf, px, 2, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !strings.HasPrefix(string(out), "P5\n2 2\n255\n") {
		t.Fatalf("header wrong: %q", out[:12])
	}
	data := out[len(out)-4:]
	if data[0] != 0 || data[1] != 128 || data[2] != 255 || data[3] != 0 {
		t.Fatalf("pixels %v (clamping failed)", data)
	}
	if err := WritePGM(&buf, px, 3, 2); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}
