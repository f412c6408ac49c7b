package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/workloads"
)

// TestFigure9Shapes checks every runtime-quality curve for the paper's
// qualitative properties: early availability, monotone-trend improvement,
// exact convergence, and bounded overhead to the precise result.
func TestFigure9Shapes(t *testing.T) {
	curves, err := Figure9(DefaultProtocol(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 12 {
		t.Fatalf("%d curves, want 12 (6 benchmarks x 2 subword sizes)", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) < 10 {
			t.Errorf("%s/%d-bit: only %d points", c.Benchmark, c.Bits, len(c.Points))
			continue
		}
		last := c.Points[len(c.Points)-1]
		if last.NRMSE != 0 {
			t.Errorf("%s/%d-bit: final NRMSE %v, want exact 0", c.Benchmark, c.Bits, last.NRMSE)
		}
		if over := c.FinalOverhead(); over <= 1 || over > 4 {
			t.Errorf("%s/%d-bit: final overhead %.2fx outside (1,4]", c.Benchmark, c.Bits, over)
		}
		// Error must never *increase* by more than noise over the run: take
		// the running minimum and require the curve ends at it.
		minSeen := c.Points[0].NRMSE
		for _, p := range c.Points {
			if p.NRMSE < minSeen {
				minSeen = p.NRMSE
			}
		}
		if minSeen != 0 {
			t.Errorf("%s/%d-bit: error floor %v never reaches 0", c.Benchmark, c.Bits, minSeen)
		}
		// An approximate output exists before the precise baseline finishes.
		if !slices.ContainsFunc(c.Points, func(p QualityPoint) bool { return p.NRMSE <= 25 }) {
			t.Errorf("%s/%d-bit: no point under 25%% NRMSE", c.Benchmark, c.Bits)
		}
	}
}

// TestSpeedupOrderings verifies the paper's cross-configuration orderings
// on the fast protocol.
func TestSpeedupOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("intermittent sweep")
	}
	clank, err := SpeedupStudy(core.ProcClank, DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	nvp, err := SpeedupStudy(core.ProcNVP, DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]SpeedupRow{clank, nvp} {
		for _, r := range rows {
			if r.Speedup <= 1 {
				t.Errorf("%s/%d-bit: speedup %.2fx, want > 1", r.Benchmark, r.Bits, r.Speedup)
			}
			if r.NRMSE < 0 || r.NRMSE > 25 {
				t.Errorf("%s/%d-bit: NRMSE %.2f%% implausible", r.Benchmark, r.Bits, r.NRMSE)
			}
		}
	}
	// 4-bit beats 8-bit on average; Clank beats NVP (re-execution savings).
	c8, _ := SpeedupSummary(clank, 8)
	c4, _ := SpeedupSummary(clank, 4)
	n8, _ := SpeedupSummary(nvp, 8)
	n4, _ := SpeedupSummary(nvp, 4)
	if c4 <= c8 || n4 <= n8 {
		t.Errorf("4-bit should outrun 8-bit: clank %.2f/%.2f nvp %.2f/%.2f", c4, c8, n4, n8)
	}
	if c8 <= n8 || c4 <= n4 {
		t.Errorf("clank speedups should exceed nvp: %.2f vs %.2f, %.2f vs %.2f", c8, n8, c4, n4)
	}
	// Per-benchmark error ordering: 8-bit at least as accurate as 4-bit.
	byKey := map[string]float64{}
	for _, r := range clank {
		byKey[r.Benchmark+string(rune('0'+r.Bits))] = r.NRMSE
	}
	for _, b := range workloads.All() {
		if byKey[b.Name+"8"] > byKey[b.Name+"4"]+0.5 {
			t.Errorf("%s: 8-bit error %.2f%% exceeds 4-bit %.2f%%", b.Name, byKey[b.Name+"8"], byKey[b.Name+"4"])
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	dir := t.TempDir()
	r, err := Figure2(DefaultProtocol(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.WNNRMSE >= r.BaselineNRMSE {
		t.Errorf("WN at the budget (%.2f%%) must beat the truncated baseline (%.2f%%)", r.WNNRMSE, r.BaselineNRMSE)
	}
	if r.WNNRMSE > 10 {
		t.Errorf("WN image should be acceptable, NRMSE %.2f%%", r.WNNRMSE)
	}
	if r.BudgetFraction <= 0.3 || r.BudgetFraction >= 1 {
		t.Errorf("budget fraction %.2f out of range", r.BudgetFraction)
	}
	if len(r.ImagePaths) != 3 {
		t.Fatalf("wrote %d images, want 3", len(r.ImagePaths))
	}
	for _, p := range r.ImagePaths {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("image %s missing or empty", p)
		}
	}
}

func TestFigure3Deterministic(t *testing.T) {
	a, err := Figure3(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure3(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Readings) != len(b.Readings) || a.AnytimeAvgErrPct != b.AnytimeAvgErrPct {
		t.Fatal("Figure 3 must be deterministic for a fixed seed")
	}
	if !a.SampledMissedDip {
		t.Error("input sampling should miss a dip (the paper's point)")
	}
	if !a.AnytimeCaughtAll {
		t.Error("anytime processing should catch both dips")
	}
	if a.AnytimeAvgErrPct <= 0 || a.AnytimeAvgErrPct > 12 {
		t.Errorf("anytime error %.2f%% outside the paper's class (~7.5%%)", a.AnytimeAvgErrPct)
	}
	if a.AnytimeCost*2 > a.PreciseCost {
		t.Errorf("anytime pass (%d) should cost well under half a precise reading (%d)", a.AnytimeCost, a.PreciseCost)
	}
}

func TestFigure12Shape(t *testing.T) {
	rows, err := Figure12(DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.EarlierBy <= 1 {
			t.Errorf("%d-bit: vectorized loads should be earlier, got %.2fx", r.Bits, r.EarlierBy)
		}
		if r.PlainNRMSE != r.VectorNRMSE {
			t.Errorf("%d-bit: load vectorization must not change the computed values", r.Bits)
		}
	}
	if rows[1].EarlierBy <= rows[0].EarlierBy {
		t.Error("4-bit should benefit more from vectorized loads than 8-bit")
	}
}

func TestFigure13Shape(t *testing.T) {
	rows, err := Figure13(DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.WithTable < r.NoTable {
			t.Errorf("%s: memoization should not slow things down (%.2f vs %.2f)", r.Config, r.WithTable, r.NoTable)
		}
	}
	// Smaller subwords hit the table more (fewer distinct operands).
	if !(rows[2].HitRate > rows[1].HitRate && rows[1].HitRate > rows[0].HitRate) {
		t.Errorf("hit rates should grow as subwords shrink: %+v", rows)
	}
}

func TestFigure14Shape(t *testing.T) {
	prov, unprov, err := Figure14(DefaultProtocol(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if last := prov.Points[len(prov.Points)-1].NRMSE; last != 0 {
		t.Errorf("provisioned final error %v, want 0", last)
	}
	if last := unprov.Points[len(unprov.Points)-1].NRMSE; last <= 0 {
		t.Error("unprovisioned addition must keep a carry-loss error floor")
	}
}

func TestFigure15Shape(t *testing.T) {
	rows, err := Figure15(DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].NRMSE >= rows[i-1].NRMSE {
			t.Errorf("error should shrink with wider subwords: %+v", rows)
		}
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%d-bit earliest output should beat the baseline", r.Bits)
		}
	}
	if rows[0].Speedup <= rows[3].Speedup {
		t.Error("1-bit earliest output should be fastest")
	}
}

func TestFigure16WritesImages(t *testing.T) {
	dir := t.TempDir()
	r, err := Figure16(DefaultProtocol(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ImagePaths) != 4 {
		t.Fatalf("wrote %d images", len(r.ImagePaths))
	}
	for _, p := range r.ImagePaths {
		if filepath.Ext(p) != ".pgm" {
			t.Errorf("unexpected image name %s", p)
		}
	}
}

func TestFigure17Shape(t *testing.T) {
	pts, avg, err := Figure17(DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 24 {
		t.Fatalf("%d data sets, want 24", len(pts))
	}
	dropped := 0
	for _, p := range pts {
		if p.WN <= 0 || p.WN > p.Precise {
			t.Errorf("set %d: WN estimate %v should under-approximate precise %v", p.DataSet, p.WN, p.Precise)
		}
		if p.Missed {
			dropped++
		}
	}
	if dropped != 12 {
		t.Errorf("sampling should drop every other set, dropped %d", dropped)
	}
	if avg <= 0 || avg > 15 {
		t.Errorf("average WN error %.2f%% implausible", avg)
	}
}

func TestStreamStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("stream sweep")
	}
	rows, err := StreamStudy(DefaultProtocol(), 12)
	if err != nil {
		t.Fatal(err)
	}
	byCfg := map[string][]StreamRow{}
	for _, r := range rows {
		byCfg[r.Config] = append(byCfg[r.Config], r)
	}
	for _, r := range byCfg["precise"] {
		if r.Dropped == 0 {
			t.Errorf("%s precise: the arrival rate is set so the precise build must drop inputs", r.Benchmark)
		}
		if r.NRMSE != 0 {
			t.Errorf("%s precise: processed inputs are exact", r.Benchmark)
		}
	}
	for _, r := range byCfg["wn-4bit"] {
		if r.Dropped > r.Arrivals/4 {
			t.Errorf("%s wn: dropped %d of %d", r.Benchmark, r.Dropped, r.Arrivals)
		}
		if r.NRMSE <= 0 || r.NRMSE > 20 {
			t.Errorf("%s wn: NRMSE %.2f%%", r.Benchmark, r.NRMSE)
		}
	}
}

func TestProtocolParams(t *testing.T) {
	b := workloads.Conv2d()
	fast := DefaultProtocol().params(b)
	full := FullProtocol().params(b)
	if fast.ImgW != 32 || full.ImgW != 128 {
		t.Fatalf("protocol scaling wrong: %v %v", fast, full)
	}
	if v := WNVariant(b, fast, 4); v.String() != "Conv2d/swp4" {
		t.Errorf("variant name %q", v.String())
	}
	if v := PreciseVariant(b, fast); v.String() != "Conv2d/precise" {
		t.Errorf("variant name %q", v.String())
	}
	vl := WNVariant(b, fast, 4)
	vl.VectorLoads = true
	if vl.String() != "Conv2d/swp4+vloads" {
		t.Errorf("variant name %q", vl.String())
	}
}

// TestReductionStepCurves: the paper observes that reduction kernels
// improve in steps — the output in non-volatile memory only changes when a
// pass writes it. With a single output window, Var's quality curve must be
// piecewise constant with about one level per subword pass.
func TestReductionStepCurves(t *testing.T) {
	b := workloads.Var()
	c, err := RuntimeQuality(b, workloads.Params{Windows: 1, WindowSize: 64}, 4, 150)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, pt := range c.Points {
		distinct[pt.NRMSE] = true
	}
	// 12-bit data at 4-bit subwords: 3 passes => at most ~4 levels
	// (initial 100%, one per committed pass).
	if len(distinct) > 5 {
		t.Fatalf("Var single-window curve has %d distinct error levels; expected step plateaus (<=5)", len(distinct))
	}
	if len(distinct) < 3 {
		t.Fatalf("curve has only %d levels; passes should be visible", len(distinct))
	}
}
