package experiments

import (
	"strings"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/nn"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// TestProgressStudy runs the -exp progress study end to end: every variant
// must certify, every dynamic gap must respect its static bound (the study
// errors otherwise), and the derived sizing must be usable.
func TestProgressStudy(t *testing.T) {
	rows, err := ProgressStudy(DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	want := 2*len(workloads.All()) + len(nn.All())
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.DynamicMaxGap == 0 || r.DynamicMaxGap > r.StaticRegionWCEC {
			t.Errorf("%s: gap %d outside (0, %d]", r.Variant, r.DynamicMaxGap, r.StaticRegionWCEC)
		}
		if r.MinCapacitorUF <= 0 {
			t.Errorf("%s: non-positive min capacitor %f", r.Variant, r.MinCapacitorUF)
		}
		if r.Budget <= r.StaticTotalWCEC {
			t.Errorf("%s: certified budget %d does not clear the total WCEC %d",
				r.Variant, r.Budget, r.StaticTotalWCEC)
		}
	}
}

// TestProgressCellErrorNamesVariant: a progress cell whose measured gap
// exceeds its certified bound fails the sweep, and the error that comes
// back through the engine names the variant.
func TestProgressCellErrorNamesVariant(t *testing.T) {
	b := workloads.Var()
	v := WNVariant(b, DefaultProtocol().params(b), 8)
	c, err := v.Compile()
	if err != nil {
		t.Fatal(err)
	}
	bound := c.Cert.Progress.MaxRegionWCEC
	if _, err := progressRow(v, c, bound, 1); err != nil {
		t.Fatalf("gap at the bound rejected: %v", err)
	}
	bad := sweep.Job{Spec: progressSpec(v),
		Run: func() (any, error) { return progressRow(v, c, bound+1, 1) }}
	_, err = sweep.New(sweep.Options{Workers: 2}).Run([]sweep.Job{bad})
	if err == nil {
		t.Fatal("a gap above the certified bound did not fail the sweep")
	}
	for _, want := range []string{v.String(), "exceeds certified bound"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// Every Table I kernel and every NN kernel — in precise mode, its paper
// mode, and (for the NN family) the progress-embedded lowering — must
// certify a finite per-region WCEC: the compiler's forward-progress
// analysis proves no emitted kernel can livelock on a sufficiently
// provisioned device.
func TestAllKernelsCertifyFiniteRegions(t *testing.T) {
	isNN := map[string]bool{}
	for _, b := range nn.All() {
		isNN[b.Name] = true
	}
	for _, b := range append(workloads.All(), nn.All()...) {
		p := b.ScaledParams()
		opts := []compiler.Options{{Mode: compiler.ModePrecise}, {Mode: b.Mode}}
		if isNN[b.Name] {
			opts = append(opts, compiler.Options{Mode: b.Mode, ProgressEmbed: true})
		}
		for _, o := range opts {
			c, err := compiler.Compile(b.Build(p, 8, false), o)
			if err != nil {
				t.Errorf("%s %v: %v", b.Name, o.Mode, err)
				continue
			}
			pr := c.Cert.Progress
			if pr == nil {
				t.Errorf("%s %v: certificate carries no progress info", b.Name, o.Mode)
				continue
			}
			if !pr.RegionsFinite || pr.MaxRegionWCEC == 0 {
				t.Errorf("%s %v embed=%v: per-region WCEC not finite (%+v)",
					b.Name, o.Mode, o.ProgressEmbed, pr)
			}
			if !pr.TotalFinite {
				t.Errorf("%s %v embed=%v: total WCEC not finite", b.Name, o.Mode, o.ProgressEmbed)
			}
			for _, lb := range pr.Loops {
				if lb.Source == "unbounded" {
					t.Errorf("%s %v: unbounded loop at %#x", b.Name, o.Mode, lb.Head)
				}
			}
		}
	}
}
