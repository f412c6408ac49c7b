package nn_test

import (
	"encoding/binary"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/cpu"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/intermittent/policytest"
	"whatsnext/internal/mem"
	"whatsnext/internal/nn"
	"whatsnext/internal/quality"
	"whatsnext/internal/workloads"
)

// tinyParams returns fault-campaign-sized dimensions per benchmark.
func tinyParams(b *workloads.Benchmark) workloads.Params {
	switch b.Name {
	case "NNConv":
		return workloads.Params{ImgW: 6, ImgH: 5, K: 3}
	case "NNFC":
		return workloads.Params{Windows: 3, N: 4, WindowSize: 8}
	default: // pooling
		return workloads.Params{ImgW: 8, ImgH: 8}
	}
}

func compileVariant(t *testing.T, b *workloads.Benchmark, p workloads.Params,
	mode compiler.Mode, bits int, opts compiler.Options) *compiler.Compiled {
	t.Helper()
	opts.Mode = mode
	c, err := compiler.Compile(b.Build(p, bits, true), opts)
	if err != nil {
		t.Fatalf("%s %v bits=%d: %v", b.Name, mode, bits, err)
	}
	return c
}

// runContinuous executes a compiled kernel to completion under unlimited
// power and returns the display-domain output.
func runContinuous(t *testing.T, c *compiler.Compiled, in map[string][]int64, out string) []float64 {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig(), core.ContinuousTrace())
	if err := sys.Load(c); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunInput(in); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Output(out)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func assertEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: output[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestRegistered checks the init-time extension registration: every NN
// benchmark must resolve through the workloads registry, which is what
// lets wnsim's -bench flag run NN kernels by name.
func TestRegistered(t *testing.T) {
	for _, b := range nn.All() {
		got, err := workloads.ByName(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != b.Name {
			t.Fatalf("ByName(%q) returned %q", b.Name, got.Name)
		}
	}
}

// TestGoldenAgreement checks that every exact lowering of every NN kernel
// — precise, precise with embedded progress, and the full-pass anytime
// modes with embedded progress — reproduces the native golden model bit
// for bit in the display domain.
func TestGoldenAgreement(t *testing.T) {
	embed := compiler.Options{ProgressEmbed: true}
	for _, b := range nn.All() {
		p := tinyParams(b)
		in := b.Inputs(p, 7)
		golden := b.Golden(p, in)

		got := runContinuous(t, compileVariant(t, b, p, compiler.ModePrecise, 8, compiler.Options{}), in, b.Output)
		assertEqual(t, b.Name+"/precise", got, golden)

		got = runContinuous(t, compileVariant(t, b, p, compiler.ModePrecise, 8, embed), in, b.Output)
		assertEqual(t, b.Name+"/precise+embed", got, golden)

		if b.Mode == compiler.ModePrecise {
			continue
		}
		for _, bits := range []int{8, 4, 2} {
			// All subword passes retained: the fused store-once build is
			// exact regardless of the subword width.
			got = runContinuous(t, compileVariant(t, b, p, b.Mode, bits, embed), in, b.Output)
			assertEqual(t, b.Name+"/full+embed", got, golden)
		}
		// A single 8-bit pass covers the whole 8-bit activation: the
		// cheapest truncated build is still exact at bits=8.
		got = runContinuous(t, compileVariant(t, b, p, b.Mode, 8,
			compiler.Options{ProgressEmbed: true, MaxPasses: 1}), in, b.Output)
		assertEqual(t, b.Name+"/p1+embed", got, golden)
	}
}

// TestTruncationDegradesMonotonically pins the accuracy-vs-energy axis:
// single-pass truncated builds get less accurate as the retained subword
// narrows (8 bits exact, then nondecreasing error), while never producing
// the reserved sentinel value.
func TestTruncationDegradesMonotonically(t *testing.T) {
	for _, b := range nn.All() {
		if b.Mode == compiler.ModePrecise {
			continue
		}
		p := tinyParams(b)
		in := b.Inputs(p, 7)
		golden := b.Golden(p, in)
		prev := -1.0
		for _, bits := range []int{8, 4, 2} {
			c := compileVariant(t, b, p, b.Mode, bits,
				compiler.Options{ProgressEmbed: true, MaxPasses: 1})
			got := runContinuous(t, c, in, b.Output)
			e := quality.NRMSE(got, golden)
			if bits == 8 && e != 0 {
				t.Fatalf("%s p1 at 8 bits: NRMSE %v, want exact", b.Name, e)
			}
			if e < prev {
				t.Fatalf("%s p1 at %d bits: NRMSE %v below wider pass %v", b.Name, bits, e, prev)
			}
			prev = e
		}
		if prev == 0 {
			t.Fatalf("%s: truncation to 2 bits introduced no error; axis is degenerate", b.Name)
		}
	}
}

// TestSentinelNeverCollides checks the reserved-value argument: no raw
// committed output of any exact build equals the progress sentinel, so a
// resume scan can never mistake data for an uncommitted element.
func TestSentinelNeverCollides(t *testing.T) {
	for _, b := range nn.All() {
		p := tinyParams(b)
		in := b.Inputs(p, 7)
		c := compileVariant(t, b, p, compiler.ModePrecise, 8, compiler.Options{ProgressEmbed: true})
		sys := core.NewSystem(core.DefaultConfig(), core.ContinuousTrace())
		if err := sys.Load(c); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunInput(in); err != nil {
			t.Fatal(err)
		}
		// A precise build stores the output row-major, one 32-bit word per
		// element.
		al, err := c.Layout.Of(b.Output)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 4*al.Array.Len)
		if err := sys.Mem.ReadData(al.Base, raw); err != nil {
			t.Fatal(err)
		}
		for i := range al.Array.Len {
			if binary.LittleEndian.Uint32(raw[4*i:]) == nn.Sentinel {
				t.Fatalf("%s: committed output[%d] equals the sentinel", b.Name, i)
			}
		}
	}
}

// nnRuntimes are the forward-progress runtimes the injection campaigns
// certify under, including the zero-hardware Restart runtime that relies
// exclusively on the embedded progress for resumption.
var nnRuntimes = []struct {
	name   string
	policy func() intermittent.Policy
}{
	{"clank", func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) }},
	{"nvp", func() intermittent.Policy { return intermittent.NewNVP(intermittent.DefaultNVPConfig()) }},
	{"undolog", func() intermittent.Policy { return intermittent.NewUndoLog() }},
	{"restart", func() intermittent.Policy { return policytest.NewRestart(policytest.DefaultRestartConfig()) }},
	{"naive", func() intermittent.Policy { return policytest.NewNaive(policytest.DefaultNaiveConfig()) }},
}

// TestFaultInjectionClean runs exhaustive power-failure campaigns over
// every progress-embedded NN build under every runtime: kills at every
// instruction boundary of the golden run (capped by even sampling), which
// includes boundaries in the middle of a tile's accumulation and between
// a tile's store and its loop back-edge. Every injected run must
// reproduce the uninterrupted NV image bit-exactly — under Restart this
// is possible only by rescanning the embedded progress markers.
func TestFaultInjectionClean(t *testing.T) {
	for _, b := range nn.All() {
		b := b
		p := tinyParams(b)
		in := b.Inputs(p, 7)
		variants := []struct {
			label string
			mode  compiler.Mode
			bits  int
			opts  compiler.Options
		}{
			{"precise+embed", compiler.ModePrecise, 8, compiler.Options{ProgressEmbed: true}},
		}
		if b.Mode != compiler.ModePrecise {
			variants = append(variants,
				struct {
					label string
					mode  compiler.Mode
					bits  int
					opts  compiler.Options
				}{"p1+embed", b.Mode, 4, compiler.Options{ProgressEmbed: true, MaxPasses: 1}})
		}
		for _, v := range variants {
			c := compileVariant(t, b, p, v.mode, v.bits, v.opts)
			target := faultinject.FromCompiled(b.Name, c, in)
			for _, rt := range nnRuntimes {
				t.Run(b.Name+"/"+v.label+"/"+rt.name, func(t *testing.T) {
					rep, err := faultinject.RunLockstep(target,
						faultinject.Config{Policy: rt.policy},
						faultinject.Schedule{Exhaustive: true, MaxPoints: 160})
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Clean() {
						t.Fatalf("%d divergences, first: %s", len(rep.Divergences), rep.Divergences[0])
					}
				})
			}
		}
	}
}

// TestRestartNeedsEmbedding is the negative witness for the progress
// embedding: a conventional multi-pass anytime build accumulates into NVM
// across passes, so restarting it from the entry point re-adds completed
// work and diverges. The same kernel with embedded progress is clean
// (proved above); the embedding is therefore load-bearing, not
// decorative.
func TestRestartNeedsEmbedding(t *testing.T) {
	b := nn.NNConv()
	p := tinyParams(b)
	in := b.Inputs(p, 7)
	c := compileVariant(t, b, p, compiler.ModeSWP, 4, compiler.Options{})
	rep, err := faultinject.RunLockstep(
		faultinject.FromCompiled(b.Name, c, in),
		faultinject.Config{Policy: nnRuntimes[3].policy},
		faultinject.Schedule{Points: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("multi-pass accumulate build survived restart-from-entry; negative witness lost")
	}
}

// TestNoSeparateProgressWrites asserts the headline claim of progress
// embedding: a progress-embedded build performs NO non-volatile data
// store outside its own output array — resumption state rides entirely
// in the committed output features. The BeforeStore hook observes every
// data store of a full run.
func TestNoSeparateProgressWrites(t *testing.T) {
	for _, b := range nn.All() {
		p := tinyParams(b)
		in := b.Inputs(p, 7)
		c := compileVariant(t, b, p, compiler.ModePrecise, 8, compiler.Options{ProgressEmbed: true})
		al, err := c.Layout.Of(b.Output)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mem.DefaultConfig()
		m := mem.New(cfg)
		if err := m.LoadProgram(c.Program.Image); err != nil {
			t.Fatal(err)
		}
		if err := c.InstallData(m, in); err != nil {
			t.Fatal(err)
		}
		cp := cpu.New(m)
		var stray []uint32
		cp.BeforeStore = func(addr uint32, size int) {
			if addr < mem.DataBase || addr >= mem.DataBase+uint32(cfg.DataBytes) {
				return // volatile scratch, not NVM
			}
			if addr < al.Base || addr >= al.Base+uint32(al.TotalBytes) {
				stray = append(stray, addr)
			}
		}
		for i := 0; !cp.Halted; i++ {
			if i > 50_000_000 {
				t.Fatalf("%s: run did not halt", b.Name)
			}
			if _, err := cp.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if len(stray) > 0 {
			t.Fatalf("%s: %d NV stores outside the output region, first at %#x",
				b.Name, len(stray), stray[0])
		}
	}
}
