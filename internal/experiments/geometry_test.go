package experiments

import (
	"slices"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/mem"
	"whatsnext/internal/nn"
	"whatsnext/internal/workloads"
)

// geometryVariants lists every variant the studies compile at default
// scale: each Table I benchmark precise and at 8 and 4 bits, Conv2d down
// to 1 bit (Figures 15 and 16), MatMul with vectorized loads (Figure 12),
// unprovisioned MatAdd (Figure 14), and each NN benchmark at its study
// widths. MatAdd's 4-bit build adds paper scale, where its data is the
// largest of any cell.
func geometryVariants() []Variant {
	var vs []Variant
	for _, b := range workloads.All() {
		p := b.ScaledParams()
		vs = append(vs, PreciseVariant(b, p), WNVariant(b, p, 8), WNVariant(b, p, 4))
	}
	conv := workloads.Conv2d()
	for _, bits := range []int{1, 2, 3} {
		vs = append(vs, WNVariant(conv, conv.ScaledParams(), bits))
	}
	matMul := workloads.MatMul()
	for _, bits := range []int{8, 4} {
		v := WNVariant(matMul, matMul.ScaledParams(), bits)
		v.VectorLoads = true
		vs = append(vs, v)
	}
	matAdd := workloads.MatAdd()
	unprov := WNVariant(matAdd, matAdd.ScaledParams(), 8)
	unprov.Provisioned = false
	vs = append(vs, unprov)
	for _, b := range nn.All() {
		for _, bits := range nnBits(b) {
			vs = append(vs, NNVariant(b, b.ScaledParams(), bits))
		}
	}
	return append(vs, WNVariant(matAdd, matAdd.DefaultParams(), 4))
}

// geometryRun is what a continuous run to halt observes.
type geometryRun struct {
	cycles, instrs uint64
	out            []float64
}

func runAtGeometry(t *testing.T, c *compiler.Compiled, in map[string][]int64, output string, geo mem.Config) geometryRun {
	t.Helper()
	prog := core.ProgramOf(c, in)
	prog.Mem = geo
	m, cp, err := core.NewDevice(prog)
	if err != nil {
		t.Fatal(err)
	}
	var r geometryRun
	for !cp.Halted {
		res, err := cp.Run(1<<62, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.cycles += res.Cycles
	}
	r.instrs = cp.Stats.Instructions
	if r.out, err = c.Layout.AppendOutputValues(nil, m, output); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStudyVariantsRunAtTheirGeometry: every program the studies compile
// (Figure 3's glucose builds included) gets a memory geometry that covers
// its image and layout in whole kilobytes and keeps the default SRAM, so
// the boot stack does not move, and runs exactly as on the default
// geometry: same cycles, instructions and output values.
func TestStudyVariantsRunAtTheirGeometry(t *testing.T) {
	type program struct {
		name   string
		c      *compiler.Compiled
		in     map[string][]int64
		output string
	}
	var progs []program
	for _, v := range geometryVariants() {
		c, err := v.Compile()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		progs = append(progs, program{v.String(), c, v.Bench.Inputs(v.Params, 1), v.Bench.Output})
	}
	glucose := map[string][]int64{"RAW": workloads.GlucoseRawWindow(workloads.ClinicalGlucoseTrace(1)[0], 1), "W": workloads.GlucoseWeights()}
	for _, opts := range []compiler.Options{{Mode: compiler.ModePrecise}, {Mode: compiler.ModeSWP, VectorLoads: true}} {
		c, err := compiler.Compile(workloads.GlucoseKernel(4), opts)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{"glucose/" + opts.Mode.String(), c, glucose, "OUT"})
	}

	const kb = 1 << 10
	def := mem.DefaultConfig()
	for _, p := range progs {
		geo := p.c.Mem
		if img := len(p.c.Program.Image); geo.CodeBytes < img || geo.CodeBytes-img >= kb || geo.CodeBytes%kb != 0 {
			t.Errorf("%s: code region %d B for a %d B image", p.name, geo.CodeBytes, img)
		}
		if data := p.c.Layout.TotalBytes; geo.DataBytes < data || geo.DataBytes-data >= kb || geo.DataBytes%kb != 0 {
			t.Errorf("%s: data region %d B for a %d B layout", p.name, geo.DataBytes, data)
		}
		if geo.SRAMBytes != def.SRAMBytes {
			t.Errorf("%s: SRAM %d B, want the default %d B", p.name, geo.SRAMBytes, def.SRAMBytes)
		}
		sized, full := runAtGeometry(t, p.c, p.in, p.output, geo), runAtGeometry(t, p.c, p.in, p.output, def)
		if sized.cycles != full.cycles || sized.instrs != full.instrs || !slices.Equal(sized.out, full.out) {
			t.Errorf("%s: sized device ran %d cycles, %d instructions; default geometry %d, %d (outputs equal: %v)",
				p.name, sized.cycles, sized.instrs, full.cycles, full.instrs, slices.Equal(sized.out, full.out))
		}
	}
}
