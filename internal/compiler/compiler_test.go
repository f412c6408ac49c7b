package compiler

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"whatsnext/internal/asm"
	"whatsnext/internal/mem"
)

// --- Lin helpers ---

func TestLinBuilders(t *testing.T) {
	l := LinSum(LinVar("i", 3, 1), LinVar("j", 2, 0), LinConst(5))
	if l.Const != 6 || l.Coeff["i"] != 3 || l.Coeff["j"] != 2 {
		t.Fatalf("LinSum wrong: %+v", l)
	}
	vs := l.vars()
	if len(vs) != 2 || vs[0] != "i" || vs[1] != "j" {
		t.Fatalf("vars = %v", vs)
	}
	if LinVar("i", 1, 0).key() == LinVar("j", 1, 0).key() {
		t.Fatal("distinct lins must have distinct keys")
	}
	if LinSum(LinVar("i", 1, 2)).key() != LinSum(LinConst(2), LinVar("i", 1, 0)).key() {
		t.Fatal("equal lins must share a key")
	}
}

// --- subword spans ---

func TestSubwordSpansPartition(t *testing.T) {
	for _, vb := range []int{8, 12, 16, 20, 24, 31, 32} {
		for _, b := range []int{1, 2, 3, 4, 8} {
			spans := subwordSpans(vb, b)
			// Spans tile [0, vb) exactly, LS first, MS-aligned.
			pos := 0
			for i, sp := range spans {
				if sp.Start != pos {
					t.Fatalf("vb=%d b=%d span %d starts at %d, want %d", vb, b, i, sp.Start, pos)
				}
				if sp.Width <= 0 || sp.Width > b {
					t.Fatalf("vb=%d b=%d span %d width %d", vb, b, i, sp.Width)
				}
				pos += sp.Width
			}
			if pos != vb {
				t.Fatalf("vb=%d b=%d spans cover %d bits", vb, b, pos)
			}
			// All spans except the least significant are full width, so the
			// first anytime pass always processes b real bits.
			for i := 1; i < len(spans); i++ {
				if spans[i].Width != b {
					t.Fatalf("vb=%d b=%d non-LS span %d has width %d", vb, b, i, spans[i].Width)
				}
			}
		}
	}
}

// --- layout ---

func testKernelArrays() *Kernel {
	return &Kernel{
		Name: "t",
		Arrays: []Array{
			{Name: "P", ElemBits: 16, Len: 10},
			{Name: "V", ElemBits: 32, Len: 16, Pragma: PragmaASV, SubwordBits: 8, Provisioned: true},
			{Name: "U", ElemBits: 32, Len: 16, Pragma: PragmaASV, SubwordBits: 8},
		},
	}
}

func TestLayoutAddressing(t *testing.T) {
	k := testKernelArrays()
	l, err := BuildLayout(k, ModeSWV, false)
	if err != nil {
		t.Fatal(err)
	}
	p := l.Arrays["P"]
	if p.Planar || p.Base != mem.DataBase || p.TotalBytes != 20 {
		t.Fatalf("row-major layout wrong: %+v", p)
	}
	v := l.Arrays["V"]
	if !v.Planar || v.LaneBits != 16 || v.NumPlanes != 4 || v.LanesPerWord() != 2 {
		t.Fatalf("provisioned planar layout wrong: %+v", v)
	}
	u := l.Arrays["U"]
	if !u.Planar || u.LaneBits != 8 || u.LanesPerWord() != 4 {
		t.Fatalf("unprovisioned planar layout wrong: %+v", u)
	}
	// Arrays are placed back to back, word aligned.
	if v.Base != p.Base+uint32(p.TotalBytes) {
		t.Fatal("arrays must be contiguous")
	}
	if l.TotalBytes <= 0 {
		t.Fatal("total size")
	}
	// Plane ordering: plane 0 (most significant) lives first.
	if v.PlaneBase(0) >= v.PlaneBase(1) {
		t.Fatal("plane 0 must precede plane 1")
	}
	if v.PlaneForSub(3) != 0 || v.PlaneForSub(0) != 3 {
		t.Fatal("PlaneForSub should reverse the order")
	}
}

func TestLayoutModeSensitivity(t *testing.T) {
	k := testKernelArrays()
	l, err := BuildLayout(k, ModePrecise, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.Arrays["V"].Planar {
		t.Fatal("precise mode must not transpose ASV arrays")
	}
}

func TestInstallExtractRowMajorRoundTrip(t *testing.T) {
	k := &Kernel{Name: "t", Arrays: []Array{
		{Name: "A8", ElemBits: 8, Len: 33},
		{Name: "A16", ElemBits: 16, Len: 17},
		{Name: "A32", ElemBits: 32, Len: 9},
	}}
	l, err := BuildLayout(k, ModePrecise, false)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(mem.DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	for _, a := range k.Arrays {
		vals := make([]int64, a.Len)
		for i := range vals {
			vals[i] = rng.Int63() & int64(elemMask(a.ElemBits))
		}
		if err := l.Install(m, a.Name, vals); err != nil {
			t.Fatal(err)
		}
		got, err := l.AppendExtract(nil, m, a.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%s[%d] = %d, want %d", a.Name, i, got[i], vals[i])
			}
		}
	}
}

// encodePlanarReference is the per-element planar encoder: every subword of
// every element is ORed into its lane of its plane's word. It is the byte
// oracle for the hoisted encoder in Layout.Install.
func encodePlanarReference(al ArrayLayout, vals []int64, buf []byte) {
	b := al.Array.SubwordBits
	lpw := al.LanesPerWord()
	for i, v := range vals {
		u := uint64(v) & elemMask(al.Array.ElemBits)
		for sub := 0; sub < al.NumPlanes; sub++ {
			sw := (u >> (b * sub)) & elemMask(al.SubBits(sub))
			plane := al.PlaneForSub(sub)
			word := i / lpw
			lane := i % lpw
			off := plane*al.PlaneBytes + word*4
			cur := uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24
			cur |= uint32(sw) << (lane * al.LaneBits)
			buf[off], buf[off+1], buf[off+2], buf[off+3] = byte(cur), byte(cur>>8), byte(cur>>16), byte(cur>>24)
		}
	}
}

// extractPlanarReference is the per-element planar decoder: each element
// sums its lanes at their subword positions, carries included. It is the
// value oracle for Layout.Extract.
func extractPlanarReference(al ArrayLayout, buf []byte) []int64 {
	b := al.Array.SubwordBits
	lpw := al.LanesPerWord()
	laneMask := elemMask(al.LaneBits)
	vals := make([]int64, al.Array.Len)
	for i := range vals {
		var acc uint64
		for sub := 0; sub < al.NumPlanes; sub++ {
			plane := al.PlaneForSub(sub)
			word := i / lpw
			lane := i % lpw
			off := plane*al.PlaneBytes + word*4
			cur := uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24
			lv := uint64(cur>>(lane*al.LaneBits)) & laneMask
			acc += lv << (b * sub)
		}
		vals[i] = int64(acc & elemMask(al.Array.ElemBits))
	}
	return vals
}

// TestPlanarRoundTripProperty: subword-major encode/decode is the identity
// for every pragma configuration — the transposition of Figure 7 loses
// nothing — and Install writes exactly the bytes of the per-element
// encoder, so an encoding change that is consistent in both directions
// still fails. Extract must also match the per-element decoder on
// arbitrary plane contents (provisioned lanes holding carries).
func TestPlanarRoundTripProperty(t *testing.T) {
	cfgs := []struct {
		elem, bits, value int
		prov              bool
		swp               bool // ModeSWP with vectorized loads instead of ModeSWV
		lens              []int
		wantLane          int
	}{
		{elem: 32, bits: 8, value: 32, prov: true}, {elem: 32, bits: 8, value: 32},
		{elem: 32, bits: 4, value: 32, prov: true}, {elem: 32, bits: 4, value: 32},
		{elem: 16, bits: 8, value: 16}, {elem: 16, bits: 4, value: 16, prov: true},
		{elem: 32, bits: 8, value: 31, prov: true}, {elem: 32, bits: 4, value: 24, prov: true},
		{elem: 16, bits: 4, value: 12},
		// Lane widths that round up to a divisor of 32.
		{elem: 16, bits: 3, value: 12, wantLane: 4},
		{elem: 16, bits: 3, value: 16, prov: true, wantLane: 8},
		{elem: 32, bits: 6, value: 32, wantLane: 8},
		{elem: 8, bits: 3, value: 8, lens: []int{1, 7, 9}, wantLane: 4},
		// Figure 12's subword-vectorized loads: unprovisioned ASP planes.
		{elem: 16, bits: 4, value: 12, swp: true, wantLane: 4},
		{elem: 32, bits: 8, value: 32, swp: true, wantLane: 8},
		{elem: 16, bits: 3, value: 12, swp: true, wantLane: 4},
		{elem: 32, bits: 16, value: 32, prov: true, lens: []int{1, 2, 3}, wantLane: 32},
	}
	for _, cfg := range cfgs {
		lens := cfg.lens
		if lens == nil {
			// 21 leaves the last word partly filled at every lane width
			// below 32 bits; 32 fills it.
			lens = []int{21, 32}
		}
		for _, n := range lens {
			arr := Array{
				Name: "A", ElemBits: cfg.elem, Len: n, ValueBits: cfg.value,
				Pragma: PragmaASV, SubwordBits: cfg.bits, Provisioned: cfg.prov,
			}
			mode := ModeSWV
			if cfg.swp {
				arr.Pragma, arr.Provisioned, mode = PragmaASP, false, ModeSWP
			}
			l, err := BuildLayout(&Kernel{Name: "t", Arrays: []Array{arr}}, mode, cfg.swp)
			if err != nil {
				t.Fatal(err)
			}
			al := l.Arrays["A"]
			if !al.Planar {
				t.Fatalf("%+v: layout is not planar", cfg)
			}
			if cfg.wantLane != 0 && al.LaneBits != cfg.wantLane {
				t.Fatalf("%+v: lane width %d, want %d", cfg, al.LaneBits, cfg.wantLane)
			}
			rng := rand.New(rand.NewSource(int64(cfg.elem*cfg.bits + n)))
			limit := int64(1) << cfg.value
			// Install a full array and a short prefix of one.
			for _, k := range []int{n, n / 2} {
				m := mem.New(mem.DefaultConfig())
				vals := make([]int64, k)
				for i := range vals {
					vals[i] = rng.Int63n(limit)
				}
				if err := l.Install(m, "A", vals); err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				got := make([]byte, al.TotalBytes)
				if err := m.ReadData(al.Base, got); err != nil {
					t.Fatal(err)
				}
				want := make([]byte, al.TotalBytes)
				encodePlanarReference(al, vals, want)
				if string(got) != string(want) {
					t.Fatalf("%+v len %d/%d: Install bytes\n got %x\nwant %x", cfg, k, n, got, want)
				}
				out, err := l.AppendExtract(nil, m, "A")
				if err != nil {
					t.Fatal(err)
				}
				for i := range out {
					var v int64
					if i < k {
						v = vals[i]
					}
					if out[i] != v {
						t.Fatalf("%+v len %d/%d: A[%d] = %d, want %d", cfg, k, n, i, out[i], v)
					}
				}
			}
			// Arbitrary plane contents, e.g. lanes holding carries.
			m := mem.New(mem.DefaultConfig())
			raw, err := m.DataWindow(al.Base, al.TotalBytes)
			if err != nil {
				t.Fatal(err)
			}
			rng.Read(raw)
			out, err := l.AppendExtract(nil, m, "A")
			if err != nil {
				t.Fatal(err)
			}
			if want := extractPlanarReference(al, raw); !slices.Equal(out, want) {
				t.Fatalf("%+v len %d: Extract of raw planes\n got %v\nwant %v", cfg, n, out, want)
			}
		}
	}
}

func TestInstallRejectsOverflow(t *testing.T) {
	k := &Kernel{Name: "t", Arrays: []Array{{
		Name: "A", ElemBits: 16, Len: 4, ValueBits: 12,
		Pragma: PragmaASP, SubwordBits: 4,
	}}}
	l, err := BuildLayout(k, ModePrecise, false)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(mem.DefaultConfig())
	if err := l.Install(m, "A", []int64{4096}); err == nil {
		t.Fatal("values beyond the declared precision must be rejected")
	}
	if err := l.Install(m, "A", []int64{-1}); err == nil {
		t.Fatal("negative values must be rejected for annotated arrays")
	}
}

func TestInstallRejectsWrongLength(t *testing.T) {
	k := &Kernel{Name: "t", Arrays: []Array{{Name: "A", ElemBits: 16, Len: 2}}}
	l, _ := BuildLayout(k, ModePrecise, false)
	m := mem.New(mem.DefaultConfig())
	if err := l.Install(m, "A", []int64{1, 2, 3}); err == nil {
		t.Fatal("too many values must be rejected")
	}
	if _, err := l.Of("missing"); err == nil {
		t.Fatal("unknown array must error")
	}
}

// --- validation ---

func TestKernelValidation(t *testing.T) {
	good := &Kernel{
		Name: "ok",
		Arrays: []Array{
			{Name: "A", ElemBits: 16, Len: 8, Pragma: PragmaASP, SubwordBits: 8},
			{Name: "O", ElemBits: 32, Len: 8},
		},
		Body: []Stmt{Loop{Var: "i", N: 8, Body: []Stmt{
			Assign{Array: "O", Index: LinVar("i", 1, 0),
				Value: Bin{Op: OpMul, A: Load{Array: "A", Index: LinVar("i", 1, 0)}, B: Const{V: 3}}},
		}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}

	bad := []*Kernel{
		{Name: "dup", Arrays: []Array{{Name: "A", ElemBits: 16, Len: 1}, {Name: "A", ElemBits: 16, Len: 1}}},
		{Name: "width", Arrays: []Array{{Name: "A", ElemBits: 12, Len: 1}}},
		{Name: "len", Arrays: []Array{{Name: "A", ElemBits: 16, Len: 0}}},
		{Name: "sub", Arrays: []Array{{Name: "A", ElemBits: 16, Len: 1, Pragma: PragmaASP, SubwordBits: 5}}},
		{Name: "vbits", Arrays: []Array{{Name: "A", ElemBits: 16, Len: 1, ValueBits: 20}}},
		{Name: "undeclared", Body: []Stmt{Assign{Array: "X", Index: LinConst(0), Value: Const{V: 1}}}},
		{Name: "freevar", Arrays: []Array{{Name: "A", ElemBits: 16, Len: 4}},
			Body: []Stmt{Assign{Array: "A", Index: LinVar("i", 1, 0), Value: Const{V: 1}}}},
		{Name: "shadow", Arrays: []Array{{Name: "A", ElemBits: 16, Len: 4}},
			Body: []Stmt{Loop{Var: "i", N: 2, Body: []Stmt{Loop{Var: "i", N: 2, Body: []Stmt{
				Assign{Array: "A", Index: LinConst(0), Value: Const{V: 1}}}}}}}},
		{Name: "badshift", Arrays: []Array{{Name: "A", ElemBits: 16, Len: 4}},
			Body: []Stmt{Assign{Array: "A", Index: LinConst(0),
				Value: Bin{Op: OpShr, A: Const{V: 4}, B: Load{Array: "A", Index: LinConst(0)}}}}},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("kernel %q should fail validation", k.Name)
		}
	}
}

// --- pass structure ---

func aspKernel(bits int) *Kernel {
	return &Kernel{
		Name: "asp",
		Arrays: []Array{
			{Name: "A", ElemBits: 16, Len: 8, Pragma: PragmaASP, SubwordBits: bits},
			{Name: "F", ElemBits: 16, Len: 8},
			{Name: "X", ElemBits: 32, Len: 8},
		},
		Body: []Stmt{Loop{Var: "i", N: 8, Body: []Stmt{
			Assign{Array: "X", Index: LinVar("i", 1, 0),
				Value: Bin{Op: OpMul,
					A: Load{Array: "F", Index: LinVar("i", 1, 0)},
					B: Load{Array: "A", Index: LinVar("i", 1, 0)}}},
		}}},
	}
}

func TestSWPFissionCount(t *testing.T) {
	// "The loop is split twice for the 8-bit case and 4 times for the
	// 4-bit case" (Section III-A) for 16-bit data.
	for bits, want := range map[int]int{8: 2, 4: 4, 2: 8, 1: 16} {
		segs, numSub, err := swpTransform(aspKernel(bits), false)
		if err != nil {
			t.Fatal(err)
		}
		if numSub != want || len(segs) != want {
			t.Errorf("bits=%d: %d passes, want %d", bits, len(segs), want)
		}
		// Every pass's assignment must have become an accumulation.
		for i, seg := range segs {
			lp := seg[0].(Loop)
			as := lp.Body[0].(Assign)
			if !as.Accumulate {
				t.Errorf("bits=%d pass %d: assignment should accumulate", bits, i)
			}
			mul, ok := as.Value.(ASPMul)
			if !ok {
				t.Fatalf("bits=%d pass %d: value is %T", bits, i, as.Value)
			}
			// Most significant subword first.
			if wantSub := numSub - 1 - i; mul.Sub != wantSub {
				t.Errorf("bits=%d pass %d: sub=%d, want %d", bits, i, mul.Sub, wantSub)
			}
		}
	}
}

func TestSWPRequiresPragma(t *testing.T) {
	k := aspKernel(8)
	k.Arrays[0].Pragma = PragmaNone
	if _, _, err := swpTransform(k, false); err == nil {
		t.Fatal("SWP without an asp pragma should fail")
	}
}

func TestSWVElementwiseStructure(t *testing.T) {
	mk := func(name string) Array {
		return Array{Name: name, ElemBits: 32, Len: 16, Pragma: PragmaASV, SubwordBits: 8, Provisioned: true}
	}
	k := &Kernel{
		Name:   "swv",
		Arrays: []Array{mk("A"), mk("B"), mk("X")},
		Body: []Stmt{Loop{Var: "i", N: 16, Body: []Stmt{
			Assign{Array: "X", Index: LinVar("i", 1, 0),
				Value: Bin{Op: OpAdd,
					A: Load{Array: "A", Index: LinVar("i", 1, 0)},
					B: Load{Array: "B", Index: LinVar("i", 1, 0)}}},
		}}},
	}
	segs, aug, numSub, err := swvTransform(k)
	if err != nil {
		t.Fatal(err)
	}
	if numSub != 4 || len(segs) != 4 {
		t.Fatalf("passes = %d, want 4", len(segs))
	}
	if len(aug.Arrays) != 3 {
		t.Fatal("element-wise SWV needs no synthesized arrays")
	}
	lp := segs[0][0].(Loop)
	if lp.N != 16/2 { // provisioned 8-bit: 2 lanes per word
		t.Fatalf("packed loop trip = %d, want 8", lp.N)
	}
	pa := lp.Body[0].(PackedAssign)
	if pa.Plane != 0 {
		t.Fatal("first pass must write plane 0 (most significant)")
	}
	bin := pa.Value.(ASVBin)
	if bin.LaneBits != 16 {
		t.Fatalf("lane bits = %d, want 16 (provisioned)", bin.LaneBits)
	}
}

func TestSWVReductionSynthesizesSum(t *testing.T) {
	k := &Kernel{
		Name: "red",
		Arrays: []Array{
			{Name: "S", ElemBits: 32, Len: 64, Pragma: PragmaASV, SubwordBits: 8, Provisioned: true},
			{Name: "O", ElemBits: 32, Len: 1},
		},
		Body: []Stmt{
			Assign{Array: "O", Index: LinConst(0),
				Value: Bin{Op: OpShr,
					A: Reduce{Var: "i", N: 64, Body: Load{Array: "S", Index: LinVar("i", 1, 0)}},
					B: Const{V: 6}}},
		},
	}
	segs, aug, _, err := swvTransform(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(aug.Arrays) != 3 || aug.Arrays[2].Name != "__sum_O" {
		t.Fatalf("synthesized arrays wrong: %+v", aug.Arrays)
	}
	// Each pass: accumulate VecReduce into __sum_O, then recompute O.
	if len(segs[0]) != 2 {
		t.Fatalf("pass has %d statements, want 2", len(segs[0]))
	}
	acc := segs[0][0].(Assign)
	if acc.Array != "__sum_O" || !acc.Accumulate {
		t.Fatalf("first statement should accumulate into the sum array: %+v", acc)
	}
	vr := acc.Value.(VecReduce)
	if vr.ChunkWords <= 0 || vr.NumWords%vr.ChunkWords != 0 {
		t.Fatalf("chunking wrong: %+v", vr)
	}
	// Lane overflow safety: ChunkWords*maxSubword must fit a lane.
	if vr.ChunkWords*int64((1<<8)-1) >= 1<<vr.LaneBits {
		t.Fatalf("chunk %d can overflow %d-bit lanes", vr.ChunkWords, vr.LaneBits)
	}
	fin := segs[0][1].(Assign)
	if fin.Array != "O" || fin.Accumulate {
		t.Fatalf("second statement should recompute the output: %+v", fin)
	}
}

func TestSWVRejectsUnsupported(t *testing.T) {
	k := &Kernel{
		Name: "bad",
		Arrays: []Array{
			{Name: "S", ElemBits: 32, Len: 10, Pragma: PragmaASV, SubwordBits: 8},
			{Name: "O", ElemBits: 32, Len: 1},
		},
		Body: []Stmt{
			Assign{Array: "O", Index: LinConst(0),
				Value: Reduce{Var: "i", N: 10, // 10 elements don't fill 4-lane words
					Body: Load{Array: "S", Index: LinVar("i", 1, 0)}}},
		},
	}
	if _, _, _, err := swvTransform(k); err == nil {
		t.Fatal("non-lane-divisible reduction should be rejected")
	}
}

func TestCompileProducesSkims(t *testing.T) {
	c, err := Compile(aspKernel(8), Options{Mode: ModeSWP})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(c.Asm, "SKM"); n != 1 {
		t.Fatalf("SKM count = %d, want 1 (between the two 8-bit passes)", n)
	}
	if !strings.Contains(c.Asm, "MUL_ASP8") {
		t.Fatal("anytime multiply missing")
	}
	c4, err := Compile(aspKernel(4), Options{Mode: ModeSWP})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(c4.Asm, "SKM"); n != 3 {
		t.Fatalf("SKM count = %d, want 3 (between four 4-bit passes)", n)
	}
	noskim, err := Compile(aspKernel(4), Options{Mode: ModeSWP, NoSkim: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(noskim.Asm, "SKM") {
		t.Fatal("NoSkim must suppress skim points")
	}
}

func TestCompilePreciseHasNoWNInstructions(t *testing.T) {
	c, err := Compile(aspKernel(8), Options{Mode: ModePrecise})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"MUL_ASP", "ADD_ASV", "SKM"} {
		if strings.Contains(c.Asm, bad) {
			t.Errorf("precise build contains %s", bad)
		}
	}
	if !strings.Contains(c.Asm, ".amenable") {
		t.Error("precise build should mark amenable instructions for Table I")
	}
}

func TestCompileUnknownMode(t *testing.T) {
	if _, err := Compile(aspKernel(8), Options{Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if Mode(99).String() == "" || ModeSWP.String() != "swp" || ModePrecise.String() != "precise" || ModeSWV.String() != "swv" {
		t.Fatal("mode names")
	}
}

// TestQuickLinKeyStable: lin keys must be deterministic regardless of map
// iteration order (they drive pointer-register sharing).
func TestQuickLinKeyStable(t *testing.T) {
	f := func(a, b, c int8) bool {
		l1 := Lin{Coeff: map[string]int64{"x": int64(a), "y": int64(b)}, Const: int64(c)}
		l2 := Lin{Coeff: map[string]int64{"y": int64(b), "x": int64(a)}, Const: int64(c)}
		return l1.key() == l2.key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyEmittedAtProgramGeometry: the post-emit check runs at the
// program's own geometry, so a store one word past a 4-byte layout — in
// bounds on the default 512 KB data region — fails the compile as WN403.
func TestVerifyEmittedAtProgramGeometry(t *testing.T) {
	prog, err := asm.Assemble(`
	MOVI R0, #1024
	MOVTI R0, #4096      ; R0 = data base + 1 KB
	MOVI R1, #7
	STR R1, [R0, #0]
	HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	geo := geometry(prog, &Layout{TotalBytes: 4})
	if geo.DataBytes != 1<<10 {
		t.Fatalf("data region %d B for a 4 B layout, want 1 KB", geo.DataBytes)
	}
	if _, err := verifyEmitted("oob", prog, geo); err == nil || !strings.Contains(err.Error(), "WN403") {
		t.Errorf("store at the end of the sized data region: got %v, want a WN403 failure", err)
	}
	if _, err := verifyEmitted("oob", prog, mem.DefaultConfig()); err != nil {
		t.Errorf("store inside the default data region: %v", err)
	}
}
