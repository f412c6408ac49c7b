package compiler_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/mem"
	"whatsnext/internal/workloads"
)

// refDecode is the reference decoder: it reads each element on its own from
// a copy of the array's bytes. A planar element is the sum of its lanes,
// each at its plane's subword position, truncated to the element width.
func refDecode(t *testing.T, m *mem.Memory, al compiler.ArrayLayout) []uint64 {
	t.Helper()
	data := make([]byte, al.TotalBytes)
	if err := m.ReadData(al.Base, data); err != nil {
		t.Fatal(err)
	}
	mask := func(bits int) uint64 { return math.MaxUint64 >> (64 - bits) }
	out := make([]uint64, al.Array.Len)
	for i := range out {
		if !al.Planar {
			eb := al.ElemBytes()
			for b := eb - 1; b >= 0; b-- {
				out[i] = out[i]<<8 | uint64(data[i*eb+b])
			}
			continue
		}
		lpw := al.LanesPerWord()
		var v uint64
		for sub := 0; sub < al.NumPlanes; sub++ {
			word := binary.LittleEndian.Uint32(data[al.PlaneForSub(sub)*al.PlaneBytes+4*(i/lpw):])
			lane := uint64(word>>(al.LaneBits*(i%lpw))) & mask(al.LaneBits)
			v += lane << (al.Array.SubwordBits * sub)
		}
		out[i] = v & mask(al.Array.ElemBits)
	}
	return out
}

// TestAppendDecodeMatchesReference: every array of every Table I kernel,
// in precise, SWP and SWV builds (SWV provisioned and not) at 1, 2, 4 and 8
// bits, decodes bit for bit as the reference decoder does, over random
// memory contents. One buffer per element type is reused across all of
// them, so a decode into a buffer that held a longer array must not keep
// its stale tail.
func TestAppendDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ints []int64
	var floats []float64
	var planar, provisioned, shifted, shrunk int
	for _, b := range workloads.All() {
		p := b.ScaledParams()
		type build struct {
			mode        compiler.Mode
			bits        int
			provisioned bool
		}
		builds := []build{{compiler.ModePrecise, 8, false}}
		for _, bits := range []int{1, 2, 4, 8} {
			builds = append(builds, build{b.Mode, bits, true})
			if b.Mode == compiler.ModeSWV {
				builds = append(builds, build{b.Mode, bits, false})
			}
		}
		// The ISA's vector lanes are 4, 8 and 16 bits wide, so SWV builds
		// need a lane (twice the subword when provisioned) of at least 4.
		builds = slices.DeleteFunc(builds, func(bd build) bool {
			lane := bd.bits
			if bd.provisioned {
				lane *= 2
			}
			return bd.mode == compiler.ModeSWV && lane < 4
		})
		for _, bd := range builds {
			c, err := compiler.Compile(b.Build(p, bd.bits, bd.provisioned), compiler.Options{Mode: bd.mode})
			if err != nil {
				t.Fatalf("%s %s%d: %v", b.Name, bd.mode, bd.bits, err)
			}
			m := mem.New(c.Mem)
			window, err := m.DataWindow(mem.DataBase, c.Layout.TotalBytes)
			if err != nil {
				t.Fatal(err)
			}
			rng.Read(window)
			for _, a := range c.Kernel.Arrays {
				al := c.Layout.Arrays[a.Name]
				if al.Planar {
					planar++
					if al.LaneBits >= 2*a.SubwordBits {
						provisioned++
					}
				}
				if a.PostShift != 0 {
					shifted++
				}
				want := refDecode(t, m, al)
				if len(want) < len(ints) {
					shrunk++
				}
				if ints, err = c.Layout.AppendExtract(ints[:0], m, a.Name); err != nil {
					t.Fatal(err)
				}
				if floats, err = c.Layout.AppendOutputValues(floats[:0], m, a.Name); err != nil {
					t.Fatal(err)
				}
				if len(ints) != len(want) || len(floats) != len(want) {
					t.Fatalf("%s %s%d %s: decoded %d and %d values, want %d",
						b.Name, bd.mode, bd.bits, a.Name, len(ints), len(floats), len(want))
				}
				for i, w := range want {
					fw := float64(w >> a.PostShift)
					if uint64(ints[i]) != w || math.Float64bits(floats[i]) != math.Float64bits(fw) {
						t.Fatalf("%s %s%d %s[%d]: decoded %d and %v, reference %d and %v",
							b.Name, bd.mode, bd.bits, a.Name, i, ints[i], floats[i], w, fw)
					}
				}
			}
		}
	}
	if planar == 0 || provisioned == 0 || provisioned == planar || shifted == 0 || shrunk == 0 {
		t.Errorf("coverage: %d planar arrays (%d provisioned), %d with a PostShift, %d decodes into a longer buffer; want each kind",
			planar, provisioned, shifted, shrunk)
	}
}

// TestAppendDecodeKeepsPrefix: the decoders append after what dst already
// holds, and an unknown array name fails with the layout's error and hands
// dst back unchanged.
func TestAppendDecodeKeepsPrefix(t *testing.T) {
	b := workloads.Conv2d()
	c, err := compiler.Compile(b.Build(b.ScaledParams(), 4, true), compiler.Options{Mode: b.Mode})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(c.Mem)
	if err := c.InstallData(m, b.Inputs(b.ScaledParams(), 1)); err != nil {
		t.Fatal(err)
	}
	name := c.Kernel.Arrays[0].Name
	alone, err := c.Layout.AppendExtract(nil, m, name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Layout.AppendExtract([]int64{-7}, m, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(alone) || got[0] != -7 {
		t.Fatalf("append after one element: %d values starting %d, want %d starting -7", len(got), got[0], 1+len(alone))
	}
	for i, v := range alone {
		if got[1+i] != v {
			t.Fatalf("element %d appended as %d, alone %d", i, got[1+i], v)
		}
	}

	const want = `compiler: no layout for array "NOPE"`
	ints, err := c.Layout.AppendExtract([]int64{1, 2}, m, "NOPE")
	if err == nil || err.Error() != want || len(ints) != 2 {
		t.Errorf("AppendExtract of an unknown array: %d values, err %v; want 2 values and %q", len(ints), err, want)
	}
	floats, err := c.Layout.AppendOutputValues([]float64{1}, m, "NOPE")
	if err == nil || err.Error() != want || len(floats) != 1 {
		t.Errorf("AppendOutputValues of an unknown array: %d values, err %v; want 1 value and %q", len(floats), err, want)
	}
}
