package compiler

import (
	"encoding/binary"
	"fmt"
	"slices"

	"whatsnext/internal/mem"
)

// Mode selects the compilation strategy.
type Mode int

const (
	ModePrecise Mode = iota // conventional full-precision code
	ModeSWP                 // anytime subword pipelining (Section III-A)
	ModeSWV                 // anytime subword vectorization (Section III-B)
)

func (m Mode) String() string {
	switch m {
	case ModePrecise:
		return "precise"
	case ModeSWP:
		return "swp"
	case ModeSWV:
		return "swv"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ArrayLayout records where and how one array lives in non-volatile data
// memory. Planar arrays are stored in subword-major order (Figure 7): plane
// 0 holds the most significant subword of every element, packed into
// LaneBits-wide lanes inside 32-bit words.
type ArrayLayout struct {
	Array      Array
	Base       uint32
	Planar     bool
	LaneBits   int // lane width in planes: SubwordBits, doubled if provisioned
	NumPlanes  int // subwords per element
	PlaneBytes int // bytes per plane, word-aligned
	TotalBytes int
}

// LanesPerWord returns how many lanes one 32-bit word holds.
func (al ArrayLayout) LanesPerWord() int { return 32 / al.LaneBits }

// PlaneForSub maps a least-significant-first subword index to its plane
// index (plane 0 is the most significant subword, stored first).
func (al ArrayLayout) PlaneForSub(sub int) int { return al.NumPlanes - 1 - sub }

// PlaneBase returns the address of a plane.
func (al ArrayLayout) PlaneBase(plane int) uint32 {
	return al.Base + uint32(plane*al.PlaneBytes)
}

// SubBits returns the width in bits of the given subword (the top subword
// may be narrower when SubwordBits does not divide the significant width).
func (al ArrayLayout) SubBits(sub int) int {
	b := al.Array.SubwordBits
	if rem := al.Array.EffectiveBits() - sub*b; rem < b {
		return rem
	}
	return b
}

// ElemBytes returns the element size of a row-major array.
func (al ArrayLayout) ElemBytes() int { return al.Array.ElemBits / 8 }

// Layout places every kernel array in data memory.
type Layout struct {
	Arrays     map[string]ArrayLayout
	TotalBytes int
}

// BuildLayout assigns addresses. SWV-annotated arrays become planar in
// ModeSWV; ASP-annotated arrays become planar (unprovisioned) in ModeSWP
// when vectorLoads is set — the Figure 12 load-vectorization option.
func BuildLayout(k *Kernel, mode Mode, vectorLoads bool) (*Layout, error) {
	l := &Layout{Arrays: make(map[string]ArrayLayout, len(k.Arrays))}
	addr := uint32(mem.DataBase)
	for _, a := range k.Arrays {
		al := ArrayLayout{Array: a, Base: addr}
		planar := (mode == ModeSWV && a.Pragma == PragmaASV) ||
			(mode == ModeSWP && vectorLoads && a.Pragma == PragmaASP)
		if planar {
			b := a.SubwordBits
			if b <= 0 {
				return nil, fmt.Errorf("compiler: array %q is annotated but has no subword size", a.Name)
			}
			al.Planar = true
			al.NumPlanes = (a.EffectiveBits() + b - 1) / b
			al.LaneBits = b
			if mode == ModeSWV && a.Provisioned {
				al.LaneBits = 2 * b
			}
			// Round lane width up to a divisor of 32 so lanes never
			// straddle words: 1,2,4,8,16 are fine; 3 and 6 round to 4 and 8.
			for 32%al.LaneBits != 0 {
				al.LaneBits++
			}
			lpw := 32 / al.LaneBits
			words := (a.Len + lpw - 1) / lpw
			al.PlaneBytes = words * 4
			al.TotalBytes = al.PlaneBytes * al.NumPlanes
		} else {
			al.TotalBytes = a.Len * a.ElemBits / 8
			al.TotalBytes = (al.TotalBytes + 3) &^ 3
		}
		l.Arrays[a.Name] = al
		addr += uint32(al.TotalBytes)
		// Keep arrays word-aligned.
		addr = (addr + 3) &^ 3
	}
	l.TotalBytes = int(addr - mem.DataBase)
	return l, nil
}

// Of returns the layout of a named array.
func (l *Layout) Of(name string) (ArrayLayout, error) {
	al, ok := l.Arrays[name]
	if !ok {
		return ArrayLayout{}, fmt.Errorf("compiler: no layout for array %q", name)
	}
	return al, nil
}

func elemMask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (1 << bits) - 1
}

// Install writes element values into memory in the array's layout. Values
// are truncated to the element width.
func (l *Layout) Install(m *mem.Memory, name string, vals []int64) error {
	al, err := l.Of(name)
	if err != nil {
		return err
	}
	if len(vals) > al.Array.Len {
		return fmt.Errorf("compiler: %d values for array %q of length %d", len(vals), name, al.Array.Len)
	}
	if al.Array.Pragma != PragmaNone {
		limit := int64(1) << al.Array.EffectiveBits()
		for i, v := range vals {
			if v < 0 || v >= limit {
				return fmt.Errorf("compiler: array %q element %d (%d) exceeds its declared %d-bit precision",
					name, i, v, al.Array.EffectiveBits())
			}
		}
	}
	buf, err := m.DataWindow(al.Base, al.TotalBytes)
	if err != nil {
		return err
	}
	// Zeroed first: elements past len(vals) and planar padding stay zero.
	clear(buf)
	if al.Planar {
		encodePlanar(&al, vals, buf)
	} else {
		mask := elemMask(al.Array.ElemBits)
		switch eb := al.ElemBytes(); eb {
		case 1:
			for i, v := range vals {
				buf[i] = byte(uint64(v) & mask)
			}
		case 2:
			for i, v := range vals {
				u := uint64(v) & mask
				buf[2*i] = byte(u)
				buf[2*i+1] = byte(u >> 8)
			}
		case 4:
			for i, v := range vals {
				u := uint64(v) & mask
				buf[4*i] = byte(u)
				buf[4*i+1] = byte(u >> 8)
				buf[4*i+2] = byte(u >> 16)
				buf[4*i+3] = byte(u >> 24)
			}
		default:
			for i, v := range vals {
				u := uint64(v) & mask
				for b := 0; b < eb; b++ {
					buf[i*eb+b] = byte(u >> (8 * b))
				}
			}
		}
	}
	return nil
}

// Fill writes the same raw element value into every slot of a row-major
// array (used to pre-fill progress-embedded outputs with the reserved
// sentinel; the value bypasses precision validation deliberately — the
// sentinel sits outside the quantized range by construction).
func (l *Layout) Fill(m *mem.Memory, name string, raw uint32) error {
	al, err := l.Of(name)
	if err != nil {
		return err
	}
	if al.Planar {
		return fmt.Errorf("compiler: cannot fill planar array %q", name)
	}
	buf, err := m.DataWindow(al.Base, al.TotalBytes)
	if err != nil {
		return err
	}
	clear(buf) // the padding after the last element stays zero
	eb := al.ElemBytes()
	for i := 0; i < al.Array.Len; i++ {
		for b := 0; b < eb; b++ {
			buf[i*eb+b] = byte(raw >> (8 * b))
		}
	}
	return nil
}

// encodePlanar packs vals into the planes of a zeroed buffer. Each plane's
// subword shift, mask and offset are fixed per call; its words are built in
// a register and stored once.
func encodePlanar(al *ArrayLayout, vals []int64, buf []byte) {
	b, lb, lpw := al.Array.SubwordBits, al.LaneBits, al.LanesPerWord()
	elem := elemMask(al.Array.ElemBits)
	for sub := 0; sub < al.NumPlanes; sub++ {
		shift, mask := b*sub, elemMask(al.SubBits(sub))
		plane := buf[al.PlaneForSub(sub)*al.PlaneBytes:]
		for w := 0; w*lpw < len(vals); w++ {
			var word uint32
			for lane, v := range vals[w*lpw : min((w+1)*lpw, len(vals))] {
				word |= uint32((uint64(v)&elem)>>shift&mask) << (lane * lb)
			}
			binary.LittleEndian.PutUint32(plane[4*w:], word)
		}
	}
}

// AppendOutputValues appends output array name's elements, read back out
// of memory and scaled by its PostShift into the display domain of the
// quality metrics, to dst and returns the extended slice. Planar arrays are
// reconstructed by summing lanes at their subword positions — the
// carry-aware reconstruction that makes provisioned vectorization exact. A
// caller that scores many samples passes its buffer back as dst[:0], so
// decoding allocates only while the buffer grows.
func (l *Layout) AppendOutputValues(dst []float64, m *mem.Memory, name string) ([]float64, error) {
	// An unknown name reads a zero shift here and fails in appendElems.
	return appendElems(l, dst, m, name, l.Arrays[name].Array.PostShift)
}

// appendElems appends array name's elements, in element order, each
// shifted right by shift, to dst. On error dst comes back unchanged.
func appendElems[T int64 | float64](l *Layout, dst []T, m *mem.Memory, name string, shift int) ([]T, error) {
	al, err := l.Of(name)
	if err != nil {
		return dst, err
	}
	buf, err := m.DataWindow(al.Base, al.TotalBytes)
	if err != nil {
		return dst, err
	}
	n := al.Array.Len
	dst = slices.Grow(dst, n)
	if !al.Planar {
		eb := al.ElemBytes()
		for i := 0; i < n; i++ {
			var u uint64
			for bb := 0; bb < eb; bb++ {
				u |= uint64(buf[i*eb+bb]) << (8 * bb)
			}
			dst = append(dst, T(u>>shift))
		}
		return dst, nil
	}
	// One word of every plane holds the lanes of the same lpw elements. Sum
	// each element's lanes at their planes' subword positions (uint64
	// wraparound is order-independent), then truncate to the element width.
	b, lb, lpw := al.Array.SubwordBits, al.LaneBits, al.LanesPerWord()
	laneMask := uint32(elemMask(lb))
	elem := elemMask(al.Array.ElemBits)
	var acc [32]uint64 // lpw <= 32
	for w := 0; w*lpw < n; w++ {
		lanes := acc[:min(lpw, n-w*lpw)]
		clear(lanes)
		for sub := 0; sub < al.NumPlanes; sub++ {
			pos := b * sub
			cur := binary.LittleEndian.Uint32(buf[al.PlaneForSub(sub)*al.PlaneBytes+4*w:])
			for lane := range lanes {
				lanes[lane] += uint64(cur&laneMask) << pos
				cur >>= lb
			}
		}
		for _, v := range lanes {
			dst = append(dst, T((v&elem)>>shift))
		}
	}
	return dst, nil
}
