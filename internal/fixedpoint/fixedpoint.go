// Package fixedpoint provides the Q-format fixed-point arithmetic used to
// port the paper's originally floating-point kernels onto the integer-only
// WN processor. The paper converts each benchmark to fixed point "keeping
// the error between the two to under 1%"; the helpers here perform those
// conversions and the tests verify the same bound against float references.
package fixedpoint

import (
	"fmt"
	"math"
)

// Q describes a signed or unsigned fixed-point format with IntBits integer
// bits and FracBits fractional bits.
type Q struct {
	IntBits  int
	FracBits int
	Signed   bool
}

// U8x8 is the unsigned 8.8 format the Conv2d image pixels use.
var U8x8 = Q{IntBits: 8, FracBits: 8}

// U4x12 is a high-precision unsigned format for coefficients in [0,16).
var U4x12 = Q{IntBits: 4, FracBits: 12}

// One returns the fixed-point representation of 1.0.
func (q Q) One() int64 { return 1 << q.FracBits }

// Max returns the largest representable value.
func (q Q) Max() float64 {
	return float64((int64(1)<<(q.IntBits+q.FracBits))-1) / float64(q.One())
}

// Min returns the smallest representable value.
func (q Q) Min() float64 {
	if !q.Signed {
		return 0
	}
	return -float64(int64(1)<<(q.IntBits+q.FracBits)) / float64(q.One())
}

// FromFloat converts with round-to-nearest and saturation.
func (q Q) FromFloat(v float64) int64 {
	scaled := math.Round(v * float64(q.One()))
	lo := q.Min() * float64(q.One())
	hi := q.Max() * float64(q.One())
	if scaled < lo {
		scaled = lo
	}
	if scaled > hi {
		scaled = hi
	}
	return int64(scaled)
}

// ConvertSlice quantizes a float slice into the format.
func ConvertSlice(q Q, vs []float64) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = q.FromFloat(v)
	}
	return out
}

// NormalizeWeights scales a positive float kernel so its quantized integer
// weights sum to exactly a power of two (enabling shift-based division on
// a processor with no divider) and returns the weights plus log2 of the
// sum. This is the transformation applied to the Gaussian and FIR kernels
// of the benchmarks.
func NormalizeWeights(ws []float64, logSum int) ([]int64, error) {
	var sum float64
	for _, w := range ws {
		if w < 0 {
			return nil, fmt.Errorf("fixedpoint: negative weight %v", w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("fixedpoint: zero weight sum")
	}
	target := int64(1) << logSum
	out := make([]int64, len(ws))
	var acc int64
	for i, w := range ws {
		out[i] = int64(math.Round(w / sum * float64(target)))
		if out[i] < 1 {
			out[i] = 1
		}
		acc += out[i]
	}
	// Spread the rounding residue over the largest weights.
	for acc != target {
		idx := 0
		for i := range out {
			if out[i] > out[idx] {
				idx = i
			}
		}
		if acc < target {
			out[idx]++
			acc++
		} else if out[idx] > 1 {
			out[idx]--
			acc--
		} else {
			return nil, fmt.Errorf("fixedpoint: cannot normalize weights to 2^%d", logSum)
		}
	}
	return out, nil
}
