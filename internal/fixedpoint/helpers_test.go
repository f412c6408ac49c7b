package fixedpoint

import (
	"fmt"
	"math"
)

// The inverse conversion, the format's width and rendering, and the
// truncating multiply and quantization error the fidelity tests measure
// with. The kernels only ever convert into fixed point (FromFloat,
// ConvertSlice, NormalizeWeights); these exist for the tests.

// Bits returns the total storage width.
func (q Q) Bits() int {
	b := q.IntBits + q.FracBits
	if q.Signed {
		b++
	}
	return b
}

// ToFloat converts back to floating point.
func (q Q) ToFloat(v int64) float64 {
	return float64(v) / float64(q.One())
}

// Quantize rounds a float through the format (the conversion error a port
// to fixed point incurs).
func (q Q) Quantize(v float64) float64 { return q.ToFloat(q.FromFloat(v)) }

// String renders the format conventionally (e.g. "UQ8.8").
func (q Q) String() string {
	s := "UQ"
	if q.Signed {
		s = "Q"
	}
	return fmt.Sprintf("%s%d.%d", s, q.IntBits, q.FracBits)
}

// Mul multiplies two fixed-point values of the same format, keeping the
// format (truncating the extra fractional bits like the hardware shift in
// the generated kernels does).
func (q Q) Mul(a, b int64) int64 {
	return a * b >> q.FracBits
}

// MaxRelativeError returns the worst-case |quantize(v)-v|/|v| over the
// samples (ignoring zeros), in percent — the paper's conversion-fidelity
// metric.
func MaxRelativeError(q Q, vs []float64) float64 {
	worst := 0.0
	for _, v := range vs {
		if v == 0 {
			continue
		}
		if rel := math.Abs(q.Quantize(v)-v) / math.Abs(v); rel > worst {
			worst = rel
		}
	}
	return 100 * worst
}
