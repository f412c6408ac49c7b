// Package workloads defines the six Table I benchmarks of the paper as
// compiler IR kernels — Conv2d, MatMul and Var (subword pipelining) and
// MatAdd, Home and NetMotion (subword vectorization) — together with
// deterministic input generators and native golden models used for quality
// scoring.
package workloads

import (
	"fmt"
	"math/rand"

	"whatsnext/internal/compiler"
)

// Params sizes a benchmark. Zero values select the paper-scale defaults via
// the benchmark's own DefaultParams.
type Params struct {
	// Conv2d.
	ImgW, ImgH, K int
	// MatMul / MatAdd.
	N int
	// Home / Var: number of windows and window size (power of two).
	Windows, WindowSize int
	// NetMotion: number of movement samples.
	Steps int
}

// Benchmark describes one Table I kernel.
type Benchmark struct {
	Name string
	Area string
	// Mode is the WN technique the paper applies (Table I's SWP/SWV column).
	Mode compiler.Mode
	// Output is the primary output array scored for quality.
	Output string
	// DefaultParams returns the paper-scale sizes; ScaledParams returns a
	// reduced size for the heavy intermittent sweeps.
	DefaultParams func() Params
	ScaledParams  func() Params
	// Build constructs the kernel IR with pragmas at the given subword
	// size; provisioned applies to SWV benchmarks.
	Build func(p Params, subwordBits int, provisioned bool) *compiler.Kernel
	// Inputs generates deterministic inputs for a seed.
	Inputs func(p Params, seed int64) map[string][]int64
	// Golden computes the exact display-domain output natively.
	Golden func(p Params, in map[string][]int64) []float64
}

// All returns the six benchmarks in Table I order.
func All() []*Benchmark {
	return []*Benchmark{
		Conv2d(), MatMul(), MatAdd(), Home(), Var(), NetMotion(),
	}
}

// extensions holds benchmark families registered from other packages (the
// NN inference family in internal/nn registers itself here from init, so
// every caller that looks benchmarks up by name can serve them without an
// import cycle).
var extensions []*Benchmark

// RegisterExtension adds externally defined benchmarks to the ByName
// registry. Call from init only; registration order must be deterministic.
func RegisterExtension(bs ...*Benchmark) { extensions = append(extensions, bs...) }

// ByName finds a benchmark by its Table I name, one of the extension
// workloads ("Mask"), or a registered extension family.
func ByName(name string) (*Benchmark, error) {
	for _, b := range append(append(All(), MaskExtension()), extensions...) {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// gaussianKernel returns an integer binomial approximation of a KxK
// Gaussian filter and the log2 of its coefficient sum.
func gaussianKernel(k int) (coef []int64, logSum int) {
	row := make([]int64, k)
	row[0] = 1
	for i := 1; i < k; i++ {
		prev := append([]int64(nil), row[:i]...)
		row[i] = 1
		for j := i - 1; j > 0; j-- {
			row[j] = prev[j] + prev[j-1]
		}
	}
	var rowSum int64
	for _, v := range row {
		rowSum += v
	}
	logSum = 0
	for s := int64(1); s < rowSum*rowSum; s <<= 1 {
		logSum++
	}
	coef = make([]int64, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			coef[y*k+x] = row[y] * row[x]
		}
	}
	return coef, logSum
}

// Conv2d: a KxK Gaussian filter over a grayscale image held in 8.8
// fixed point (Table I: 9x9 over 128x128). The image is the #pragma asp
// input; products accumulate raw into 32-bit outputs whose display shift
// removes the coefficient sum and fixed-point scale.
func Conv2d() *Benchmark {
	return &Benchmark{
		Name:          "Conv2d",
		Area:          "Image Processing",
		Mode:          compiler.ModeSWP,
		Output:        "OUT",
		DefaultParams: func() Params { return Params{ImgW: 128, ImgH: 128, K: 9} },
		ScaledParams:  func() Params { return Params{ImgW: 32, ImgH: 32, K: 5} },
		Build: func(p Params, bits int, _ bool) *compiler.Kernel {
			w, h, k := p.ImgW, p.ImgH, p.K
			pw := w + k - 1
			ph := h + k - 1
			_, logSum := gaussianKernel(k)
			return &compiler.Kernel{
				Name: "conv2d",
				Arrays: []compiler.Array{
					{Name: "IMG", ElemBits: 16, Len: pw * ph, Pragma: compiler.PragmaASP, SubwordBits: bits},
					{Name: "COEF", ElemBits: 16, Len: k * k},
					{Name: "OUT", ElemBits: 32, Len: w * h, Output: true, PostShift: logSum + 8},
				},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "y", N: int64(h), Body: []compiler.Stmt{
						compiler.Loop{Var: "x", N: int64(w), Body: []compiler.Stmt{
							compiler.Assign{
								Array: "OUT",
								Index: compiler.LinSum(compiler.LinVar("y", int64(w), 0), compiler.LinVar("x", 1, 0)),
								Value: compiler.Reduce{Var: "ky", N: int64(k), Body: compiler.Reduce{
									Var: "kx", N: int64(k),
									Body: compiler.Bin{Op: compiler.OpMul,
										A: compiler.Load{Array: "COEF", Index: compiler.LinSum(compiler.LinVar("ky", int64(k), 0), compiler.LinVar("kx", 1, 0))},
										B: compiler.Load{Array: "IMG", Index: compiler.LinSum(
											compiler.LinVar("y", int64(pw), 0), compiler.LinVar("ky", int64(pw), 0),
											compiler.LinVar("x", 1, 0), compiler.LinVar("kx", 1, 0))},
									},
								}},
							},
						}},
					}},
				},
			}
		},
		Inputs: func(p Params, seed int64) map[string][]int64 {
			w, h, k := p.ImgW, p.ImgH, p.K
			pw, ph := w+k-1, h+k-1
			coef, _ := gaussianKernel(k)
			img := SyntheticImage(pw, ph, seed)
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			fixed := make([]int64, len(img))
			for i, v := range img {
				// 8.8 fixed point with quarter-LSB sensor precision in the
				// fraction, as a float-to-fixed conversion would produce.
				// Zero pixels stay exactly zero for zero skipping.
				if v != 0 {
					fixed[i] = v<<8 + int64(rng.Intn(4))<<6
				}
			}
			return map[string][]int64{"IMG": fixed, "COEF": coef}
		},
		Golden: func(p Params, in map[string][]int64) []float64 {
			w, h, k := p.ImgW, p.ImgH, p.K
			pw := w + k - 1
			_, logSum := gaussianKernel(k)
			img, coef := in["IMG"], in["COEF"]
			out := make([]float64, w*h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					var acc uint32
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							acc += uint32(coef[ky*k+kx]) * uint32(img[(y+ky)*pw+(x+kx)])
						}
					}
					out[y*w+x] = float64(acc >> uint(logSum+8))
				}
			}
			return out
		},
	}
}

// SyntheticImage renders a deterministic grayscale test scene (gradients,
// discs and noise) in [0,255]; it substitutes for the paper's test image.
func SyntheticImage(w, h int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	img := make([]int64, w*h)
	type disc struct{ cx, cy, r, v int }
	discs := make([]disc, 6)
	for i := range discs {
		discs[i] = disc{
			cx: rng.Intn(w), cy: rng.Intn(h),
			r: 2 + rng.Intn(max(2, w/4)), v: 40 + rng.Intn(215),
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Quantized background gradient with a dark (zero) corner, as a
			// camera scene with shadow would have; flat regions and zeros
			// feed the memoization and zero-skipping units.
			v := (x*255)/max(1, w-1)/2 + (y*255)/max(1, h-1)/4
			v = v &^ 0xF
			if x < w/4 && y < h/4 {
				v = 0
			}
			for _, d := range discs {
				dx, dy := x-d.cx, y-d.cy
				if dx*dx+dy*dy <= d.r*d.r {
					v = d.v
				}
			}
			if rng.Intn(100) < 15 {
				v += rng.Intn(17) - 8
			}
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img[y*w+x] = int64(v)
		}
	}
	return img
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MatMul: OUT = A x B over NxN matrices (Table I: 64x64, 16-bit fixed
// point). A is the #pragma asp input and carries full 16-bit magnitudes; B
// holds 8-bit magnitudes so 64-term dot products fit 32-bit accumulators.
func MatMul() *Benchmark {
	return &Benchmark{
		Name:          "MatMul",
		Area:          "Data processing",
		Mode:          compiler.ModeSWP,
		Output:        "OUT",
		DefaultParams: func() Params { return Params{N: 64} },
		ScaledParams:  func() Params { return Params{N: 32} },
		Build: func(p Params, bits int, _ bool) *compiler.Kernel {
			n := int64(p.N)
			return &compiler.Kernel{
				Name: "matmul",
				Arrays: []compiler.Array{
					{Name: "A", ElemBits: 16, Len: p.N * p.N, Pragma: compiler.PragmaASP, SubwordBits: bits},
					{Name: "B", ElemBits: 16, Len: p.N * p.N},
					{Name: "OUT", ElemBits: 32, Len: p.N * p.N, Output: true},
				},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "i", N: n, Body: []compiler.Stmt{
						compiler.Loop{Var: "j", N: n, Body: []compiler.Stmt{
							compiler.Assign{
								Array: "OUT",
								Index: compiler.LinSum(compiler.LinVar("i", n, 0), compiler.LinVar("j", 1, 0)),
								Value: compiler.Reduce{Var: "k", N: n, Body: compiler.Bin{
									Op: compiler.OpMul,
									A:  compiler.Load{Array: "B", Index: compiler.LinSum(compiler.LinVar("k", n, 0), compiler.LinVar("j", 1, 0))},
									B:  compiler.Load{Array: "A", Index: compiler.LinSum(compiler.LinVar("i", n, 0), compiler.LinVar("k", 1, 0))},
								}},
							},
						}},
					}},
				},
			}
		},
		Inputs: func(p Params, seed int64) map[string][]int64 {
			rng := rand.New(rand.NewSource(seed))
			a := make([]int64, p.N*p.N)
			b := make([]int64, p.N*p.N)
			for i := range a {
				a[i] = int64(rng.Intn(1 << 16))
				b[i] = int64(rng.Intn(256))
			}
			return map[string][]int64{"A": a, "B": b}
		},
		Golden: func(p Params, in map[string][]int64) []float64 {
			n := p.N
			a, b := in["A"], in["B"]
			out := make([]float64, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var acc uint32
					for k := 0; k < n; k++ {
						acc += uint32(a[i*n+k]) * uint32(b[k*n+j])
					}
					out[i*n+j] = float64(acc)
				}
			}
			return out
		},
	}
}

// MatAdd: OUT = A + B over NxN matrices of 32-bit values (Table I), the
// paper's element-wise subword-vectorization benchmark (Figure 14's
// provisioned-vs-unprovisioned study also runs on it).
func MatAdd() *Benchmark {
	return &Benchmark{
		Name:          "MatAdd",
		Area:          "Data processing",
		Mode:          compiler.ModeSWV,
		Output:        "OUT",
		DefaultParams: func() Params { return Params{N: 64} },
		ScaledParams:  func() Params { return Params{N: 128} },
		Build: func(p Params, bits int, provisioned bool) *compiler.Kernel {
			total := int64(p.N * p.N)
			arr := func(name string, output bool) compiler.Array {
				return compiler.Array{
					Name: name, ElemBits: 32, Len: p.N * p.N, Output: output, ValueBits: 31,
					Pragma: compiler.PragmaASV, SubwordBits: bits, Provisioned: provisioned,
				}
			}
			return &compiler.Kernel{
				Name:   "matadd",
				Arrays: []compiler.Array{arr("A", false), arr("B", false), arr("OUT", true)},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "i", N: total, Body: []compiler.Stmt{
						compiler.Assign{
							Array: "OUT", Index: compiler.LinVar("i", 1, 0),
							Value: compiler.Bin{Op: compiler.OpAdd,
								A: compiler.Load{Array: "A", Index: compiler.LinVar("i", 1, 0)},
								B: compiler.Load{Array: "B", Index: compiler.LinVar("i", 1, 0)},
							},
						},
					}},
				},
			}
		},
		Inputs: func(p Params, seed int64) map[string][]int64 {
			rng := rand.New(rand.NewSource(seed))
			a := make([]int64, p.N*p.N)
			b := make([]int64, p.N*p.N)
			for i := range a {
				a[i] = int64(rng.Intn(1 << 30))
				b[i] = int64(rng.Intn(1 << 30))
			}
			return map[string][]int64{"A": a, "B": b}
		},
		Golden: func(p Params, in map[string][]int64) []float64 {
			a, b := in["A"], in["B"]
			out := make([]float64, len(a))
			for i := range a {
				out[i] = float64(uint32(a[i]) + uint32(b[i]))
			}
			return out
		},
	}
}

// Home: periodic averaging of environmental sensor windows (Table I's home
// monitoring benchmark): OUT[w] = mean of 32-bit readings in window w,
// vectorized over the readings.
func Home() *Benchmark {
	return &Benchmark{
		Name:          "Home",
		Area:          "Environmental Sensing",
		Mode:          compiler.ModeSWV,
		Output:        "OUT",
		DefaultParams: func() Params { return Params{Windows: 16, WindowSize: 64} },
		ScaledParams:  func() Params { return Params{Windows: 512, WindowSize: 64} },
		Build: func(p Params, bits int, provisioned bool) *compiler.Kernel {
			ws := int64(p.WindowSize)
			logWS := log2(p.WindowSize)
			return &compiler.Kernel{
				Name: "home",
				Arrays: []compiler.Array{
					{Name: "S", ElemBits: 32, Len: p.Windows * p.WindowSize, ValueBits: 24,
						Pragma: compiler.PragmaASV, SubwordBits: bits, Provisioned: provisioned},
					{Name: "OUT", ElemBits: 32, Len: p.Windows, Output: true},
				},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "w", N: int64(p.Windows), Body: []compiler.Stmt{
						compiler.Assign{
							Array: "OUT", Index: compiler.LinVar("w", 1, 0),
							Value: compiler.Bin{Op: compiler.OpShr,
								A: compiler.Reduce{Var: "i", N: ws,
									Body: compiler.Load{Array: "S", Index: compiler.LinSum(compiler.LinVar("w", ws, 0), compiler.LinVar("i", 1, 0))}},
								B: compiler.Const{V: int64(logWS)},
							},
						},
					}},
				},
			}
		},
		Inputs: func(p Params, seed int64) map[string][]int64 {
			rng := rand.New(rand.NewSource(seed))
			s := make([]int64, p.Windows*p.WindowSize)
			base := int64(1<<22) + int64(rng.Intn(1<<22))
			for i := range s {
				// Slowly drifting conditions with sensor noise.
				base += int64(rng.Intn(2049)) - 1024
				if base < 0 {
					base = 0
				}
				if base >= 1<<24 {
					base = 1<<24 - 1
				}
				s[i] = base
			}
			return map[string][]int64{"S": s}
		},
		Golden: func(p Params, in map[string][]int64) []float64 {
			s := in["S"]
			out := make([]float64, p.Windows)
			for w := 0; w < p.Windows; w++ {
				var acc uint32
				for i := 0; i < p.WindowSize; i++ {
					acc += uint32(s[w*p.WindowSize+i])
				}
				out[w] = float64(acc >> uint(log2(p.WindowSize)))
			}
			return out
		},
	}
}

// Var: data-logging variance of sensor windows (Table I). The sensor data
// is AC-coupled (zero baseline), so the variance is the second moment of
// the readings: OUT[w] = (sum of x^2) / WS over 12-bit deviation magnitudes
// in 16-bit storage. The squaring multiplies are the subword-pipelining
// target. (The mean-subtracted form E[x^2]-E[x]^2 is catastrophically
// ill-conditioned under one-sided subword approximation — the dropped-bits
// cross term m*E[r] dwarfs the variance — so the data-logging frontend is
// modeled as baseline-removed, which also matches the paper's always-
// positive, stepwise-improving Var curves.)
func Var() *Benchmark {
	return &Benchmark{
		Name:          "Var",
		Area:          "Environmental Sensing",
		Mode:          compiler.ModeSWP,
		Output:        "OUT",
		DefaultParams: func() Params { return Params{Windows: 16, WindowSize: 64} },
		ScaledParams:  func() Params { return Params{Windows: 128, WindowSize: 64} },
		Build: func(p Params, bits int, _ bool) *compiler.Kernel {
			ws := int64(p.WindowSize)
			logWS := int64(log2(p.WindowSize))
			widx := compiler.LinVar("w", 1, 0)
			sidx := compiler.LinSum(compiler.LinVar("w", ws, 0), compiler.LinVar("i", 1, 0))
			return &compiler.Kernel{
				Name: "var",
				Arrays: []compiler.Array{
					{Name: "S", ElemBits: 16, Len: p.Windows * p.WindowSize, ValueBits: 12, Pragma: compiler.PragmaASP, SubwordBits: bits},
					{Name: "SQ", ElemBits: 32, Len: p.Windows},
					{Name: "OUT", ElemBits: 32, Len: p.Windows, Output: true},
				},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "w", N: int64(p.Windows), Body: []compiler.Stmt{
						compiler.Assign{Array: "SQ", Index: widx,
							Value: compiler.Reduce{Var: "i", N: ws, Body: compiler.Bin{Op: compiler.OpMul,
								A: compiler.Load{Array: "S", Index: sidx},
								B: compiler.Load{Array: "S", Index: sidx}}}},
						compiler.Assign{Array: "OUT", Index: widx,
							Value: compiler.Bin{Op: compiler.OpShr, A: compiler.Load{Array: "SQ", Index: widx}, B: compiler.Const{V: logWS}}},
					}},
				},
			}
		},
		Inputs: func(p Params, seed int64) map[string][]int64 {
			return map[string][]int64{"S": SensorWindows(p.Windows, p.WindowSize, seed)}
		},
		Golden: func(p Params, in map[string][]int64) []float64 {
			s := in["S"]
			logWS := uint(log2(p.WindowSize))
			out := make([]float64, p.Windows)
			for w := 0; w < p.Windows; w++ {
				var sq uint32
				for i := 0; i < p.WindowSize; i++ {
					x := uint32(s[w*p.WindowSize+i])
					sq += x * x
				}
				out[w] = float64(sq >> logWS)
			}
			return out
		},
	}
}

// SensorWindows generates deterministic 12-bit ADC readings with varying
// per-window spread, for the Var benchmark and the Figure 17 study.
func SensorWindows(windows, windowSize int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]int64, windows*windowSize)
	for w := 0; w < windows; w++ {
		mean := 512 + rng.Intn(2048)
		spread := 16 + rng.Intn(512)
		for i := 0; i < windowSize; i++ {
			v := mean + rng.Intn(2*spread+1) - spread
			if v < 0 {
				v = 0
			}
			if v > 4095 {
				v = 4095
			}
			s[w*windowSize+i] = int64(v)
		}
	}
	return s
}

// NetMotion: wildlife location tracking (Table I): the period is divided
// into fixed-length segments and the net movement of each segment is the
// vectorized sum of its per-step displacement magnitudes along each axis.
func NetMotion() *Benchmark {
	const segLen = 256
	return &Benchmark{
		Name:          "NetMotion",
		Area:          "Environmental Sensing",
		Mode:          compiler.ModeSWV,
		Output:        "OUT",
		DefaultParams: func() Params { return Params{Steps: 256} },
		ScaledParams:  func() Params { return Params{Steps: 16384} },
		Build: func(p Params, bits int, provisioned bool) *compiler.Kernel {
			segs := int64(p.Steps / segLen)
			if segs == 0 {
				segs = 1
			}
			n := int64(p.Steps) / segs
			mk := func(name string) compiler.Array {
				return compiler.Array{Name: name, ElemBits: 32, Len: p.Steps, ValueBits: 20,
					Pragma: compiler.PragmaASV, SubwordBits: bits, Provisioned: provisioned}
			}
			reduce := func(arr string) compiler.Expr {
				return compiler.Reduce{Var: "i", N: n, Body: compiler.Load{Array: arr,
					Index: compiler.LinSum(compiler.LinVar("g", n, 0), compiler.LinVar("i", 1, 0))}}
			}
			return &compiler.Kernel{
				Name: "netmotion",
				Arrays: []compiler.Array{
					mk("SX"), mk("SY"),
					{Name: "OUT", ElemBits: 32, Len: int(2 * segs), Output: true},
				},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "g", N: segs, Body: []compiler.Stmt{
						compiler.Assign{Array: "OUT", Index: compiler.LinVar("g", 2, 0), Value: reduce("SX")},
						compiler.Assign{Array: "OUT", Index: compiler.LinVar("g", 2, 1), Value: reduce("SY")},
					}},
				},
			}
		},
		Inputs: func(p Params, seed int64) map[string][]int64 {
			rng := rand.New(rand.NewSource(seed))
			sx := make([]int64, p.Steps)
			sy := make([]int64, p.Steps)
			activity := 1.0
			for i := range sx {
				if i%segLen == 0 {
					// Animal activity level varies between segments
					// (resting vs. roaming).
					activity = 0.1 + 0.9*rng.Float64()
				}
				limit := int(activity * (1 << 20))
				sx[i] = int64(rng.Intn(limit))
				sy[i] = int64(rng.Intn(limit))
			}
			return map[string][]int64{"SX": sx, "SY": sy}
		},
		Golden: func(p Params, in map[string][]int64) []float64 {
			segs := p.Steps / segLen
			if segs == 0 {
				segs = 1
			}
			n := p.Steps / segs
			out := make([]float64, 2*segs)
			for g := 0; g < segs; g++ {
				var x, y uint32
				for i := 0; i < n; i++ {
					x += uint32(in["SX"][g*n+i])
					y += uint32(in["SY"][g*n+i])
				}
				out[2*g] = float64(x)
				out[2*g+1] = float64(y)
			}
			return out
		},
	}
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
