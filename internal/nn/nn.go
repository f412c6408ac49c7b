// Package nn defines a Stateful-CNN-style neural inference benchmark
// family as tiled, fixed-point compiler kernels: a valid-region conv2d
// feature extractor, a fully-connected classifier layer, and average/max
// pooling — all over the repo's 128x128 synthetic image inputs. Every
// kernel declares an intrinsic progress marker (the last element of each
// output tile), so the progress-embedding compiler mode can lower it to a
// store-once image whose resume frontier lives in the output features
// themselves rather than in separate NVM progress words.
//
// The family registers itself with the workloads ByName registry from
// init, so wnsim's -bench flag finds the NN kernels by name unchanged.
package nn

import (
	"math"
	"math/rand"

	"whatsnext/internal/compiler"
	"whatsnext/internal/fixedpoint"
	"whatsnext/internal/workloads"
)

func init() {
	workloads.RegisterExtension(All()...)
}

// All returns the NN layer kernels in pipeline order.
func All() []*workloads.Benchmark {
	return []*workloads.Benchmark{NNConv(), NNFC(), NNPoolAvg(), NNPoolMax()}
}

// Sentinel is the reserved out-of-range output value that marks a
// not-yet-committed feature element. Every NN kernel bounds its true
// outputs far below 2^31, so the sentinel can never collide with data.
const Sentinel uint32 = 0xFFFFFFFF

// PoolWindow is the pooling tile size (a 16-element feature strip). It is
// fixed so that lanes-per-word divides the reduce trip at every subword
// width the SWV lowering supports (2, 4 and 8 bits in 32-bit lanes).
const PoolWindow = 16

// FCClasses is the classifier width of NNFC (MNIST-style 10 classes).
const FCClasses = 10

// convWeights quantizes a float KxK Gaussian to integer weights summing
// exactly to 2^logSum via the fixed-point normalizer, so the display shift
// turns the accumulator into a weighted average of 8-bit activations.
func convWeights(k int) (coef []int64, logSum int) {
	sigma := float64(k) / 3.0
	c := float64(k-1) / 2.0
	ws := make([]float64, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			dy, dx := float64(y)-c, float64(x)-c
			ws[y*k+x] = math.Exp(-(dx*dx + dy*dy) / (2 * sigma * sigma))
		}
	}
	logSum = 8
	coef, err := fixedpoint.NormalizeWeights(ws, logSum)
	if err != nil {
		panic(err) // Gaussian weights are strictly positive
	}
	return coef, logSum
}

// NNConv: a KxK valid-region convolution layer over 8-bit activations
// held in 16-bit storage (paper-scale: 5x5 over a 128x128 input image,
// producing 124x124 features). One output row is one committed tile; the
// row's last element is the progress marker. The image is the #pragma asp
// operand, so subword pipelining (and its single-pass truncated form)
// applies to the activation loads and multiplies.
func NNConv() *workloads.Benchmark {
	return &workloads.Benchmark{
		Name:          "NNConv",
		Area:          "Neural Inference",
		Mode:          compiler.ModeSWP,
		Output:        "OUT",
		DefaultParams: func() workloads.Params { return workloads.Params{ImgW: 124, ImgH: 124, K: 5} },
		ScaledParams:  func() workloads.Params { return workloads.Params{ImgW: 12, ImgH: 12, K: 3} },
		Build: func(p workloads.Params, bits int, _ bool) *compiler.Kernel {
			w, h, k := p.ImgW, p.ImgH, p.K
			pw := w + k - 1
			_, logSum := convWeights(k)
			return &compiler.Kernel{
				Name: "nnconv",
				Arrays: []compiler.Array{
					{Name: "IMG", ElemBits: 16, Len: pw * (h + k - 1), ValueBits: 8,
						Pragma: compiler.PragmaASP, SubwordBits: bits},
					{Name: "COEF", ElemBits: 16, Len: k * k},
					{Name: "OUT", ElemBits: 32, Len: w * h, Output: true, PostShift: logSum},
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
				Progress: &compiler.ProgressInfo{
					Output:   "OUT",
					TileVar:  "y",
					Marker:   compiler.LinVar("y", int64(w), int64(w-1)),
					Sentinel: Sentinel,
				},
			}
		},
		Inputs: func(p workloads.Params, seed int64) map[string][]int64 {
			w, h, k := p.ImgW, p.ImgH, p.K
			coef, _ := convWeights(k)
			img := workloads.SyntheticImage(w+k-1, h+k-1, seed)
			return map[string][]int64{"IMG": img, "COEF": coef}
		},
		Golden: func(p workloads.Params, in map[string][]int64) []float64 {
			w, h, k := p.ImgW, p.ImgH, p.K
			pw := w + k - 1
			_, logSum := convWeights(k)
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
					out[y*w+x] = float64(acc >> uint(logSum))
				}
			}
			return out
		},
	}
}

// NNFC: a fully-connected classifier layer, OUT[g][o] = W[o] . X[g] over
// G input samples, O classes and I features per sample. The activations X
// are the #pragma asp operand (8-bit values in 16-bit storage); the
// weights are UQ0.6 fixed-point quantizations of float weights. One
// sample's logit vector is one committed tile; its last class is the
// progress marker.
func NNFC() *workloads.Benchmark {
	const fracBits = 6
	return &workloads.Benchmark{
		Name:          "NNFC",
		Area:          "Neural Inference",
		Mode:          compiler.ModeSWP,
		Output:        "OUT",
		DefaultParams: func() workloads.Params { return workloads.Params{Windows: 16, N: FCClasses, WindowSize: 64} },
		ScaledParams:  func() workloads.Params { return workloads.Params{Windows: 6, N: FCClasses, WindowSize: 32} },
		Build: func(p workloads.Params, bits int, _ bool) *compiler.Kernel {
			g, o, i := int64(p.Windows), int64(p.N), int64(p.WindowSize)
			return &compiler.Kernel{
				Name: "nnfc",
				Arrays: []compiler.Array{
					{Name: "X", ElemBits: 16, Len: p.Windows * p.WindowSize, ValueBits: 8,
						Pragma: compiler.PragmaASP, SubwordBits: bits},
					{Name: "W", ElemBits: 16, Len: p.N * p.WindowSize},
					{Name: "OUT", ElemBits: 32, Len: p.Windows * p.N, Output: true, PostShift: fracBits},
				},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "g", N: g, Body: []compiler.Stmt{
						compiler.Loop{Var: "o", N: o, Body: []compiler.Stmt{
							compiler.Assign{
								Array: "OUT",
								Index: compiler.LinSum(compiler.LinVar("g", o, 0), compiler.LinVar("o", 1, 0)),
								Value: compiler.Reduce{Var: "i", N: i, Body: compiler.Bin{
									Op: compiler.OpMul,
									A:  compiler.Load{Array: "W", Index: compiler.LinSum(compiler.LinVar("o", i, 0), compiler.LinVar("i", 1, 0))},
									B:  compiler.Load{Array: "X", Index: compiler.LinSum(compiler.LinVar("g", i, 0), compiler.LinVar("i", 1, 0))},
								}},
							},
						}},
					}},
				},
				Progress: &compiler.ProgressInfo{
					Output:   "OUT",
					TileVar:  "g",
					Marker:   compiler.LinVar("g", o, o-1),
					Sentinel: Sentinel,
				},
			}
		},
		Inputs: func(p workloads.Params, seed int64) map[string][]int64 {
			rng := rand.New(rand.NewSource(seed))
			x := make([]int64, p.Windows*p.WindowSize)
			for i := range x {
				x[i] = int64(rng.Intn(256))
			}
			// Weights are a fixed property of the model, not of the input
			// sample: quantize the same float weights for every seed.
			wrng := rand.New(rand.NewSource(0x77e16))
			wf := make([]float64, p.N*p.WindowSize)
			for i := range wf {
				wf[i] = wrng.Float64()
			}
			q := fixedpoint.Q{IntBits: 0, FracBits: fracBits}
			return map[string][]int64{"X": x, "W": fixedpoint.ConvertSlice(q, wf)}
		},
		Golden: func(p workloads.Params, in map[string][]int64) []float64 {
			g, o, n := p.Windows, p.N, p.WindowSize
			x, w := in["X"], in["W"]
			out := make([]float64, g*o)
			for s := 0; s < g; s++ {
				for c := 0; c < o; c++ {
					var acc uint32
					for i := 0; i < n; i++ {
						acc += uint32(w[c*n+i]) * uint32(x[s*n+i])
					}
					out[s*o+c] = float64(acc >> fracBits)
				}
			}
			return out
		},
	}
}

// NNPoolAvg: average pooling over 16-element feature strips of an 8-bit
// activation map, the family's subword-vectorization member. Each strip's
// mean is one committed tile (the marker is the output element itself).
func NNPoolAvg() *workloads.Benchmark {
	return &workloads.Benchmark{
		Name:          "NNPoolAvg",
		Area:          "Neural Inference",
		Mode:          compiler.ModeSWV,
		Output:        "OUT",
		DefaultParams: func() workloads.Params { return workloads.Params{ImgW: 128, ImgH: 128} },
		ScaledParams:  func() workloads.Params { return workloads.Params{ImgW: 16, ImgH: 16} },
		Build: func(p workloads.Params, bits int, provisioned bool) *compiler.Kernel {
			tiles := p.ImgW * p.ImgH / PoolWindow
			return &compiler.Kernel{
				Name: "nnpoolavg",
				Arrays: []compiler.Array{
					{Name: "S", ElemBits: 16, Len: p.ImgW * p.ImgH, ValueBits: 8,
						Pragma: compiler.PragmaASV, SubwordBits: bits, Provisioned: provisioned},
					{Name: "OUT", ElemBits: 32, Len: tiles, Output: true},
				},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "j", N: int64(tiles), Body: []compiler.Stmt{
						compiler.Assign{
							Array: "OUT", Index: compiler.LinVar("j", 1, 0),
							Value: compiler.Bin{Op: compiler.OpShr,
								A: compiler.Reduce{Var: "i", N: PoolWindow,
									Body: compiler.Load{Array: "S", Index: compiler.LinSum(
										compiler.LinVar("j", PoolWindow, 0), compiler.LinVar("i", 1, 0))}},
								B: compiler.Const{V: 4},
							},
						},
					}},
				},
				Progress: &compiler.ProgressInfo{
					Output:   "OUT",
					TileVar:  "j",
					Marker:   compiler.LinVar("j", 1, 0),
					Sentinel: Sentinel,
				},
			}
		},
		Inputs: func(p workloads.Params, seed int64) map[string][]int64 {
			return map[string][]int64{"S": workloads.SyntheticImage(p.ImgW, p.ImgH, seed)}
		},
		Golden: func(p workloads.Params, in map[string][]int64) []float64 {
			s := in["S"]
			out := make([]float64, len(s)/PoolWindow)
			for j := range out {
				var acc uint32
				for i := 0; i < PoolWindow; i++ {
					acc += uint32(s[j*PoolWindow+i])
				}
				out[j] = float64(acc >> 4)
			}
			return out
		},
	}
}

// NNPoolMax: max pooling over the same 16-element strips. The max fold is
// not distributive over subword decomposition, so this member lowers
// precisely only (Mode is ModePrecise); it still embeds progress, since
// store-once tiling is orthogonal to the fold operator.
func NNPoolMax() *workloads.Benchmark {
	return &workloads.Benchmark{
		Name:          "NNPoolMax",
		Area:          "Neural Inference",
		Mode:          compiler.ModePrecise,
		Output:        "OUT",
		DefaultParams: func() workloads.Params { return workloads.Params{ImgW: 128, ImgH: 128} },
		ScaledParams:  func() workloads.Params { return workloads.Params{ImgW: 16, ImgH: 16} },
		Build: func(p workloads.Params, _ int, _ bool) *compiler.Kernel {
			tiles := p.ImgW * p.ImgH / PoolWindow
			return &compiler.Kernel{
				Name: "nnpoolmax",
				Arrays: []compiler.Array{
					{Name: "S", ElemBits: 16, Len: p.ImgW * p.ImgH},
					{Name: "OUT", ElemBits: 32, Len: tiles, Output: true},
				},
				Body: []compiler.Stmt{
					compiler.Loop{Var: "j", N: int64(tiles), Body: []compiler.Stmt{
						compiler.Assign{
							Array: "OUT", Index: compiler.LinVar("j", 1, 0),
							Value: compiler.Reduce{Var: "i", N: PoolWindow, Op: compiler.OpMax,
								Body: compiler.Load{Array: "S", Index: compiler.LinSum(
									compiler.LinVar("j", PoolWindow, 0), compiler.LinVar("i", 1, 0))}},
						},
					}},
				},
				Progress: &compiler.ProgressInfo{
					Output:   "OUT",
					TileVar:  "j",
					Marker:   compiler.LinVar("j", 1, 0),
					Sentinel: Sentinel,
				},
			}
		},
		Inputs: func(p workloads.Params, seed int64) map[string][]int64 {
			return map[string][]int64{"S": workloads.SyntheticImage(p.ImgW, p.ImgH, seed)}
		},
		Golden: func(p workloads.Params, in map[string][]int64) []float64 {
			s := in["S"]
			out := make([]float64, len(s)/PoolWindow)
			for j := range out {
				var m uint32
				for i := 0; i < PoolWindow; i++ {
					if v := uint32(s[j*PoolWindow+i]); v > m {
						m = v
					}
				}
				out[j] = float64(m)
			}
			return out
		},
	}
}
