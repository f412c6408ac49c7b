// Command wnperf is the repository benchmark. It drives the experiment
// studies, the spec resolver and the sweep engine through their public
// APIs, the way wnbench does, and reports host time and allocation.
//
// Usage:
//
//	wnperf -workload list|all|NAME [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// One process runs one workload on one sweep engine of two workers (fewer
// on a one-CPU host). Set-up compiles the workload's variants; then rounds,
// each regenerating the workload's output once, repeat while one more round,
// taking as long as the last, would end within -seconds. Every round's output
// is checked against the committed digest in bench/golden (or, at a
// non-default seed, against the first round's). The end-to-end times are
// scaled to a reference host speed (see ref.go). Each metric prints as
// "name value unit"; the last line is a JSON object {correct, attempted,
// failed, metrics}.
//
// With -trace 1 untraced rounds alternate with traced ones, which record
// spans. After the first traced round a probe replays a sample of its cells
// layer by layer and checks that each replay reproduces its cell's result;
// the metrics reported are the per-layer ones. -spans FILE writes the
// recorded spans as JSONL. -workload all runs every workload in turn, each
// in a child process.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"whatsnext/bench/golden"
	"whatsnext/internal/compiler"
	"whatsnext/internal/experiments"
	"whatsnext/internal/sweep"
)

// Set-up compiles the workload's variant list at least setupPasses times
// and for at least setupSpan; setup_s is the fastest pass. A pass takes a
// few milliseconds or less, and 25 of them could all fall inside one slow
// stretch of a shared host at process start, which setupSpan guards
// against.
const (
	setupPasses = 25
	setupSpan   = 250 * time.Millisecond
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wnperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: list, all, or "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's inputs (only intermittent-paper has seeded inputs)")
	seconds := fs.Float64("seconds", 10, "how long the rounds run")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSONL file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: wnperf -workload list|all|NAME [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "wnperf: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usageErr("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return usageErr("-trace must be 0 or 1, not %d", *trace)
	case !(*seconds > 0):
		return usageErr("-seconds must be positive")
	case *name == "all" && *spans != "":
		return usageErr("-spans needs a single workload")
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}

	switch *name {
	case "list":
		for _, wl := range workloadList {
			fmt.Fprintf(stdout, "%-20s %s\n", wl.name, wl.why)
		}
		return 0
	case "all":
		return runAll(args, stdout, stderr)
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		return usageErr("unknown workload %q; valid: list, all, %s", *name, strings.Join(workloadNames(), ", "))
	}
	fmt.Fprintf(stdout, "# workload %s seed %d workers %d %s %s/%s\n", wl.name, cfg.seed, workers(),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res, err := run(wl, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "wnperf: %s: %v\n", wl.name, err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "wnperf:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloadList {
		names = append(names, wl.name)
	}
	return names
}

// runAll runs each workload in a fresh child process with the same flags,
// so no workload inherits another's heap or caches.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "wnperf:", err)
		return 1
	}
	code := 0
	for _, wl := range workloadList {
		cmd := exec.Command(self, append(append([]string{}, args...), "-workload", wl.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "wnperf: %s: %v\n", wl.name, err)
			code = 1
		}
	}
	return code
}

// env is one process's measurement rig: the protocol every study runs
// under, with the bench runner in front of a single sweep engine.
type env struct {
	proto   experiments.Protocol
	runner  *benchRunner
	seed    int64
	round   int64                    // id of the open bench.round span
	fastest map[string]time.Duration // each study's fastest time so far
}

// workers is the engine's pool size: two, or one on a one-CPU host.
func workers() int { return min(2, runtime.NumCPU()) }

func newEnv(seed int64) *env {
	r := &benchRunner{eng: sweep.New(sweep.Options{Workers: workers()})}
	proto := experiments.DefaultProtocol()
	proto.Runner = r
	return &env{proto: proto, runner: r, seed: seed, fastest: map[string]time.Duration{}}
}

// setup compiles the workload's variant list before the first round and
// returns each pass's time. The first pass goes through Variant.Compile and
// so fills the in-process compile cache the rounds use; the later passes
// compile afresh, as Variant.Compile does on a cache miss.
func setup(vs []experiments.Variant) ([]time.Duration, error) {
	var times []time.Duration
	start := time.Now()
	for pass := 0; pass < setupPasses || time.Since(start) < setupSpan; pass++ {
		t0 := time.Now()
		for _, v := range vs {
			var err error
			if pass == 0 {
				_, err = v.Compile()
			} else {
				_, err = compileFresh(v)
			}
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", v, err)
			}
		}
		times = append(times, time.Since(t0))
	}
	return times, nil
}

// compileFresh does what Variant.Compile does on a cache miss: build the
// kernel IR, then compile, assemble and verify it.
func compileFresh(v experiments.Variant) (*compiler.Compiled, error) {
	return compiler.Compile(v.Bench.Build(v.Params, v.Bits, v.Provisioned), compileOptions(v))
}

// compileOptions are the compiler options Variant.Compile passes.
func compileOptions(v experiments.Variant) compiler.Options {
	return compiler.Options{
		Mode:          v.Mode,
		VectorLoads:   v.VectorLoads,
		ProgressEmbed: v.ProgressEmbed,
		MaxPasses:     v.MaxPasses,
	}
}

// checker accepts a round whose output digest equals the committed one for
// the workload, or, where none applies, the first round's.
type checker struct{ want string }

func newChecker(wl *workload, seed int64) (*checker, error) {
	if wl.usesSeed && seed != defaultSeed {
		return &checker{}, nil
	}
	want := golden.Digest(wl.name)
	if want == "" {
		return nil, fmt.Errorf("no committed output digest for %s", wl.name)
	}
	return &checker{want: want}, nil
}

func (c *checker) ok(out []byte) bool {
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	if c.want == "" {
		c.want = got
	}
	return got == c.want
}

type roundStats struct {
	times  []time.Duration
	failed int
}

// runRound runs one round of wl, recording spans into tr when it is not
// nil, and checks the round's output.
func (e *env) runRound(wl *workload, i int, tr *tracer, chk *checker, st *roundStats, stderr io.Writer) {
	e.runner.tr = tr
	e.runner.cells = e.runner.cells[:0]
	sp := tr.begin("bench.round", 0, map[string]string{"round": strconv.Itoa(i)})
	e.round = sp.id()
	t0 := time.Now()
	out, err := wl.round(e)
	st.times = append(st.times, time.Since(t0))
	sp.end()
	if err == nil && !chk.ok(out) {
		err = fmt.Errorf("output digest differs from %s", chk.want)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wnperf: %s round %d: %v\n", wl.name, i, err)
		st.failed++
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// run sets up and measures one workload.
func run(wl *workload, cfg config, stderr io.Writer) (*result, error) {
	e := newEnv(cfg.seed)
	vs := wl.variants()
	var ref hostRef
	ref.sample()
	setupTimes, err := setup(vs)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(wl, cfg.seed)
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	start := time.Now()
	// fits reports whether work expected to take next still ends within the
	// run's time.
	fits := func(next time.Duration) bool { return time.Since(start)+next <= d }

	if !cfg.trace {
		var st roundStats
		alloc0 := totalAlloc()
		for i := 0; i == 0 || fits(st.times[i-1]); i++ {
			e.runRound(wl, i, nil, chk, &st, stderr)
			ref.maybeSample()
		}
		alloc := totalAlloc() - alloc0
		n := len(st.times)
		res := newResult(n, st.failed)
		setupMin := slices.Min(setupTimes)
		var roundMin time.Duration
		for _, t := range e.fastest {
			roundMin += t
		}
		res.add("setup_s", ref.scale(setupMin).Seconds(), "s", fmt.Sprintf("fastest of %d passes over %d variants; %.4g s at host speed",
			len(setupTimes), len(vs), setupMin.Seconds()))
		res.add("round_min_ms", ms(ref.scale(roundMin)), "ms", fmt.Sprintf("n=%d, studies %d; at host speed %.4g ms, fastest round %.4g ms, median %.4g ms, mean %.4g ms; reference pass %.4g ms",
			n, len(e.fastest), ms(roundMin), ms(slices.Min(st.times)), ms(median(st.times)), ms(sum(st.times))/float64(n), ms(ref.fastest)))
		res.add("alloc_mb_per_round", float64(alloc)/1e6/float64(n), "MB", "")
		return res, nil
	}

	// Untraced and traced rounds alternate in pairs, so trace.overhead_pct
	// compares rounds run under the same machine conditions. The probe
	// replays a sample of the first traced round's cells right after it, so
	// its time counts against the run's like a round's.
	tr := newTracer()
	var plain, traced roundStats
	var p *probe
	for i := 0; i == 0 || fits(plain.times[i-1]+traced.times[i-1]); i++ {
		e.runRound(wl, 2*i, nil, chk, &plain, stderr)
		e.runRound(wl, 2*i+1, tr, chk, &traced, stderr)
		if i == 0 {
			if p, err = probeRound(e, vs); err != nil {
				return nil, err
			}
		}
	}
	res := newResult(len(plain.times)+len(traced.times), plain.failed+traced.failed)
	layerMetrics(res, p, vs, plain, traced)
	if cfg.spans != "" {
		if err := tr.writeJSONL(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's report: the JSON object the last output line carries,
// plus the human-readable metric lines printed before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string
}

func newResult(attempted, failed int) *result {
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

func (r *result) add(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%s %g %s", name, v, unit)
	if note != "" {
		line += " (" + note + ")"
	}
	r.lines = append(r.lines, line)
}

func (r *result) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median is the median of ds, 0 when ds is empty.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
