// Command benchjson converts `go test -bench` output into a machine-readable
// JSON summary: per-benchmark ns/op, every custom ReportMetric value, and —
// when the benchmark reports an instruction count — derived instruction
// throughput. CI uses it to publish the hot-loop numbers as an artifact.
//
// Usage:
//
//	go test -bench . ./... | benchjson [-o FILE]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed measurements.
type Result struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// InstructionsPerSec is derived from an "instructions/op" metric when
	// the benchmark reports one.
	InstructionsPerSec float64 `json:"instructions_per_sec,omitempty"`
}

// benchLine matches e.g. "BenchmarkTableI  40  8789206 ns/op  25.38 avg_amenable_%".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(lines *bufio.Scanner) (map[string]*Result, error) {
	out := map[string]*Result{}
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(lines.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := &Result{Iterations: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				r.NsPerOp = v
			} else {
				r.Metrics[unit] = v
			}
		}
		if r.NsPerOp == 0 {
			continue
		}
		if n, ok := r.Metrics["instructions/op"]; ok && n > 0 {
			r.InstructionsPerSec = n / r.NsPerOp * 1e9
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		// Keep the last run of a repeated benchmark (e.g. -count>1).
		out[m[1]] = r
	}
	return out, lines.Err()
}

func main() {
	outPath := flag.String("o", "", "write JSON here instead of stdout")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	results, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	// encoding/json emits map keys sorted, so the output is diff-stable.
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')

	if *outPath == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
