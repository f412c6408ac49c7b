// Command wnlint statically verifies WN programs.
//
// It assembles each .s argument (or loads each .bin as a raw image), runs
// the internal/wncheck verifier over it, and prints one diagnostic per line
// in file:line: form. -crash adds the crash-consistency analysis (WN103 —
// WN108); -wcec adds the forward-progress certification (WN201 — WN203:
// loop bounds, per-region worst-case energy cycles, livelock extents) and
// -budget N additionally enforces N cycles as the per-region ceiling
// (WN202); -input declares sensor/IO address ranges so the repeated-input
// rule (WN105) has a world model to check against; -only restricts the
// region-carrying diagnostics to a code list. -json switches to
// machine-readable output (one JSON array of findings on stdout), -sarif to
// a SARIF 2.1.0 log suitable for GitHub code scanning, and -cert to the
// wncheck verification certificate (rules run, flagged and proven regions,
// assumptions — the contract faultinject.CrossValidate consumes). -faults N
// additionally runs N strided power-failure injections per file under the
// Clank, NVP, and undo-log runtimes and reports any divergence from the
// uninterrupted run. The exit status is 1 when any file produced a
// diagnostic at warning severity or above (or a fault-injection
// divergence), 2 on usage or I/O errors.
//
// Usage:
//
//	wnlint [-info] [-crash] [-wcec] [-budget N] [-json|-sarif|-cert] [-faults N]
//	       [-skim auto|require|off] [-disable WN101,WN401] [-only WN106]
//	       [-input lo:hi,...] [-stats] file.s ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"whatsnext/internal/asm"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/wncheck"
)

// jsonFinding is the machine-readable form of one diagnostic.
type jsonFinding struct {
	File        string `json:"file"`
	Line        int    `json:"line,omitempty"`
	PC          uint32 `json:"pc"`
	Code        string `json:"code"`
	Severity    string `json:"severity"`
	Msg         string `json:"msg"`
	Occurrences int    `json:"occurrences"`
	RegionStart uint32 `json:"region_start,omitempty"`
	RegionEnd   uint32 `json:"region_end,omitempty"`
}

func main() {
	fs := flag.NewFlagSet("wnlint", flag.ExitOnError)
	info := fs.Bool("info", false, "also report info-severity findings (WN102, WN901, WN902)")
	crash := fs.Bool("crash", false, "run the crash-consistency analysis (WN103 — WN108)")
	wcec := fs.Bool("wcec", false, "run the forward-progress certification (WN201 — WN203)")
	budget := fs.Uint64("budget", 0, "per-region worst-case cycle ceiling enforced by WN202 (implies -wcec; 0 = off)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log instead of text")
	certOut := fs.Bool("cert", false, "emit each file's verification certificate (JSON) instead of findings")
	faults := fs.Int("faults", 0, "also run N strided power-failure injections per file (0 = off)")
	skim := fs.String("skim", "auto", "skim-placement policy: auto, require, or off")
	disable := fs.String("disable", "", "comma-separated diagnostic codes to suppress")
	only := fs.String("only", "", "comma-separated codes: restrict region diagnostics to these")
	input := fs.String("input", "", "comma-separated input (sensor/IO) address ranges lo:hi for WN105")
	stats := fs.Bool("stats", false, "print per-file analysis statistics")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: wnlint [-info] [-crash] [-wcec] [-budget N] [-json|-sarif|-cert] [-faults N] [-skim auto|require|off] [-disable codes] [-only codes] [-input lo:hi,...] [-stats] file.s|file.bin ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	modes := 0
	for _, m := range []bool{*jsonOut, *sarifOut, *certOut} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "wnlint: -json, -sarif, and -cert are mutually exclusive")
		os.Exit(2)
	}

	opts := wncheck.Options{Info: *info, Crash: *crash,
		Progress: *wcec || *budget > 0, Budget: *budget}
	switch *skim {
	case "auto":
		opts.Skim = wncheck.SkimAuto
	case "require":
		opts.Skim = wncheck.SkimRequire
	case "off":
		opts.Skim = wncheck.SkimOff
	default:
		fmt.Fprintf(os.Stderr, "wnlint: unknown skim policy %q\n", *skim)
		os.Exit(2)
	}
	if *disable != "" {
		opts.Disable = strings.Split(*disable, ",")
	}
	if *only != "" {
		opts.Only = strings.Split(*only, ",")
	}
	if *input != "" {
		ranges, err := parseInputRanges(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wnlint:", err)
			os.Exit(2)
		}
		opts.Input = ranges
	}

	failed := false
	var findings []jsonFinding
	var sarifFindings []sarifFinding
	for _, file := range fs.Args() {
		p, res, cert, err := lint(file, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wnlint:", err)
			os.Exit(2)
		}
		for _, d := range res.Diags {
			switch {
			case *jsonOut:
				findings = append(findings, jsonFinding{
					File:        file,
					Line:        d.Line,
					PC:          d.Addr,
					Code:        d.Code,
					Severity:    d.Severity.String(),
					Msg:         d.Msg,
					Occurrences: d.Count,
					RegionStart: d.RegionStart,
					RegionEnd:   d.RegionEnd,
				})
			case *sarifOut:
				sarifFindings = append(sarifFindings, sarifFinding{file: file, diag: d})
			case *certOut:
				// Certificates own stdout; findings stay visible on stderr.
				fmt.Fprintln(os.Stderr, d.Format(file))
			default:
				fmt.Println(d.Format(file))
			}
		}
		if *certOut {
			b, err := cert.Encode()
			if err != nil {
				fmt.Fprintln(os.Stderr, "wnlint:", err)
				os.Exit(2)
			}
			os.Stdout.Write(b)
		}
		if *stats && !*jsonOut && !*sarifOut && !*certOut {
			fmt.Printf("%s: %d instructions, %d blocks, %d loops, %d unreachable\n",
				file, res.NumInstructions, res.NumBlocks, res.NumLoops, res.UnreachableIns)
		}
		if res.Count(wncheck.Warning) > 0 {
			failed = true
		}
		if *faults > 0 {
			if diverged, err := inject(file, p, *faults, *jsonOut || *sarifOut || *certOut); err != nil {
				fmt.Fprintln(os.Stderr, "wnlint:", err)
				os.Exit(2)
			} else if diverged {
				failed = true
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []jsonFinding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "wnlint:", err)
			os.Exit(2)
		}
	}
	if *sarifOut {
		if err := writeSARIF(os.Stdout, sarifFindings); err != nil {
			fmt.Fprintln(os.Stderr, "wnlint:", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// parseInputRanges parses "lo:hi,lo:hi" (each bound in any strconv base
// form, e.g. 0x10000000) into half-open address ranges.
func parseInputRanges(s string) ([]wncheck.AddrRange, error) {
	var out []wncheck.AddrRange
	for _, part := range strings.Split(s, ",") {
		lo, hi, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("input range %q: want lo:hi", part)
		}
		l, err := strconv.ParseUint(strings.TrimSpace(lo), 0, 32)
		if err != nil {
			return nil, fmt.Errorf("input range %q: %w", part, err)
		}
		h, err := strconv.ParseUint(strings.TrimSpace(hi), 0, 32)
		if err != nil {
			return nil, fmt.Errorf("input range %q: %w", part, err)
		}
		if h <= l {
			return nil, fmt.Errorf("input range %q: empty", part)
		}
		out = append(out, wncheck.AddrRange{Start: uint32(l), End: uint32(h)})
	}
	return out, nil
}

// lint loads one file — assembling .s sources, treating anything else as a
// raw program image — and verifies it.
func lint(file string, opts wncheck.Options) (*asm.Program, *wncheck.Result, *wncheck.Certificate, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, nil, nil, err
	}
	var p *asm.Program
	if strings.HasSuffix(file, ".s") {
		p, err = asm.AssembleNamed(file, string(data))
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		p = &asm.Program{Image: data, File: file}
		// A raw image carries no .amenable marks, so the skim-placement
		// checks would flag every skim point as unjustified. Leave them to
		// an explicit -skim require.
		if opts.Skim == wncheck.SkimAuto {
			opts.Skim = wncheck.SkimOff
		}
	}
	res, cert, err := wncheck.Verify(p, opts)
	return p, res, cert, err
}

// inject runs the dynamic oracle: points strided power failures per
// runtime, comparing final memory against an uninterrupted golden run.
// Reports (on stderr, which stays human-readable under -json) and returns
// whether any divergence was witnessed.
func inject(file string, p *asm.Program, points int, quiet bool) (bool, error) {
	policies := []func() intermittent.Policy{
		func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) },
		func() intermittent.Policy { return intermittent.NewNVP(intermittent.DefaultNVPConfig()) },
		func() intermittent.Policy { return intermittent.NewUndoLog() },
	}
	target := faultinject.FromProgram(file, p)
	diverged := false
	for _, mk := range policies {
		rep, err := faultinject.RunLockstep(target, faultinject.Config{Policy: mk},
			faultinject.Schedule{Points: points})
		if err != nil {
			return false, fmt.Errorf("%s: fault injection: %w", file, err)
		}
		if !rep.Clean() {
			diverged = true
		}
		if !quiet || !rep.Clean() {
			fmt.Fprintln(os.Stderr, rep)
		}
	}
	return diverged, nil
}
