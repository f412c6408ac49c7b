package wncheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"whatsnext/internal/asm"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// This file states the formal model behind the crash-consistency analyses
// and derives the machine-readable verification certificate from a run.
//
// # Event model
//
// Following Surbatovich et al. ("Towards a Formal Foundation of Intermittent
// Computing"), every instruction is modeled as a sequence of observe and
// persist events over four location classes:
//
//	NV     non-volatile FRAM data words. Persist events take effect
//	       immediately and survive every reboot.
//	SRAM   volatile scratch words. Persist events are erased by a reboot;
//	       no runtime restores them.
//	Reg    architectural registers. Erased by a reboot; restored to
//	       checkpoint-time values (Clank, undo log) or interruption-time
//	       values (NVP), and redirected by an armed skim point.
//	Input  sensor/IO locations. Observe events sample the external world,
//	       which advances across a reboot; there is no persist event a
//	       program can issue against an input location.
//
// A power failure may occur at any instruction boundary. An intermittent
// execution is a sequence of execution fragments separated by reboots; the
// runtime decides where each fragment resumes (checkpoint, in-place, or
// skim target). Correctness is *memory consistency*: the final NV state
// must equal the final NV state of SOME uninterrupted execution of the
// program against a single world. Each WN10x rule is a sufficient static
// condition for one way that property can fail:
//
//	war-atomicity      An NV location observed and later persisted within
//	                   one re-execution interval makes replay observe the
//	                   new value (WN101/WN102 at constant addresses,
//	                   WN106 at congruent symbolic addresses).
//	volatile-boundary  A SRAM persist observed after a possible reboot
//	                   reads erased state (WN103).
//	resume-state       Registers observed on the skim-resume path must
//	                   hold fall-through values (WN104).
//	repeated-input     An input location observed on both sides of a
//	                   possible reboot samples two different worlds; if
//	                   both samples reach NV persists the final state is
//	                   consistent with neither world (WN105).
//	commit-order       An NV persist inside an armed skim interval is
//	                   visible at the skim target even when the interval
//	                   did not complete, inverting the commit order
//	                   (WN107).
//	idempotent-replay  An NV persist whose value derives from an observe
//	                   of the same location double-applies under replay
//	                   without privatization (WN108).
//
// Rules outside the WN10x family are engineering invariants of the WN ISA
// and toolchain, not instances of a formal condition; the table below marks
// them "engineering".

// LocClass partitions addresses into the formal model's location classes.
type LocClass int

const (
	ClassNV LocClass = iota
	ClassSRAM
	ClassReg
	ClassInput
	ClassNone // outside every modeled region
)

// AddrRange is a half-open address interval [Start, End).
type AddrRange struct {
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`
}

// Contains reports whether addr falls inside the range.
func (r AddrRange) Contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// locClassOf classifies a data address. Input ranges take precedence over
// the memory region that backs them: a sensor FIFO mapped into the data
// region is still an input location.
func locClassOf(addr uint32, cfg mem.Config, input []AddrRange) LocClass {
	for _, r := range input {
		if r.Contains(addr) {
			return ClassInput
		}
	}
	switch {
	case addr >= mem.DataBase && addr < mem.DataBase+uint32(cfg.DataBytes):
		return ClassNV
	case addr >= mem.SRAMBase && addr < mem.SRAMBase+uint32(cfg.SRAMBytes):
		return ClassSRAM
	}
	return ClassNone
}

// Condition names for the rule table and certificates.
const (
	CondWARAtomicity     = "war-atomicity"
	CondVolatileBoundary = "volatile-boundary"
	CondResumeState      = "resume-state"
	CondRepeatedInput    = "repeated-input"
	CondCommitOrder      = "commit-order"
	CondIdempotentReplay = "idempotent-replay"
	CondForwardProgress  = "forward-progress"
	CondEngineering      = "engineering"
)

// RuleInfo documents one diagnostic code: the formal condition it is a
// sufficient check for (or "engineering"), and a one-line statement.
type RuleInfo struct {
	Code      string
	Condition string
	Crash     bool // only runs under Options.Crash
	Progress  bool // only runs under Options.Progress
	Statement string
}

// ruleTable is the authoritative code -> condition mapping, in code order.
var ruleTable = []RuleInfo{
	{CodeWARAmenable, CondWARAtomicity, false, false, "NV word read, consumed by anytime work, then overwritten with no skim point in between"},
	{CodeWARPlain, CondWARAtomicity, false, false, "NV word read then overwritten; repaired by a forced Clank checkpoint at a cost"},
	{CodeVolatileCross, CondVolatileBoundary, true, false, "volatile SRAM word written then read across a possible power failure"},
	{CodeSkimStaleReg, CondResumeState, true, false, "register live at a skim-resume target and written while the skim is armed"},
	{CodeRepeatedInput, CondRepeatedInput, true, false, "input location read on both sides of a possible reboot"},
	{CodeWARCross, CondWARAtomicity, true, false, "cross-block WAR at a congruent symbolic address (reaching-defs generalization of WN101/WN102)"},
	{CodeCommitOrder, CondCommitOrder, true, false, "NV word written inside an armed skim interval and observed at the skim target"},
	{CodeNonIdempotent, CondIdempotentReplay, true, false, "NV write whose value derives from a read of the same word (read-modify-write without privatization)"},
	{CodeLivelock, CondForwardProgress, false, true, "loop with no commit boundary inside and no finite trip bound: livelock under any finite cycle budget"},
	{CodeRegionBudget, CondForwardProgress, false, true, "region worst-case cycles exceed the configured per-charge cycle budget"},
	{CodeLoopBound, CondForwardProgress, false, true, "loop trip count neither inferable nor annotated with .bound"},
	{CodeSkimMissing, CondEngineering, false, false, "amenable loop with no skim coverage"},
	{CodeSkimOrphan, CondEngineering, false, false, "skim point no anytime work reaches"},
	{CodeSkimTarget, CondEngineering, false, false, "invalid skim target"},
	{CodeASPPosition, CondEngineering, false, false, "MUL_ASP position overflows the result"},
	{CodeIllegalOp, CondEngineering, false, false, "reachable word does not decode"},
	{CodeMisaligned, CondEngineering, false, false, "misaligned access at known address"},
	{CodeAnytimeReg, CondEngineering, false, false, "ASP/ASV on SP/LR/PC"},
	{CodeUnreachable, CondEngineering, false, false, "unreachable block"},
	{CodeBranchRange, CondEngineering, false, false, "branch target outside the image"},
	{CodeOOBAccess, CondEngineering, false, false, "access outside every memory region"},
	{CodeCodeWrite, CondEngineering, false, false, "store into instruction memory"},
	{CodeMissingHalt, CondEngineering, false, false, "execution runs off the image end"},
	{CodeDeadWrite, CondEngineering, false, false, "register write never read"},
	{CodeUninitRead, CondEngineering, false, false, "register read before any write"},
}

// Rules returns the full rule table in code order.
func Rules() []RuleInfo {
	out := make([]RuleInfo, len(ruleTable))
	copy(out, ruleTable)
	return out
}

// ConditionOf returns the formal condition a code checks, or
// CondEngineering for codes outside the WN10x family.
func ConditionOf(code string) string {
	for _, r := range ruleTable {
		if r.Code == code {
			return r.Condition
		}
	}
	return CondEngineering
}

// Region is one contiguous code interval [Start, End] (absolute instruction
// addresses, inclusive) in a certificate. Flagged regions carry the code of
// the finding that voided them.
type Region struct {
	Code  string `json:"code,omitempty"`
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`
}

// RuleReport records one rule's participation in a verification run.
type RuleReport struct {
	Code      string `json:"code"`
	Condition string `json:"condition"`
	Enabled   bool   `json:"enabled"`
	Findings  int    `json:"findings"`
}

// Certificate is the machine-readable outcome of Verify: which rules ran,
// which code regions carry crash-consistency findings (flagged), which are
// free of them (proven), and the assumptions the proof rests on.
// internal/faultinject's CrossValidate consumes it as the contract for the
// dynamic oracle: power failures at boundaries inside proven territory must
// leave NV memory bit-exact, while every flagged region must be witnessable.
type Certificate struct {
	Name         string       `json:"name,omitempty"`
	ImageSHA256  string       `json:"image_sha256"`
	Instructions int          `json:"instructions"`
	Crash        bool         `json:"crash"`
	Input        []AddrRange  `json:"input,omitempty"`
	Rules        []RuleReport `json:"rules"`
	Flagged      []Region     `json:"flagged_regions"`
	Proven       []Region     `json:"proven_regions"`
	// Progress is the forward-progress analysis outcome: loop trip bounds
	// and per-region WCEC. Nil when Options.Progress was off.
	Progress    *ProgressInfo `json:"progress,omitempty"`
	Assumptions []string      `json:"assumptions"`
}

// Encode renders the certificate as deterministic, indented JSON: encoding
// the same certificate twice is byte-identical (slices are sorted when the
// certificate is built, and encoding/json emits struct fields in order).
func (c *Certificate) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeCertificate parses a certificate produced by Encode.
func DecodeCertificate(b []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("wncheck: decoding certificate: %w", err)
	}
	return &c, nil
}

// Verify is Check plus a verification certificate for the run.
func Verify(p *asm.Program, opts Options) (*Result, *Certificate, error) {
	res, err := Check(p, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, buildCertificate(p, opts, res), nil
}

func buildCertificate(p *asm.Program, opts Options, res *Result) *Certificate {
	sum := sha256.Sum256(p.Image)
	cert := &Certificate{
		Name:         p.File,
		ImageSHA256:  hex.EncodeToString(sum[:]),
		Instructions: res.NumInstructions,
		Crash:        opts.Crash,
		Input:        append([]AddrRange(nil), opts.Input...),
	}

	disabled := map[string]bool{}
	for _, c := range opts.Disable {
		disabled[c] = true
	}
	only := map[string]bool{}
	for _, c := range opts.Only {
		only[c] = true
	}
	findings := map[string]int{}
	for _, d := range res.Diags {
		findings[d.Code] += d.Count
	}
	for _, r := range ruleTable {
		enabled := !disabled[r.Code]
		if len(only) > 0 && !only[r.Code] {
			enabled = false
		}
		if r.Crash && !opts.Crash {
			enabled = false
		}
		if r.Progress && !opts.Progress {
			enabled = false
		}
		if r.Code == CodeRegionBudget && opts.Budget == 0 {
			enabled = false
		}
		if r.Code == CodeRepeatedInput && len(opts.Input) == 0 {
			enabled = false
		}
		cert.Rules = append(cert.Rules, RuleReport{
			Code:      r.Code,
			Condition: r.Condition,
			Enabled:   enabled,
			Findings:  findings[r.Code],
		})
	}

	// Flagged regions: the vulnerable intervals of crash-consistency
	// findings at warning severity and above, deduplicated and sorted.
	// Info-level findings (e.g. the untainted WN106 WAR that Clank repairs
	// with a forced checkpoint) stay out: the certified runtimes fix them
	// dynamically, so no injection campaign under those runtimes could
	// witness them — they are cost notes, not certificate holes.
	seen := map[Region]bool{}
	for _, d := range res.Diags {
		if d.RegionStart == 0 && d.RegionEnd == 0 {
			continue
		}
		if d.Severity < Warning {
			continue
		}
		// Forward-progress regions are livelock extents, not crash-
		// consistency holes: no injection campaign witnesses them as a
		// memory divergence, so they stay out of the flagged/proven split
		// and live in cert.Progress instead.
		if ConditionOf(d.Code) == CondForwardProgress {
			continue
		}
		r := Region{Code: d.Code, Start: d.RegionStart, End: d.RegionEnd}
		if !seen[r] {
			seen[r] = true
			cert.Flagged = append(cert.Flagged, r)
		}
	}
	sort.Slice(cert.Flagged, func(i, j int) bool {
		a, b := cert.Flagged[i], cert.Flagged[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Code < b.Code
	})

	// Proven regions: the complement of the flagged union over the image.
	imgEnd := mem.CodeBase + uint32(res.NumInstructions*isa.InstBytes)
	if res.NumInstructions > 0 {
		cur := uint32(mem.CodeBase)
		for _, f := range cert.Flagged {
			if f.Start > cur {
				cert.Proven = append(cert.Proven, Region{Start: cur, End: f.Start - isa.InstBytes})
			}
			if next := f.End + isa.InstBytes; next > cur {
				cur = next
			}
		}
		if cur < imgEnd {
			cert.Proven = append(cert.Proven, Region{Start: cur, End: imgEnd - isa.InstBytes})
		}
	}

	cert.Assumptions = []string{
		"registers boot to zero; SP is pinned to the top of SRAM",
		"BL may clobber every register; callee memory effects are not modeled",
		"accesses at statically unresolved addresses are covered only by the WN106 congruence rule",
		"NV data persists are word-atomic and immediately durable",
	}
	if len(opts.Input) == 0 {
		cert.Assumptions = append(cert.Assumptions, "no input locations declared: WN105 is vacuous")
	} else {
		cert.Assumptions = append(cert.Assumptions, "input locations advance monotonically across reboots and are never written by the program")
	}
	if opts.Progress && res.Progress != nil {
		cert.Progress = res.Progress
		cert.Assumptions = append(cert.Assumptions,
			"cycle costs are the static worst case: memoization hits are not discounted and every conditional branch pays the taken-branch pipeline refill")
		for _, lb := range res.Progress.Loops {
			if lb.Source == "annotated" {
				cert.Assumptions = append(cert.Assumptions,
					fmt.Sprintf("loop at %#08x: trip count assumed at most %d (.bound directive)", lb.Head, lb.Bound))
			}
		}
	}
	return cert
}
