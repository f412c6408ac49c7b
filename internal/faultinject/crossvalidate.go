package faultinject

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"whatsnext/internal/core"
	"whatsnext/internal/cpu"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// Static↔dynamic cross-validation: CrossValidate consumes a wncheck
// verification certificate and checks both directions of the contract it
// states.
//
//   - Soundness of the proof: a power failure at any instruction boundary
//     inside proven (un-flagged) territory must leave the final NV data
//     bit-exact against an uninterrupted golden run. Any divergence there
//     is a Violation — either the analysis or the runtime is wrong.
//   - Non-vacuousness of the findings: every flagged region must be
//     witnessable — some kill whose resume point falls inside the region's
//     hazard window must produce a real divergence, recorded with its kill
//     cycle and first differing word. A flagged region nothing can witness
//     is a false alarm worth investigating (or a region only a weaker
//     runtime than the configured one can expose).
//
// Input locations (CrossConfig.InputWords) extend the oracle from one
// golden run to a small set of worlds: every forced failure advances the
// declared input words by one, modeling an external world that moved on
// while the device was dark. An injected run is then clean iff its final
// NV data (with the input words themselves masked) matches SOME single
// world's golden run — the formal memory-consistency condition. A state
// matching no world is exactly the repeated-input hazard WN105 flags.
type CrossConfig struct {
	Config
	// InputWords lists word-aligned NV data addresses treated as input
	// (sensor/IO) locations: advanced by one on every forced failure and
	// masked from the bit-exact comparison. Should mirror the
	// wncheck.Options.Input ranges the certificate was produced under.
	InputWords []uint32
	// MaxPoints caps the injected boundaries. Boundaries whose resume point
	// falls inside a flagged region's hazard window are always kept; the
	// certified remainder is sampled evenly. Zero means exhaustive.
	MaxPoints int
}

// RegionOutcome is the dynamic fate of one flagged region.
type RegionOutcome struct {
	Region  wncheck.Region
	Witness *Divergence // first divergence whose resume PC fell in the window; nil if none
}

// CrossReport summarizes a cross-validation campaign.
type CrossReport struct {
	Target          string
	Policy          string
	GoldenCycles    uint64
	Worlds          int // golden worlds compared against (1 + one per input advance modeled)
	Points          int // boundaries injected
	CertifiedPoints int // injected boundaries inside proven territory
	// Violations are divergences at certified boundaries: the proof said
	// this could not happen.
	Violations []Divergence
	// Outcomes report each flagged region in certificate order.
	Outcomes []RegionOutcome
	// Residual counts divergences inside flagged windows beyond each
	// region's first witness. Expected for real hazards (many kills in the
	// window diverge); never a soundness problem.
	Residual int

	// ProgressChecked is true when the certificate carried a finite
	// forward-progress bound, enabling the static-vs-dynamic comparison.
	ProgressChecked bool
	// MaxCommitGap is the dynamic maximum cycle distance between
	// consecutive commit boundaries (run start, each executed skim point,
	// halt) observed in the golden run.
	MaxCommitGap uint64
	// StaticRegionBound is the certificate's per-region WCEC bound; the
	// dynamic gap exceeding it is a ProgressViolation — the analyzer's
	// worst case was not an upper bound.
	StaticRegionBound uint64
	ProgressViolation bool
}

// Validated reports whether both directions of the contract held: no
// divergence in proven territory, and every flagged region witnessed.
func (r *CrossReport) Validated() bool {
	if len(r.Violations) > 0 || r.ProgressViolation {
		return false
	}
	for _, o := range r.Outcomes {
		if o.Witness == nil {
			return false
		}
	}
	return true
}

func (r *CrossReport) String() string {
	witnessed := 0
	for _, o := range r.Outcomes {
		if o.Witness != nil {
			witnessed++
		}
	}
	return fmt.Sprintf("crossvalidate: %s under %s: %d points (%d certified clean), %d/%d regions witnessed, %d violations, %d residual",
		r.Target, r.Policy, r.Points, r.CertifiedPoints, witnessed, len(r.Outcomes), len(r.Violations), r.Residual)
}

// goldenWorld is one uninterrupted pure-CPU execution of the target
// against one input world.
type goldenWorld struct {
	// stats are the golden CPU's counters at halt; it starts fresh from
	// core.NewDevice, so they count the whole run.
	stats cpu.Stats
	// m is the final memory, dirty-tracked since the target was loaded, so
	// its Dirty extent covers every byte the run (and its setup) wrote.
	m     *mem.Memory
	costs []cpu.Cost // per instruction, when asked for
	pcs   []uint32   // the PC each instruction executed at, when asked for
	// maxCommitGap is the largest cycle distance between consecutive
	// commit boundaries: run start, each executed skim point (whose own
	// cost is charged to the region it ends), and halt.
	maxCommitGap uint64
}

// GoldenProgress measures the dynamic forward-progress profile of one
// uninterrupted run: the maximum cycle gap between consecutive commit
// boundaries (run start, each executed skim point, halt) and the total
// cycle count. This is the dynamic half of the per-region WCEC contract —
// the gap must never exceed the certificate's static region bound.
func GoldenProgress(t Target, cfg Config) (maxGap, total uint64, err error) {
	g, err := goldenRun(t, cfg, nil, false, false)
	if err != nil {
		return 0, 0, err
	}
	return g.maxCommitGap, g.stats.Cycles, nil
}

// goldenGuard bounds a golden run when Config.Budget is zero.
const goldenGuard = uint64(1) << 32

// recordCap is how many instructions a golden run records before it is
// known to halt; the tests lower it.
var recordCap uint64 = 1 << 22

// goldenRun executes the target uninterrupted on a bare CPU in cpu.Run
// windows — no policy, so kill cycles and resume PCs are pure CPU figures
// the injected runs share. Run stops right after every SKM, so each
// StopSkim is a commit boundary. withCosts records every instruction's
// cost, which only an exhaustive schedule and CrossValidate need: both
// select boundaries before the campaign starts. Unrecorded, the run keeps
// fused superblocks over stores and logs nothing per instruction. withPCs
// records the PC each instruction executed at, running one-instruction
// windows. setup, when non-nil, prepares the memory before the run
// (advancing input words for an alternate world). A run that does not halt
// within Config.Budget cycles (goldenGuard when zero) is an error.
// Recording that run to goldenGuard could exhaust memory first, so past
// recordCap it finishes unrecorded and, having halted, is re-run recording
// within the cycles it took.
func goldenRun(t Target, cfg Config, setup func(*mem.Memory) error, withCosts, withPCs bool) (*goldenWorld, error) {
	m, c, err := core.NewDevice(t.Program)
	if err != nil {
		return nil, err
	}
	m.SetDirtyTracking(true)
	if setup != nil {
		if err := setup(m); err != nil {
			return nil, err
		}
	}
	bound := cmp.Or(cfg.Budget, goldenGuard)

	g := &goldenWorld{m: m}
	var costs *[]cpu.Cost
	if withCosts {
		costs = &g.costs
	}
	var gap uint64
	for !c.Halted {
		if c.Stats.Cycles > bound {
			return nil, fmt.Errorf("did not halt within %d cycles", bound)
		}
		if cfg.Budget == 0 && uint64(len(g.costs)) > recordCap {
			costs = nil
		}
		// cycles <= bound here; +1 lets the window cross the bound so an
		// overrun is seen. A recording window is short enough for the cap
		// check to run before it records much more than recordCap costs.
		win := min(bound-c.Stats.Cycles, math.MaxUint64-1) + 1
		if costs != nil {
			win = min(win, recordCap)
			if withPCs {
				g.pcs = append(g.pcs, c.Regs[isa.PC])
				win = 1
			}
		}
		res, err := c.Run(win, costs)
		if err != nil {
			return nil, err
		}
		gap += res.Cycles
		if res.Reason == cpu.StopSkim {
			g.maxCommitGap = max(g.maxCommitGap, gap)
			gap = 0
		}
	}
	g.maxCommitGap = max(g.maxCommitGap, gap)
	g.stats = c.Stats
	if withCosts && costs == nil {
		cfg.Budget = g.stats.Cycles
		return goldenRun(t, cfg, setup, withCosts, withPCs)
	}
	return g, nil
}

// advanceInputs returns the model of an external world that moved on while
// the device was dark: it advances each declared input word by one. It is
// nil when no input words are declared.
func advanceInputs(inputWords []uint32) func(*mem.Memory) error {
	if len(inputWords) == 0 {
		return nil
	}
	return func(m *mem.Memory) error {
		for _, w := range inputWords {
			v, err := m.LoadWord(w)
			if err != nil {
				return fmt.Errorf("input word %#08x: %w", w, err)
			}
			if err := m.StoreWord(w, v+1); err != nil {
				return err
			}
		}
		return nil
	}
}

// hazardWindow reports whether a resume PC falls inside the kill window of
// a flagged region. The window is one instruction wider than the region on
// both sides: killing just past the region's last instruction is what
// exposes a WAR/RMW (the write has landed, replay re-reads it), and killing
// at the first instruction costs nothing to include.
func hazardWindow(r wncheck.Region, pc uint32) bool {
	return pc >= r.Start && pc <= r.End+isa.InstBytes
}

// CrossValidate runs the certificate's contract against the device. The
// certificate must describe t.Image (hashes are checked). Every selected
// instruction boundary is a kill point of the same campaign RunLockstep
// runs.
func CrossValidate(t Target, cfg CrossConfig, cert *wncheck.Certificate) (*CrossReport, error) {
	if cert == nil {
		return nil, fmt.Errorf("crossvalidate: nil certificate")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("crossvalidate: Config.Policy is required")
	}
	sum := sha256.Sum256(t.Image)
	if got := hex.EncodeToString(sum[:]); got != cert.ImageSHA256 {
		return nil, fmt.Errorf("crossvalidate: %s: certificate is for image %s, target is %s", t.Name, cert.ImageSHA256, got)
	}

	world0, err := goldenRun(t, cfg.Config, nil, true, true)
	if err != nil {
		return nil, fmt.Errorf("crossvalidate: %s: golden run: %w", t.Name, err)
	}
	worlds := []*goldenWorld{world0}
	if onKill := advanceInputs(cfg.InputWords); onKill != nil {
		// Every forced failure advances the input words by one, so the run
		// may also match a world whose inputs were advanced before it began.
		world1, err := goldenRun(t, cfg.Config, onKill, false, false)
		if err != nil {
			return nil, fmt.Errorf("crossvalidate: %s: world-1 golden run: %w", t.Name, err)
		}
		worlds = append(worlds, world1)
	}
	cfg.Budget = cmp.Or(cfg.Budget, 4*world0.stats.Cycles+65536)

	rep := &CrossReport{
		Target:       t.Name,
		Policy:       cfg.Policy().Name(),
		GoldenCycles: world0.stats.Cycles,
		Worlds:       len(worlds),
		MaxCommitGap: world0.maxCommitGap,
	}
	// Forward-progress direction of the contract: the dynamic worst
	// inter-commit gap must stay within the certified static region bound.
	if pr := cert.Progress; pr != nil && pr.RegionsFinite {
		rep.ProgressChecked = true
		rep.StaticRegionBound = pr.MaxRegionWCEC
		rep.ProgressViolation = world0.maxCommitGap > pr.MaxRegionWCEC
	}
	for _, fr := range cert.Flagged {
		rep.Outcomes = append(rep.Outcomes, RegionOutcome{Region: fr})
	}

	// Every instruction boundary of the golden run is a candidate; the PC
	// execution resumes from is the one about to execute there.
	flagged := func(b killPoint) bool {
		for _, fr := range cert.Flagged {
			if hazardWindow(fr, world0.pcs[b.instr]) {
				return true
			}
		}
		return false
	}
	selected := killPoints(world0.costs, world0.stats.Cycles, Schedule{Exhaustive: true})
	if cfg.MaxPoints > 0 && len(selected) > cfg.MaxPoints {
		// Keep every flagged-window boundary (they carry the witnesses),
		// sample the certified remainder evenly. Each class stays in cycle
		// order, so the campaign's cycle-order visits credit the same
		// witnesses, violations and residuals as this selection order.
		var certified []killPoint
		bounds := selected
		selected = nil
		for _, b := range bounds {
			if flagged(b) {
				selected = append(selected, b)
			} else {
				certified = append(certified, b)
			}
		}
		keep := min(cfg.MaxPoints-len(selected), len(certified))
		for i := 0; i < keep; i++ {
			selected = append(selected, certified[i*len(certified)/keep])
		}
	}

	err = inject(t, cfg.Config, worlds, cfg.InputWords, selected, func(b killPoint, div *Divergence) {
		isFlagged := flagged(b)
		rep.Points++
		if !isFlagged {
			rep.CertifiedPoints++
		}
		if div == nil {
			return
		}
		if !isFlagged {
			rep.Violations = append(rep.Violations, *div)
			return
		}
		credited := false
		for i := range rep.Outcomes {
			if o := &rep.Outcomes[i]; o.Witness == nil && hazardWindow(o.Region, world0.pcs[b.instr]) {
				o.Witness = div
				credited = true
			}
		}
		if !credited {
			rep.Residual++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("crossvalidate: %s: %w", t.Name, err)
	}
	return rep, nil
}
