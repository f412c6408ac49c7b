package policytest

import (
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
)

// RestartConfig parameterizes the restart-from-entry runtime.
type RestartConfig struct {
	// RestoreCycles is the boot cost charged on every power restore.
	RestoreCycles uint32
}

// DefaultRestartConfig matches the other runtimes' restore figure.
func DefaultRestartConfig() RestartConfig { return RestartConfig{RestoreCycles: 40} }

// Restart is the zero-hardware runtime for progress-embedded programs: it
// takes no checkpoints, writes no NVM state of its own, and on every power
// restore simply resets the core to the program entry point. Forward
// progress across outages is possible only because a progress-embedded
// build rediscovers its frontier by scanning the committed output features
// in NVM — which is exactly the property the NN fault-injection campaigns
// certify. Running a conventional multi-pass anytime build under Restart
// diverges (re-accumulating completed passes), which the negative tests
// witness.
//
// Its replay distance is the full prefix since the last reset, so a
// lockstep fault-injection fork under Restart rarely re-converges with the
// trunk; it runs to halt and is diffed.
type Restart struct {
	cfg RestartConfig
	r   *intermittent.Runner

	sinceReset uint64 // CPU cycles since the program entry was last (re)entered

	Restores uint64
}

// NewRestart builds the policy.
func NewRestart(cfg RestartConfig) *Restart { return &Restart{cfg: cfg} }

// Name implements Policy.
func (p *Restart) Name() string { return "restart" }

// Checkpoints implements Policy: there are never any.
func (p *Restart) Checkpoints() uint64 { return 0 }

// Attach implements Policy: nothing to prepare, nothing to track. The run
// starts at the entry point.
func (p *Restart) Attach(r *intermittent.Runner) {
	p.r = r
	p.sinceReset = 0
}

// BatchHorizon implements Policy: no watchdog, no tracking — the batched
// executor may run arbitrarily far.
func (p *Restart) BatchHorizon() (uint64, float64) { return 1 << 62, 0 }

// BatchWindow implements Policy: no overhead.
func (p *Restart) BatchWindow(cycles uint64) (first, last energy.Overhead) {
	p.sinceReset += cycles
	return
}

// OnOutage implements Policy: volatile state is destroyed.
func (p *Restart) OnOutage() {
	p.r.CPU.PowerLoss()
	p.r.Mem.PowerLoss()
}

// OnRestore implements Policy: reboot from the entry point. The armed skim
// state (if any) is ignored — a restart runtime has no restore path that
// could consume it.
func (p *Restart) OnRestore() (uint32, float64) {
	p.r.CPU.Reset()
	p.sinceReset = 0
	p.Restores++
	return p.cfg.RestoreCycles, 0
}

// Fork implements Policy. Restart keeps no per-run state beyond the runner
// binding and its counters.
func (p *Restart) Fork(r *intermittent.Runner) intermittent.Policy {
	f := *p
	f.r = r
	r.CPU.BeforeStore = nil
	return &f
}

// ReplayDistance implements Policy: a restore reboots at the entry point,
// so the distance is every cycle since the last reset.
func (p *Restart) ReplayDistance() uint64 { return p.sinceReset }
