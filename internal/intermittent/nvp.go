package intermittent

import (
	"math"

	"whatsnext/internal/energy"
)

// NVPConfig parameterizes the non-volatile-processor runtime.
type NVPConfig struct {
	// BackupEnergyFactor is the per-cycle energy surcharge of backing up
	// the architectural state every cycle into non-volatile flip-flops
	// (the backup-every-cycle policy of Ma et al.). 0.3 means +30%.
	BackupEnergyFactor float64
	// WakeupCycles is the fixed cost of resuming after an outage.
	WakeupCycles uint32
}

// DefaultNVPConfig uses a 30% per-cycle backup surcharge and a short wakeup,
// consistent with published NV flip-flop overheads.
func DefaultNVPConfig() NVPConfig {
	return NVPConfig{BackupEnergyFactor: 0.3, WakeupCycles: 8}
}

// NVP is the non-volatile processor policy: architectural state persists
// across outages, so the core resumes in place. There are no checkpoints
// and no re-execution; the cost is a continuous backup energy surcharge.
type NVP struct {
	cfg NVPConfig
	r   *Runner
}

// NewNVP builds the policy with the given configuration.
func NewNVP(cfg NVPConfig) *NVP { return &NVP{cfg: cfg} }

// Name implements Policy.
func (n *NVP) Name() string { return "nvp" }

// Checkpoints implements Policy. State is implicitly checkpointed every
// cycle; the discrete count is therefore not meaningful and reported as 0.
func (n *NVP) Checkpoints() uint64 { return 0 }

// Attach implements Policy.
func (n *NVP) Attach(r *Runner) {
	n.r = r
	r.Mem.SetTracking(false)
	r.CPU.BeforeStore = nil
}

// BatchHorizon implements Policy: NVP has no watchdog, so only the energy
// headroom bounds a batch; every instruction pays the per-cycle backup
// surcharge factor on top of its own cost.
func (n *NVP) BatchHorizon() (uint64, float64) {
	return math.MaxUint64, n.cfg.BackupEnergyFactor
}

// BatchWindow implements Policy: NVP never has overhead pending.
func (n *NVP) BatchWindow(uint64) (first, last energy.Overhead) { return }

// OnOutage implements Policy: architectural state is preserved in NV
// flip-flops. Only the (volatile SRAM-based) memo table is lost.
func (n *NVP) OnOutage() {
	if n.r.CPU.Memo != nil {
		n.r.CPU.Memo.Invalidate()
	}
	n.r.Mem.PowerLoss()
}

// OnRestore implements Policy: resume in place, honoring skim points.
func (n *NVP) OnRestore() (uint32, float64) {
	n.r.ConsumeSkim()
	return n.cfg.WakeupCycles, 0
}
