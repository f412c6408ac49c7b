package mem

import (
	"testing"
	"testing/quick"
)

func newMem(t *testing.T) *Memory {
	t.Helper()
	return New(DefaultConfig())
}

func TestWordEndianness(t *testing.T) {
	m := newMem(t)
	if err := m.StoreWord(DataBase, 0x11223344); err != nil {
		t.Fatal(err)
	}
	b0, _ := m.LoadByte(DataBase)
	b3, _ := m.LoadByte(DataBase + 3)
	if b0 != 0x44 || b3 != 0x11 {
		t.Fatalf("little-endian layout violated: %#x %#x", b0, b3)
	}
	h, _ := m.LoadHalf(DataBase + 2)
	if h != 0x1122 {
		t.Fatalf("half = %#x", h)
	}
}

func TestRoundTripAllWidths(t *testing.T) {
	m := newMem(t)
	f := func(off uint16, v uint32) bool {
		addr := DataBase + uint32(off)*4
		if err := m.StoreWord(addr, v); err != nil {
			return false
		}
		w, err := m.LoadWord(addr)
		return err == nil && w == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRegions(t *testing.T) {
	m := newMem(t)
	for _, addr := range []uint32{CodeBase, DataBase, SRAMBase} {
		if err := m.StoreWord(addr, 42); err != nil {
			t.Errorf("store at %#x: %v", addr, err)
		}
	}
	if err := m.StoreWord(0x5000_0000, 1); err == nil {
		t.Error("unmapped store must fail")
	}
	if _, err := m.LoadWord(0x5000_0000); err == nil {
		t.Error("unmapped load must fail")
	}
	cfg := m.Config()
	if err := m.StoreWord(DataBase+uint32(cfg.DataBytes), 1); err == nil {
		t.Error("store past region end must fail")
	}
	// Errors carry context.
	err := m.StoreWord(0x5000_0000, 1)
	if ae, ok := err.(*AccessError); !ok || !ae.Write || ae.Size != 4 {
		t.Errorf("error detail wrong: %v", err)
	}
}

func TestMisalignment(t *testing.T) {
	m := newMem(t)
	if _, err := m.LoadWord(DataBase + 2); err == nil {
		t.Error("misaligned word load must fail")
	}
	if _, err := m.LoadHalf(DataBase + 1); err == nil {
		t.Error("misaligned half load must fail")
	}
	if _, err := m.LoadByte(DataBase + 1); err != nil {
		t.Error("byte loads have no alignment requirement")
	}
}

func TestPowerLossSemantics(t *testing.T) {
	m := newMem(t)
	m.StoreWord(DataBase, 7)
	m.StoreWord(SRAMBase, 9)
	m.PowerLoss()
	d, _ := m.LoadWord(DataBase)
	s, _ := m.LoadWord(SRAMBase)
	if d != 7 {
		t.Error("non-volatile data must survive an outage")
	}
	if s != 0 {
		t.Error("volatile SRAM must clear on an outage")
	}
}

func TestIdempotencyTracking(t *testing.T) {
	m := newMem(t)
	m.SetTracking(true)

	// A write with no prior read is not a violation.
	if m.WouldViolate(DataBase, 4) {
		t.Fatal("unread address cannot violate")
	}
	m.StoreWord(DataBase, 1)

	// write-after-write-only: still fine.
	if m.WouldViolate(DataBase, 4) {
		t.Fatal("write-after-write without an intervening first-read is idempotent")
	}

	// Read a fresh address then write it: violation.
	m.LoadWord(DataBase + 8)
	if !m.WouldViolate(DataBase+8, 4) {
		t.Fatal("write-after-read must violate")
	}

	// Sub-word overlap counts: reading one byte taints the covering word.
	m.LoadByte(DataBase + 13)
	if !m.WouldViolate(DataBase+12, 4) {
		t.Fatal("byte read should taint the containing word")
	}

	// Clearing the sets (a checkpoint) resets the analysis.
	m.ClearAccessSets()
	if m.WouldViolate(DataBase+8, 4) {
		t.Fatal("checkpoint should clear the read set")
	}

	// SRAM accesses are never violations (volatile state is rolled back
	// wholesale by the checkpoint).
	m.LoadWord(SRAMBase)
	if m.WouldViolate(SRAMBase, 4) {
		t.Fatal("SRAM is not tracked")
	}

	// Disabled tracking reports nothing.
	m.SetTracking(false)
	m.LoadWord(DataBase + 16)
	if m.WouldViolate(DataBase+16, 4) {
		t.Fatal("tracking disabled")
	}
}

func TestReadAfterOwnWriteIsNotViolation(t *testing.T) {
	m := newMem(t)
	m.SetTracking(true)
	m.StoreWord(DataBase, 5)
	m.LoadWord(DataBase) // read of a value this interval wrote
	if m.WouldViolate(DataBase, 4) {
		t.Fatal("read-after-write then write is WAW, not a violation")
	}
}

func TestBulkDataTransfer(t *testing.T) {
	m := newMem(t)
	src := []byte{1, 2, 3, 4, 5}
	w, err := m.DataWindow(DataBase+16, len(src))
	if err != nil {
		t.Fatal(err)
	}
	copy(w, src)
	dst := make([]byte, 5)
	if err := m.ReadData(DataBase+16, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("bulk round trip byte %d: %d != %d", i, dst[i], src[i])
		}
	}
	if _, err := m.DataWindow(SRAMBase, len(src)); err == nil {
		t.Error("a window outside the data region must fail")
	}
	if err := m.ReadData(DataBase+uint32(m.Config().DataBytes)-2, dst); err == nil {
		t.Error("bulk read past the end must fail")
	}
}

func TestZeroData(t *testing.T) {
	m := newMem(t)
	m.StoreWord(DataBase+64, 99)
	m.ZeroData()
	v, _ := m.LoadWord(DataBase + 64)
	if v != 0 {
		t.Fatal("ZeroData should clear the data region")
	}
}

func TestProgramLoading(t *testing.T) {
	m := newMem(t)
	img := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	if err := m.LoadProgram(img); err != nil {
		t.Fatal(err)
	}
	w, err := m.FetchWord(CodeBase)
	if err != nil || w != 0xDDCCBBAA {
		t.Fatalf("fetch = %#x, %v", w, err)
	}
	big := make([]byte, m.Config().CodeBytes+4)
	if err := m.LoadProgram(big); err == nil {
		t.Error("oversized program must be rejected")
	}
}

func TestStats(t *testing.T) {
	m := newMem(t)
	m.LoadWord(DataBase)
	m.StoreWord(DataBase, 1)
	m.StoreWord(SRAMBase, 1)
	if m.NVWrites != 1 {
		t.Fatalf("NV writes = %d, want 1 (the SRAM store is volatile)", m.NVWrites)
	}
}

func TestAccessErrorMessage(t *testing.T) {
	e := &AccessError{Addr: 0x123, Size: 4, Write: true, Msg: "unmapped"}
	if e.Error() == "" || e.Error() == "unmapped" {
		t.Fatal("error message should be descriptive")
	}
}

// TestEpochRollover drives the epoch counter through its 2^16 wraparound.
// Stale stamps issued before the rollover must not alias freshly issued
// epochs — ClearAccessSets scrubs both shadow arrays and restarts at 1.
func TestEpochRollover(t *testing.T) {
	m := newMem(t)
	m.SetTracking(true)

	// Stamp a read in epoch 1 (the post-New epoch): without the rollover
	// scrub this word's stamp would alias the post-rollover epoch 1.
	if _, err := m.LoadWord(DataBase); err != nil {
		t.Fatal(err)
	}
	if !m.WouldViolate(DataBase, 4) {
		t.Fatal("read-first word must register before rollover")
	}

	// Fast-forward to the last epoch and stamp a second word there.
	m.epoch = ^uint16(0)
	if _, err := m.LoadWord(DataBase + 4); err != nil {
		t.Fatal(err)
	}
	if !m.WouldViolate(DataBase+4, 4) {
		t.Fatal("read-first word must register in the final epoch")
	}

	m.ClearAccessSets()
	if m.epoch != 1 {
		t.Fatalf("epoch after rollover = %d, want 1", m.epoch)
	}
	if m.WouldViolate(DataBase, 4) {
		t.Error("stale epoch-1 stamp from before the rollover aliased the new epoch 1")
	}
	if m.WouldViolate(DataBase+4, 4) {
		t.Error("final-epoch stamp survived the rollover scrub")
	}

	// Tracking still works after the wrap.
	if _, err := m.LoadWord(DataBase + 8); err != nil {
		t.Fatal(err)
	}
	if !m.WouldViolate(DataBase+8, 4) {
		t.Error("tracking must keep working after the rollover")
	}
}

// TestPowerLossKeepsAccessSets pins the Clank filter semantics: the shadow
// arrays are non-volatile, so an outage does not clear the tracked sets —
// only an explicit ClearAccessSets (the checkpoint/restore boundary) does.
func TestPowerLossKeepsAccessSets(t *testing.T) {
	m := newMem(t)
	m.SetTracking(true)

	if _, err := m.LoadWord(DataBase); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreWord(SRAMBase, 9); err != nil {
		t.Fatal(err)
	}

	m.PowerLoss()
	if s, _ := m.LoadWord(SRAMBase); s != 0 {
		t.Error("volatile SRAM must clear on an outage")
	}
	if !m.WouldViolate(DataBase, 4) {
		t.Error("the read-first set must survive a power loss")
	}

	// The runtime clears the sets at restore; only then is the word safe to
	// overwrite without forcing a checkpoint.
	m.ClearAccessSets()
	if m.WouldViolate(DataBase, 4) {
		t.Error("ClearAccessSets at restore must empty the read-first set")
	}
}
