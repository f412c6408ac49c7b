// Package mem models the memory system of a WN-class energy-harvesting
// device: a non-volatile code region (flash/FRAM), a non-volatile data
// region (FRAM), and a volatile SRAM region.
//
// The memory tracks, per checkpoint interval, the set of addresses read and
// written. The Clank-style runtime uses this to detect idempotency
// violations (a write to non-volatile memory at an address previously read
// since the last checkpoint), which force a checkpoint before the write may
// proceed so that re-execution after a power outage observes consistent
// state.
//
// Tracking is implemented as epoch-tagged word-granularity shadow arrays
// over the FRAM data region, mirroring the constant-time hardware filter
// Clank describes: a word is in the current read-first (or written) set iff
// its shadow stamp equals the current epoch, and clearing both sets at a
// checkpoint is a single epoch increment.
package mem

import (
	"bytes"
	"fmt"
)

// Region boundaries. Addresses are 32-bit; each region is sized at
// construction time.
const (
	CodeBase = 0x0000_0000 // non-volatile instruction memory
	DataBase = 0x1000_0000 // non-volatile FRAM data
	SRAMBase = 0x2000_0000 // volatile SRAM (stack, scratch)
)

// AccessError reports an out-of-range or misaligned access.
type AccessError struct {
	Addr  uint32
	Size  int
	Write bool
	Msg   string
}

func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: invalid %d-byte %s at %#08x: %s", e.Size, kind, e.Addr, e.Msg)
}

// Config sizes the memory regions.
type Config struct {
	CodeBytes int // non-volatile instruction memory
	DataBytes int // non-volatile FRAM data memory
	SRAMBytes int // volatile SRAM
}

// DefaultConfig returns region sizes comfortable for every Table I benchmark
// at paper scale (a 128x128 16-bit image plus 32-bit accumulator planes).
func DefaultConfig() Config {
	return Config{
		CodeBytes: 64 << 10,
		DataBytes: 512 << 10,
		SRAMBytes: 16 << 10,
	}
}

// Memory is the device memory. It is not safe for concurrent use; each
// simulated device owns one Memory.
type Memory struct {
	cfg  Config
	code []byte
	data []byte
	sram []byte

	// Idempotency tracking for the Clank-style runtime: one epoch stamp per
	// word of the FRAM data region. A word belongs to the current interval's
	// read-first (resp. written) set iff its stamp equals epoch.
	trackAccess bool
	epoch       uint32
	readEpoch   []uint32 // stamped when read before any write this epoch
	writeEpoch  []uint32 // stamped when written this epoch

	// Dirty-extent tracking for the lockstep fault injector: the byte
	// extents written since the last ResetDirty, maintained O(1) per store.
	// Forked devices use them to copy and compare only the touched windows
	// instead of the full (hundreds-of-KB) region set. Off by default;
	// stores take the precise path while enabled.
	trackDirty bool
	dirty      DirtyExtent
	sramHigh   uint32 // high-water mark of SRAM writes since SetDirtyTracking

	// Cached region resolution: consecutive accesses to the same region
	// skip the backing switch. curNV is 1 when the cached region is the
	// non-volatile data region (so the store fast path can bump NVWrites
	// with an add instead of a compare).
	curRegion []byte
	curBase   uint32
	curNV     uint64

	progLen int // bytes of the loaded program image (decode-cache extent)

	// NVWrites counts stores into the non-volatile data region since
	// construction; each one carries the FRAM write-energy surcharge.
	NVWrites uint64
}

// New builds a Memory with the given region sizes.
func New(cfg Config) *Memory {
	// One backing slab for all three regions: a single allocation instead of
	// three, which matters for harnesses that build thousands of devices.
	// Full-capacity slicing keeps the regions from growing into each other.
	cb, db := cfg.CodeBytes, cfg.DataBytes
	slab := make([]byte, cb+db+cfg.SRAMBytes)
	return &Memory{
		cfg:   cfg,
		code:  slab[:cb:cb],
		data:  slab[cb : cb+db : cb+db],
		sram:  slab[cb+db:],
		epoch: 1,
		dirty: emptyDirty(),
	}
}

// DirtyExtent records which parts of a memory were written since the last
// ResetDirty: half-open byte extents [Lo, Hi) within the data and SRAM
// regions, and a flag for any write into the code region (self-modifying
// programs are rare enough that byte precision there buys nothing). The
// zero extent (Lo >= Hi) is empty.
type DirtyExtent struct {
	DataLo, DataHi uint32
	SRAMLo, SRAMHi uint32
	Code           bool
}

func emptyDirty() DirtyExtent {
	return DirtyExtent{DataLo: ^uint32(0), SRAMLo: ^uint32(0)}
}

// Union widens the extent to cover o as well.
func (e DirtyExtent) Union(o DirtyExtent) DirtyExtent {
	if o.DataLo < e.DataLo {
		e.DataLo = o.DataLo
	}
	if o.DataHi > e.DataHi {
		e.DataHi = o.DataHi
	}
	if o.SRAMLo < e.SRAMLo {
		e.SRAMLo = o.SRAMLo
	}
	if o.SRAMHi > e.SRAMHi {
		e.SRAMHi = o.SRAMHi
	}
	e.Code = e.Code || o.Code
	return e
}

// SetDirtyTracking enables or disables dirty-extent tracking and resets the
// extents and the SRAM high-water mark. While enabled, stores take the
// precise (non-inlined) path, so harnesses leave it off; the lockstep fault
// injector enables it on its trunk and forked devices only.
func (m *Memory) SetDirtyTracking(on bool) {
	m.trackDirty = on
	m.dirty = emptyDirty()
	m.sramHigh = 0
}

// Dirty returns the extents written since the last ResetDirty.
func (m *Memory) Dirty() DirtyExtent { return m.dirty }

// ResetDirty empties the dirty extents (the SRAM high-water mark persists).
func (m *Memory) ResetDirty() { m.dirty = emptyDirty() }

// noteDirty widens the dirty extents for a store of size bytes at addr.
func (m *Memory) noteDirty(addr uint32, size int) {
	switch {
	case inRegion(addr, DataBase, len(m.data)):
		off := addr - DataBase
		if off < m.dirty.DataLo {
			m.dirty.DataLo = off
		}
		if end := off + uint32(size); end > m.dirty.DataHi {
			m.dirty.DataHi = end
		}
	case inRegion(addr, SRAMBase, len(m.sram)):
		off := addr - SRAMBase
		if off < m.dirty.SRAMLo {
			m.dirty.SRAMLo = off
		}
		if end := off + uint32(size); end > m.dirty.SRAMHi {
			m.dirty.SRAMHi = end
		}
		if end := off + uint32(size); end > m.sramHigh {
			m.sramHigh = end
		}
	default:
		m.dirty.Code = true
	}
}

// CopyDirty copies src's bytes within ext into m, plus the NV-write count.
// It is the incremental form of Clone for a memory that already matches src
// everywhere outside ext: the lockstep injector re-syncs its reusable fork
// with it in O(|ext|). Tracking stamps are deliberately not copied — the
// caller's next ClearAccessSets (every restore path issues one) makes any
// stale stamps unreadable, because m's epoch only ever moves forward.
func (m *Memory) CopyDirty(src *Memory, ext DirtyExtent) {
	if ext.DataLo < ext.DataHi {
		copy(m.data[ext.DataLo:ext.DataHi], src.data[ext.DataLo:ext.DataHi])
	}
	if ext.SRAMLo < ext.SRAMHi {
		copy(m.sram[ext.SRAMLo:ext.SRAMHi], src.sram[ext.SRAMLo:ext.SRAMHi])
	}
	if ext.Code {
		copy(m.code, src.code)
	}
	m.sramHigh = max(m.sramHigh, src.sramHigh)
	m.NVWrites = src.NVWrites
}

// EqualWithin reports whether m and o hold identical bytes inside ext. For
// two memories known to be equal outside ext (a fork and its trunk), this
// is a full state-equality test at O(|ext|) cost.
func (m *Memory) EqualWithin(o *Memory, ext DirtyExtent) bool {
	if ext.DataLo < ext.DataHi && !bytes.Equal(m.data[ext.DataLo:ext.DataHi], o.data[ext.DataLo:ext.DataHi]) {
		return false
	}
	if ext.SRAMLo < ext.SRAMHi && !bytes.Equal(m.sram[ext.SRAMLo:ext.SRAMHi], o.sram[ext.SRAMLo:ext.SRAMHi]) {
		return false
	}
	if ext.Code && !bytes.Equal(m.code, o.code) {
		return false
	}
	return true
}

// Config returns the sizes the memory was built with.
func (m *Memory) Config() Config { return m.cfg }

// Clone deep-copies the memory: region contents, tracking shadow state
// (epoch stamps included, so a cloned Clank device sees the same read/write
// sets), program extent, and NV-write count. The region-resolution cache
// starts cold — it re-warms on the clone's first access. The fault injector
// forks a mid-run device at every kill boundary with it.
func (m *Memory) Clone() *Memory {
	n := New(m.cfg)
	copy(n.code, m.code)
	copy(n.data, m.data)
	copy(n.sram, m.sram)
	n.trackAccess = m.trackAccess
	n.epoch = m.epoch
	if m.readEpoch != nil {
		n.readEpoch = append([]uint32(nil), m.readEpoch...)
		n.writeEpoch = append([]uint32(nil), m.writeEpoch...)
	}
	n.progLen = m.progLen
	n.trackDirty = m.trackDirty
	n.dirty = m.dirty
	n.sramHigh = m.sramHigh
	n.NVWrites = m.NVWrites
	return n
}

// ProgramImage returns a copy of the loaded program image (the progLen-byte
// prefix of code memory). The CPU's translation backend hands it to
// wncheck.ImageCFG so superblock extents come from the same CFG the static
// verifier reasons about.
func (m *Memory) ProgramImage() []byte {
	return append([]byte(nil), m.code[:m.progLen]...)
}

// SetTracking enables or disables read/write-set tracking. The Clank runtime
// enables it; the NVP runtime leaves it off. The shadow arrays (one epoch
// stamp per data word) are allocated on first enable, so untracked devices —
// continuous-power harnesses, NVP — never pay for them.
func (m *Memory) SetTracking(on bool) {
	m.trackAccess = on
	if on && m.readEpoch == nil {
		words := (m.cfg.DataBytes + 3) / 4
		m.readEpoch = make([]uint32, words)
		m.writeEpoch = make([]uint32, words)
	}
}

// ClearAccessSets empties the tracked read/write sets. Called at every
// checkpoint boundary. It is a single epoch increment: stamps from earlier
// epochs no longer match, so both sets are empty in O(1).
func (m *Memory) ClearAccessSets() {
	m.epoch++
	if m.epoch == 0 {
		// The epoch counter rolled over; stamps left behind by the previous
		// era would alias freshly issued epochs. Scrub them once per 2^32
		// checkpoints and restart at 1 (0 marks "never touched").
		clear(m.readEpoch)
		clear(m.writeEpoch)
		m.epoch = 1
	}
}

// WouldViolate reports whether a store of size bytes at addr would be an
// idempotency violation: a write to non-volatile data that was read (before
// being written) since the last checkpoint. Re-executing the interval after
// an outage would then read the new value instead of the original one.
func (m *Memory) WouldViolate(addr uint32, size int) bool {
	if !m.trackAccess || !inRegion(addr, DataBase, len(m.data)) {
		return false
	}
	first, last := coveredWords(addr, size)
	for wa := first; wa <= last; wa += 4 {
		wi := (wa - DataBase) >> 2
		if int(wi) >= len(m.readEpoch) {
			break // the store itself will fault past the region end
		}
		if m.readEpoch[wi] == m.epoch {
			return true
		}
	}
	return false
}

// noteWriteSlow handles the non-volatile half of noteWrite out of line so
// the SRAM-store fast path stays inlinable.
func (m *Memory) noteWriteSlow(addr uint32, size int) {
	m.NVWrites++
	if m.trackAccess {
		m.trackWrite(addr, size)
	}
}

// The Try* accessors below are the interpreter's single-call fast path:
// each is small enough for the compiler to inline into the execution loop,
// hitting the cached region directly. They fail (returning ok=false) on a
// region-cache miss, a boundary or alignment issue, or when access tracking
// is enabled — the caller then routes through the full Load*/Store* methods,
// which handle every case and produce precise errors. A Try* call that
// fails performs no access and leaves NVWrites unchanged.

// TryLoadWord is the inlinable word-load fast path.
func (m *Memory) TryLoadWord(addr uint32) (uint32, bool) {
	b := m.curRegion
	off := addr - m.curBase
	if uint64(off)+4 > uint64(len(b)) || addr&3 != 0 || m.trackAccess {
		return 0, false
	}
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24, true
}

// TryLoadHalf is the inlinable halfword-load fast path.
func (m *Memory) TryLoadHalf(addr uint32) (uint32, bool) {
	b := m.curRegion
	off := addr - m.curBase
	if uint64(off)+2 > uint64(len(b)) || addr&1 != 0 || m.trackAccess {
		return 0, false
	}
	return uint32(b[off]) | uint32(b[off+1])<<8, true
}

// TryLoadByte is the inlinable byte-load fast path.
func (m *Memory) TryLoadByte(addr uint32) (uint32, bool) {
	b := m.curRegion
	off := addr - m.curBase
	if off >= uint32(len(b)) || m.trackAccess {
		return 0, false
	}
	return uint32(b[off]), true
}

// TryStoreWord is the inlinable word-store fast path.
func (m *Memory) TryStoreWord(addr uint32, v uint32) bool {
	b := m.curRegion
	off := addr - m.curBase
	if uint64(off)+4 > uint64(len(b)) || addr&3 != 0 || m.trackAccess || m.trackDirty {
		return false
	}
	m.NVWrites += m.curNV
	b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return true
}

// TryStoreHalf is the inlinable halfword-store fast path.
func (m *Memory) TryStoreHalf(addr uint32, v uint32) bool {
	b := m.curRegion
	off := addr - m.curBase
	if uint64(off)+2 > uint64(len(b)) || addr&1 != 0 || m.trackAccess || m.trackDirty {
		return false
	}
	m.NVWrites += m.curNV
	b[off], b[off+1] = byte(v), byte(v>>8)
	return true
}

// TryStoreByte is the inlinable byte-store fast path.
func (m *Memory) TryStoreByte(addr uint32, v uint32) bool {
	b := m.curRegion
	off := addr - m.curBase
	if off >= uint32(len(b)) || m.trackAccess || m.trackDirty {
		return false
	}
	m.NVWrites += m.curNV
	b[off] = byte(v)
	return true
}

// trackRead stamps the covered data words as read-first unless they were
// already written this epoch. Callers have validated the access, so word
// indices are in range.
func (m *Memory) trackRead(addr uint32, size int) {
	if !inRegion(addr, DataBase, len(m.data)) {
		return
	}
	first, last := coveredWords(addr, size)
	for wa := first; wa <= last; wa += 4 {
		wi := (wa - DataBase) >> 2
		if m.writeEpoch[wi] != m.epoch {
			m.readEpoch[wi] = m.epoch
		}
	}
}

// trackWrite stamps the covered data words as written this epoch.
func (m *Memory) trackWrite(addr uint32, size int) {
	first, last := coveredWords(addr, size)
	for wa := first; wa <= last; wa += 4 {
		m.writeEpoch[(wa-DataBase)>>2] = m.epoch
	}
}

// coveredWords bounds the word-aligned addresses a size-byte access touches:
// every word in [first, last], stepping by 4. An access contained in one
// word has first == last, so callers visit each word exactly once.
func coveredWords(addr uint32, size int) (first, last uint32) {
	return addr &^ 3, (addr + uint32(size) - 1) &^ 3
}

func inRegion(addr uint32, base uint32, size int) bool {
	return addr >= base && addr < base+uint32(size)
}

// backing returns the byte slice and offset for an access, or an error. The
// region resolved by the previous access is cached: consecutive accesses to
// the same region (the overwhelmingly common case in the interpreter loop)
// skip the switch. The body is small enough to inline into the Load*/Store*
// helpers; misses and boundary cases fall through to backingSlow.
func (m *Memory) backing(addr uint32, size int, write bool) ([]byte, uint32, error) {
	region := m.curRegion
	off := addr - m.curBase
	if n := uint32(len(region)); off < n && n-off >= uint32(size) && addr&(uint32(size)-1) == 0 {
		return region, off, nil
	}
	return m.backingSlow(addr, size, write)
}

// backingSlow re-resolves the region on a cache miss and builds precise
// errors for unmapped, out-of-bounds, and misaligned accesses.
func (m *Memory) backingSlow(addr uint32, size int, write bool) ([]byte, uint32, error) {
	region, base := m.curRegion, m.curBase
	off := addr - base
	if region == nil || off >= uint32(len(region)) {
		switch {
		case inRegion(addr, DataBase, len(m.data)):
			region, base = m.data, DataBase
		case inRegion(addr, SRAMBase, len(m.sram)):
			region, base = m.sram, SRAMBase
		case inRegion(addr, CodeBase, len(m.code)):
			region, base = m.code, CodeBase
		default:
			return nil, 0, &AccessError{Addr: addr, Size: size, Write: write, Msg: "unmapped"}
		}
		m.curRegion, m.curBase = region, base
		m.curNV = 0
		if base == DataBase {
			m.curNV = 1
		}
		off = addr - base
	}
	if int(off)+size > len(region) {
		return nil, 0, &AccessError{Addr: addr, Size: size, Write: write, Msg: "past end of region"}
	}
	if uint32(size) > 1 && addr%uint32(size) != 0 {
		return nil, 0, &AccessError{Addr: addr, Size: size, Write: write, Msg: "misaligned"}
	}
	return region, off, nil
}

// LoadWord reads a 32-bit little-endian word.
func (m *Memory) LoadWord(addr uint32) (uint32, error) {
	b, off, err := m.backing(addr, 4, false)
	if err != nil {
		return 0, err
	}
	if m.trackAccess {
		m.trackRead(addr, 4)
	}
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24, nil
}

// LoadHalf reads a 16-bit little-endian halfword (zero-extended).
func (m *Memory) LoadHalf(addr uint32) (uint32, error) {
	b, off, err := m.backing(addr, 2, false)
	if err != nil {
		return 0, err
	}
	if m.trackAccess {
		m.trackRead(addr, 2)
	}
	return uint32(b[off]) | uint32(b[off+1])<<8, nil
}

// LoadByte reads one byte (zero-extended).
func (m *Memory) LoadByte(addr uint32) (uint32, error) {
	b, off, err := m.backing(addr, 1, false)
	if err != nil {
		return 0, err
	}
	if m.trackAccess {
		m.trackRead(addr, 1)
	}
	return uint32(b[off]), nil
}

// StoreWord writes a 32-bit little-endian word.
func (m *Memory) StoreWord(addr uint32, v uint32) error {
	b, off, err := m.backing(addr, 4, true)
	if err != nil {
		return err
	}
	if inRegion(addr, DataBase, len(m.data)) {
		m.noteWriteSlow(addr, 4)
	}
	if m.trackDirty {
		m.noteDirty(addr, 4)
	}
	b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// StoreHalf writes a 16-bit little-endian halfword.
func (m *Memory) StoreHalf(addr uint32, v uint32) error {
	b, off, err := m.backing(addr, 2, true)
	if err != nil {
		return err
	}
	if inRegion(addr, DataBase, len(m.data)) {
		m.noteWriteSlow(addr, 2)
	}
	if m.trackDirty {
		m.noteDirty(addr, 2)
	}
	b[off], b[off+1] = byte(v), byte(v>>8)
	return nil
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v uint32) error {
	b, off, err := m.backing(addr, 1, true)
	if err != nil {
		return err
	}
	if inRegion(addr, DataBase, len(m.data)) {
		m.noteWriteSlow(addr, 1)
	}
	if m.trackDirty {
		m.noteDirty(addr, 1)
	}
	b[off] = byte(v)
	return nil
}

// FetchWord reads an instruction word without read-set tracking
// (instruction fetch is from non-volatile code memory).
func (m *Memory) FetchWord(addr uint32) (uint32, error) {
	b, off, err := m.backing(addr, 4, false)
	if err != nil {
		return 0, err
	}
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24, nil
}

// LoadProgram copies an encoded program image into code memory at CodeBase.
func (m *Memory) LoadProgram(image []byte) error {
	if len(image) > len(m.code) {
		return fmt.Errorf("mem: program image (%d bytes) exceeds code memory (%d bytes)", len(image), len(m.code))
	}
	clear(m.code)
	copy(m.code, image)
	m.progLen = len(image)
	return nil
}

// ProgramBytes returns the length of the most recently loaded program image.
// The CPU's decode cache only decodes this prefix of code memory; the rest
// is zeroed by LoadProgram and shares a single invalid-word sentinel.
func (m *Memory) ProgramBytes() int { return m.progLen }

// WriteData bulk-copies bytes into the non-volatile data region at addr,
// bypassing tracking. Used by harnesses to install benchmark inputs.
func (m *Memory) WriteData(addr uint32, b []byte) error {
	if !inRegion(addr, DataBase, len(m.data)) || int(addr-DataBase)+len(b) > len(m.data) {
		return &AccessError{Addr: addr, Size: len(b), Write: true, Msg: "bulk write out of data region"}
	}
	if m.trackDirty && len(b) > 0 {
		m.noteDirty(addr, len(b))
	}
	copy(m.data[addr-DataBase:], b)
	return nil
}

// ReadData bulk-copies len(b) bytes out of the non-volatile data region,
// bypassing tracking. Used by harnesses to extract benchmark outputs.
func (m *Memory) ReadData(addr uint32, b []byte) error {
	if !inRegion(addr, DataBase, len(m.data)) || int(addr-DataBase)+len(b) > len(m.data) {
		return &AccessError{Addr: addr, Size: len(b), Msg: "bulk read out of data region"}
	}
	copy(b, m.data[addr-DataBase:])
	return nil
}

// PowerLoss models a power outage: volatile SRAM contents are destroyed.
// Non-volatile code and data regions persist, as do the tracking shadow
// arrays — the runtime decides when to reset tracking (ClearAccessSets at
// restore), mirroring Clank's non-volatile filter state.
func (m *Memory) PowerLoss() {
	if m.trackDirty {
		// Every SRAM byte written since tracking began is bounded by the
		// high-water mark, and tracking starts on a zeroed region, so only
		// [0, sramHigh) can change — clear and mark exactly that window.
		if m.sramHigh > 0 {
			clear(m.sram[:m.sramHigh])
			if m.dirty.SRAMLo != 0 {
				m.dirty.SRAMLo = 0
			}
			if m.sramHigh > m.dirty.SRAMHi {
				m.dirty.SRAMHi = m.sramHigh
			}
		}
		return
	}
	clear(m.sram)
}

// ZeroData clears the whole non-volatile data region. Harnesses call it
// between benchmark invocations.
func (m *Memory) ZeroData() {
	clear(m.data)
	if m.trackDirty {
		m.dirty.DataLo = 0
		m.dirty.DataHi = uint32(len(m.data))
	}
}
