package cpu

// The segmented-carry adder (Figure 8 of the paper): a 32-bit ripple adder
// with a mux after every four full adders. An ASV instruction forces zeroes
// into the carry chain at lane boundaries, turning the unit into 8x4-bit,
// 4x8-bit or 2x16-bit independent adders while retaining full 32-bit
// addition for ordinary instructions.

// laneLowBits returns a word with the low bit of every L-bit lane set.
func laneLowBits(lane uint) uint32 {
	switch lane {
	case 4:
		return 0x1111_1111
	case 8:
		return 0x0101_0101
	case 16:
		return 0x0001_0001
	default:
		return 1 // single 32-bit lane
	}
}

// AddASV performs lane-parallel addition with the carry chain segmented at
// lane boundaries: each L-bit lane computes (a_lane + b_lane) mod 2^L.
// Carry-outs between lanes are discarded, which is precisely the
// "unprovisioned" information loss the paper analyzes in Figure 14.
func AddASV(a, b uint32, lane uint) uint32 {
	if lane == 0 || lane >= 32 {
		return a + b
	}
	// SWAR addition: add without the top bit of each lane, then patch the
	// top bit with XOR so no carry crosses a lane boundary.
	top := laneLowBits(lane) << (lane - 1)
	low := ^top
	sum := (a & low) + (b & low)
	return sum ^ ((a ^ b) & top)
}

// SubASV performs lane-parallel subtraction: each L-bit lane computes
// (a_lane - b_lane) mod 2^L, with no borrow crossing lane boundaries.
func SubASV(a, b uint32, lane uint) uint32 {
	if lane == 0 || lane >= 32 {
		return a - b
	}
	top := laneLowBits(lane) << (lane - 1)
	low := ^top
	diff := (a | top) - (b & low)
	return diff ^ ((a ^ b ^ top) & top)
}
