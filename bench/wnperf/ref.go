package main

import "time"

// The hosts this benchmark runs on are shared, and their speed drifts by
// 10–40 % over minutes as other tenants come and go: longer than a run, so
// no statistic over one run's rounds removes it. A fixed reference loop,
// timed between rounds, slows down with the host; the time metrics are
// reported scaled to the speed at which one reference pass takes refNominal.
// The loop is the benchmark's own code, so a change to the simulator cannot
// move it. Its memory is 1 MiB, which fits a core's L2 but not its L1, so
// it feels contention below the core as well; in a contended stretch it
// followed the simulator better than a 64 KiB loop did (bench/README.md).

const (
	refNominal = time.Millisecond       // reference pass time the metrics are scaled to
	refBatch   = 5                      // passes per sample
	refEvery   = 250 * time.Millisecond // least time between samples
)

// refMem is the reference loop's memory, refMask its index mask; refSink
// keeps the loop's result live.
const refMask = 1<<18 - 1

var (
	refMem  [refMask + 1]uint32
	refSink uint32
)

// refPass times one pass of the reference loop: a small register machine
// dispatching on a fixed instruction sequence, loading and storing across
// refMem, the shape of the simulator's own inner loop. It allocates
// nothing.
func refPass() time.Duration {
	t0 := time.Now()
	var r [6]uint32
	for i := uint32(0); i < 600_000; i++ {
		switch i & 7 {
		case 0:
			r[0] += i
		case 1:
			r[1] = refMem[r[0]&refMask]
		case 2:
			refMem[(r[1]+r[0])&refMask] = r[2]
		case 3:
			r[2] = r[1]*31 + r[3]
		case 4:
			r[3] ^= r[2] >> 3
		case 5:
			r[4] += refMem[r[3]&refMask]
		case 6:
			r[5] += r[4] & 255
		case 7:
			refMem[(r[5]*2654435761)&refMask] = r[0]
		}
	}
	refSink += r[5]
	return time.Since(t0)
}

// hostRef is the fastest reference pass seen in a run.
type hostRef struct {
	fastest time.Duration
	last    time.Time
}

// sample times a batch of reference passes.
func (h *hostRef) sample() {
	for range refBatch {
		if d := refPass(); h.fastest == 0 || d < h.fastest {
			h.fastest = d
		}
	}
	h.last = time.Now()
}

// maybeSample samples unless the last sample is less than refEvery old.
func (h *hostRef) maybeSample() {
	if time.Since(h.last) >= refEvery {
		h.sample()
	}
}

// scale converts a host time to the reference speed.
func (h *hostRef) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(h.fastest))
}
