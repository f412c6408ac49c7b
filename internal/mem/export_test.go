package mem

// SetEpoch and Epoch expose the access-tracking epoch, so a test can start
// a run a few checkpoints before the 16-bit counter wraps.
func SetEpoch(m *Memory, e uint16) { m.epoch = e }

func Epoch(m *Memory) uint16 { return m.epoch }
