package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/sweep"
)

// errRecorded stops a study after its jobs were recorded.
var errRecorded = errors.New("jobs recorded, none run")

// recordingRunner stores the spec hash of every submitted job, one batch
// per Run call, and runs nothing.
type recordingRunner struct{ batches [][]string }

func (r *recordingRunner) Run(jobs []sweep.Job) ([]json.RawMessage, error) {
	hashes := make([]string, len(jobs))
	for i, j := range jobs {
		hashes[i] = j.Spec.Hash()
	}
	r.batches = append(r.batches, hashes)
	return nil, errRecorded
}

// studyKeysDigest pins the cache keys of Table I, Figures 10/11 and the NN
// study at the default protocol: a sha256 over every submitted spec hash,
// in submission order. A change here orphans every cached result of these
// studies.
const studyKeysDigest = "720da4fbf0cf774689b2704b5ac81de0c05de6b3378df1eaaf2ed47fea9d1e2e"

// TestStudyCacheKeysPinned: the specs these studies submit hash to the same
// cache keys as before, so a cache filled by an earlier build still serves
// them.
func TestStudyCacheKeysPinned(t *testing.T) {
	rec := &recordingRunner{}
	proto := DefaultProtocol()
	proto.Runner = rec
	studies := []struct {
		name string
		run  func() error
	}{
		{"table1", func() error { _, err := Table1(proto); return err }},
		{"speedup/clank", func() error { _, err := SpeedupStudy(core.ProcClank, proto); return err }},
		{"speedup/nvp", func() error { _, err := SpeedupStudy(core.ProcNVP, proto); return err }},
		{"nn", func() error { _, err := NNStudy(proto); return err }},
	}
	for i, s := range studies {
		if err := s.run(); !errors.Is(err, errRecorded) {
			t.Fatalf("%s: err = %v, want the recording runner's", s.name, err)
		}
		if len(rec.batches) != i+1 {
			t.Fatalf("%s submitted %d batches, want 1", s.name, len(rec.batches)-i)
		}
	}
	h := sha256.New()
	n := 0
	for _, batch := range rec.batches {
		h.Write([]byte(strings.Join(batch, "\n")))
		h.Write([]byte("\n\n"))
		n += len(batch)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != studyKeysDigest {
		t.Errorf("%d cache keys digest to %s, want %s", n, got, studyKeysDigest)
	}
}
