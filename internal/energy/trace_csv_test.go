package energy

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceCSVExactRoundTrip: WriteCSV→ReadCSV must reproduce the trace
// exactly, not approximately. WriteCSV formats with strconv's shortest
// round-trippable representation ('g', -1), so every power sample must come
// back bit-identical, and at the paper's 1 kHz rate the inferred sample rate
// is exact too (1/0.001 is representable).
func TestTraceCSVExactRoundTrip(t *testing.T) {
	tr := SyntheticWiFiTrace(11, DefaultTraceConfig())
	tr.Power = tr.Power[:2000] // keep the test fast; still 2 s of samples

	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleHz != tr.SampleHz {
		t.Fatalf("SampleHz %v, want exactly %v", got.SampleHz, tr.SampleHz)
	}
	if len(got.Power) != len(tr.Power) {
		t.Fatalf("%d samples, want %d", len(got.Power), len(tr.Power))
	}
	for i := range tr.Power {
		if got.Power[i] != tr.Power[i] {
			t.Fatalf("sample %d: %v, want exactly %v", i, got.Power[i], tr.Power[i])
		}
	}

	// Re-encoding the parsed trace must be byte-identical to the first
	// encoding — the property that makes trace files stable artifacts.
	var again bytes.Buffer
	if err := got.WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-encoded CSV differs from original encoding")
	}
}

// TestTraceCSVFileRoundTrip exercises the same path through a real file,
// the way wntrace and the experiment harness use it.
func TestTraceCSVFileRoundTrip(t *testing.T) {
	tr := ConstantTrace(2.5e-4, 1000, 0.05)
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleHz != 1000 || len(got.Power) != 50 || got.Power[17] != 2.5e-4 {
		t.Fatalf("file round trip: hz=%v n=%d p17=%v", got.SampleHz, len(got.Power), got.Power[17])
	}
}

// readCSVMalformed is the table of malformed traces: each source and a
// substring its ReadCSV error must contain. FuzzReadCSV seeds from it too.
var readCSVMalformed = []struct {
	name, src, wantErr string
}{
	{"empty", "", "at least two samples"},
	{"header only", "time_s,power_w\n", "at least two samples"},
	{"one sample", "time_s,power_w\n0,1e-4\n", "at least two samples"},
	{"bad first timestamp", "time_s,power_w\nx,1e-4\n0.001,1e-4\n", "bad timestamp"},
	{"bad second timestamp", "time_s,power_w\n0,1e-4\nx,1e-4\n", "bad timestamp"},
	{"equal timestamps", "time_s,power_w\n0.001,1e-4\n0.001,1e-4\n", "non-increasing"},
	{"decreasing timestamps", "time_s,power_w\n0.002,1e-4\n0.001,1e-4\n", "non-increasing"},
	{"bad power", "time_s,power_w\n0,1e-4\n0.001,oops\n", "bad power"},
	{"NaN power", "time_s,power_w\n0,1e-4\n0.001,NaN\n", "row 3: power NaN"},
	{"infinite power", "time_s,power_w\n0,1e-4\n0.001,1e-4\n0.002,+Inf\n", "row 4: power +Inf"},
	{"negative infinite power", "time_s,power_w\n0,-Inf\n0.001,1e-4\n", "row 2: power -Inf"},
	{"negative power", "time_s,power_w\n0,1e-4\n0.001,-2e-4\n", "row 3: power -0.0002"},
	{"NaN timestamp", "time_s,power_w\n0,1e-4\nNaN,1e-4\n", "row 3: timestamp NaN"},
	{"infinite timestamp", "time_s,power_w\nInf,1e-4\n0.001,1e-4\n", "row 2: timestamp +Inf"},
	{"subnormal period", "time_s,power_w\n0,1e-4\n5e-324,1e-4\n", "too short"},
	{"overflowing period", "time_s,power_w\n-1e308,1e-4\n1e308,1e-4\n", "overflows"},
	// Rows after the first two must carry valid timestamps on the grid
	// the first two define.
	{"bad later timestamp", "time_s,power_w\n0,1e-4\n0.001,1e-4\nabc,1e-4\n", "row 4: bad timestamp"},
	{"NaN later timestamp", "time_s,power_w\n0,1e-4\n0.001,1e-4\n0.002,1e-4\nNaN,1e-4\n", "row 5: timestamp NaN"},
	{"infinite later timestamp", "time_s,power_w\n0,1e-4\n0.001,1e-4\n-Inf,1e-4\n", "row 4: timestamp -Inf"},
	{"skipped sample", "time_s,power_w\n0,1e-4\n0.001,1e-4\n0.003,1e-4\n", "row 4: timestamp 0.003 is off"},
	{"repeated sample", "time_s,power_w\n0,1e-4\n0.001,1e-4\n0.002,1e-4\n0.002,1e-4\n", "row 5: timestamp 0.002 is off"},
	{"off-grid timestamp", "time_s,power_w\n0.5,1e-4\n0.501,1e-4\n0.5027,1e-4\n", "row 4: timestamp 0.5027 is off"},
	// A one-column header relaxes the csv reader's field-count check, so
	// this reaches ReadCSV's own short-row guard.
	{"short row", "time_s\n0\n0.001\n", "is short"},
	// With the standard two-column header the csv layer itself rejects a
	// row with the wrong number of fields.
	{"ragged row", "time_s,power_w\n0,1e-4\n0.001\n", "wrong number of fields"},
	{"bare quote", "time_s,power_w\n0,\"1e-4\n0.001,1e-4\n", "quote"},
}

// TestReadCSVMalformed pins each malformed-input error path to its message,
// so a regression can't silently reroute one failure mode into another.
func TestReadCSVMalformed(t *testing.T) {
	for _, tc := range readCSVMalformed {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("ReadCSV(%q) succeeded, want error containing %q", tc.src, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ReadCSV(%q) error %q, want it to contain %q", tc.src, err, tc.wantErr)
			}
		})
	}
}

// TestReadCSVCRLF: traces exported from other tooling often carry Windows
// line endings; the csv layer must absorb them.
func TestReadCSVCRLF(t *testing.T) {
	src := "time_s,power_w\r\n0,1e-4\r\n0.001,3e-4\r\n0.002,2e-4\r\n"
	tr, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.SampleHz != 1000 || len(tr.Power) != 3 || tr.Power[1] != 3e-4 {
		t.Fatalf("CRLF parse: hz=%v n=%d p1=%v", tr.SampleHz, len(tr.Power), tr.Power[1])
	}
}

// TestReadCSVGridTolerance: a later timestamp within half a sample period
// of its grid point is accepted (exported traces often carry rounded or
// jittered times); the sample still lands in its row's slot.
func TestReadCSVGridTolerance(t *testing.T) {
	src := "time_s,power_w\n0.5,1e-4\n0.501,2e-4\n0.50249,3e-4\n0.50251,4e-4\n"
	tr, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Power) != 4 || tr.Power[2] != 3e-4 || tr.Power[3] != 4e-4 {
		t.Fatalf("jittered parse: %v", tr.Power)
	}
}

// failAfter errors once n bytes have been accepted, to prove WriteCSV
// propagates sink failures instead of dropping samples silently.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteCSVPropagatesWriteError(t *testing.T) {
	tr := ConstantTrace(1e-4, 1000, 1)
	if err := tr.WriteCSV(&failAfter{n: 64}); err == nil {
		t.Fatal("WriteCSV into a failing writer returned nil")
	}
}
