package energy

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV: ReadCSV returns an error, never panics, on any input, and a
// trace it accepts survives WriteCSV → ReadCSV with every power sample
// bit-identical. Seeds are the malformed-trace table, a CRLF trace, a
// jittered-grid trace and a small WriteCSV encoding.
func FuzzReadCSV(f *testing.F) {
	for _, tc := range readCSVMalformed {
		f.Add(tc.src)
	}
	f.Add("time_s,power_w\r\n0,1e-4\r\n0.001,3e-4\r\n0.002,2e-4\r\n")
	f.Add("time_s,power_w\n0.5,1e-4\n0.501,2e-4\n0.50249,3e-4\n0.50251,4e-4\n")
	var buf bytes.Buffer
	tr := SyntheticWiFiTrace(3, DefaultTraceConfig())
	tr.Power = tr.Power[:16]
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ReadCSV(strings.NewReader(src))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatalf("WriteCSV of an accepted trace: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v\n%s", err, out.String())
		}
		if len(back.Power) != len(tr.Power) {
			t.Fatalf("%d samples after round trip, want %d", len(back.Power), len(tr.Power))
		}
		for i := range tr.Power {
			if math.Float64bits(back.Power[i]) != math.Float64bits(tr.Power[i]) {
				t.Fatalf("sample %d: %v after round trip, want %v", i, back.Power[i], tr.Power[i])
			}
		}
	})
}
