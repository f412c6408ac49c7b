package main

import (
	"strings"
	"testing"
)

// TestRegistryWellFormed: every registry entry has a unique name, a
// description and a runner, and validateExp accepts it.
func TestRegistryWellFormed(t *testing.T) {
	names := map[string]bool{}
	for _, e := range registry {
		if names[e.name] {
			t.Errorf("duplicate registry entry %q", e.name)
		}
		names[e.name] = true
		if e.desc == "" || e.run == nil {
			t.Errorf("registry entry %q lacks a description or runner", e.name)
		}
		if err := validateExp(e.name); err != nil {
			t.Errorf("validateExp(%q): %v", e.name, err)
		}
	}
}

// TestListExperiments: the -exp list output enumerates exactly the
// registry, one line per entry.
func TestListExperiments(t *testing.T) {
	var sb strings.Builder
	listExperiments(&sb)
	out := sb.String()
	for _, e := range registry {
		if !strings.Contains(out, e.name) || !strings.Contains(out, e.desc) {
			t.Errorf("listing lacks %q", e.name)
		}
	}
	if got := strings.Count(out, "\n"); got != len(registry)+1 {
		t.Errorf("listing has %d lines, want %d", got, len(registry)+1)
	}
}

// TestValidateExpRejectsUnknown: unknown names fail with the valid list.
func TestValidateExpRejectsUnknown(t *testing.T) {
	err := validateExp("nope")
	if err == nil || !strings.Contains(err.Error(), "nn") {
		t.Errorf("err = %v, want mention of valid names", err)
	}
	if err := validateExp("all"); err != nil {
		t.Errorf("validateExp(all): %v", err)
	}
}
