package sweep

import (
	"fmt"
	"strings"
	"testing"
)

// TestMemoryCacheUnbounded: the memory cache never drops an entry.
func TestMemoryCacheUnbounded(t *testing.T) {
	c := NewMemoryCache()
	for i := 0; i < 10000; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{1})
	}
	if c.Len() != 10000 {
		t.Errorf("len=%d, want 10000", c.Len())
	}
}

// TestValidCacheKey: the disk cache accepts spec hashes and nothing that
// could name another file.
func TestValidCacheKey(t *testing.T) {
	good := Spec{Experiment: "x"}.Hash()
	if !validCacheKey(good) {
		t.Fatalf("spec hash %q rejected", good)
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64),
		strings.Repeat("0", 63), strings.Repeat("0", 65), "../../../../etc/passwd",
	} {
		if validCacheKey(bad) {
			t.Errorf("validCacheKey(%q) = true, want false", bad)
		}
	}
}
